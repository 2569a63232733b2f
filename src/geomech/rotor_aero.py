"""Per-rotor aerodynamic forces and torques from combined momentum theory
and blade element theory.

Momentum theory supplies the induced velocity through the actuator disk;
blade element theory integrates sectional lift and drag over radius and
azimuth, which for a rigid, constant-chord, linearly twisted blade with a
linear lift slope collapses to closed-form coefficient polynomials in the
inflow ratio ``lambda`` and advance ratio ``mu``:

    C_T / (sigma a) = (1/6 + mu^2/4) theta0 - (1 + mu^2) theta_tw / 8 - lambda/4
    C_H / (sigma a) = mu Cd / (4 a) + lambda mu (theta0 - theta_tw/2) / 4
    C_Q / (sigma a) = (1 + mu^2) Cd / (8 a) + lambda (theta0/6 - theta_tw/8 - lambda/4)
    C_R / (sigma a) = -mu (theta0/6 - theta_tw/8 - lambda/8)

The lateral force and pitching-moment integrals vanish identically.  The
solidity ``sigma = N c / (pi R)`` is fixed by requiring the dimensional
blade-element thrust ``N rho a c (Omega R)^2 R [...]`` and the coefficient
form ``C_T rho A (Omega R)^2`` to agree identically.

Sign conventions: the vertical rate ``z_dot`` is the hub's inertial z-up
velocity and enters the inflow ratio as ``(nu1 - z_dot) / (Omega R)``, and
the induced velocity uses the closed form
``nu1 = sqrt(V^2/2 + sqrt((V^2/2)^2 + (W / (2 rho A))^2))``, which grows
with horizontal speed.  Both follow the source model as printed; see the
package README for the caveats.

Two inversions close the model.  The static hover relation is quadratic in
the tip speed, so :func:`hover_rotor_speed` returns its positive root in
closed form.  The coupled induced velocity (the load fed to momentum theory
equals the blade-element thrust) is a scalar root that
:func:`rotor_wrench` finds by bracketed Newton with the analytic slope.

The model runs on Python floats: ``rotor_wrench(geom, rho, v_horiz, z_dot,
omega, load)`` returns ``(thrust, h_force, torque_shaft, roll_moment)``,
``induced_velocity(geom, rho, v_horiz, load)`` the momentum-theory inflow,
and ``hover_rotor_speed(geom, thrust, rho)`` the hover shaft speed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import NoConvergenceError, ScenarioValidationError, ZeroRotorSpeedError

# per-rotor thrust range of the actuator, as fractions of the hover share
HOVER_THRUST_MIN_FRAC = 1e-3
HOVER_THRUST_MAX_FRAC = 6.0
_MAX_LOAD_ITERS = 100


@dataclass
class RotorGeometry:
    """Blade and airfoil constants.

    ``lift_slope`` is the sectional lift-curve slope (1/rad); the incidence
    distribution is ``theta0 - theta_tw * (r/R)``.
    """

    n_blades: int = 2
    chord: float = 0.02
    radius: float = 0.15
    lift_slope: float = 5.7
    theta0: float = 0.2
    theta_tw: float = 0.04
    cd_bar: float = 0.01

    def __post_init__(self):
        violations = []
        for name in ("n_blades", "chord", "radius", "lift_slope", "cd_bar"):
            if not getattr(self, name) > 0:
                violations.append((name, "must be > 0"))
        if self.theta0 < 0:
            violations.append(("theta0", "must be >= 0"))
        if not violations:
            sigma = self.solidity
            if not 0.0 < sigma < 1.0:
                violations.append(("solidity", f"N c / (pi R) = {sigma:.3f} not in (0, 1)"))
        if violations:
            raise ScenarioValidationError(violations)

    @functools.cached_property
    def solidity(self) -> float:
        return self.n_blades * self.chord / (math.pi * self.radius)

    @functools.cached_property
    def disk_area(self) -> float:
        return math.pi * self.radius**2


def induced_velocity(geom: RotorGeometry, rho: float, v_horiz: float, load: float) -> float:
    """Momentum-theory induced velocity at the disk (m/s) for the horizontal
    airspeed ``v_horiz`` and the load ``load`` carried by the disk."""
    half_v2 = 0.5 * v_horiz**2
    loading = load / (2.0 * rho * geom.disk_area)
    return math.sqrt(half_v2 + math.sqrt(half_v2**2 + loading**2))


def thrust_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return geom.solidity * geom.lift_slope * (
        (1.0 / 6.0 + 0.25 * mu * mu) * geom.theta0
        - (1.0 + mu * mu) * geom.theta_tw / 8.0
        - lam / 4.0
    )


def hub_force_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return geom.solidity * geom.lift_slope * (
        mu * geom.cd_bar / (4.0 * geom.lift_slope)
        + 0.25 * lam * mu * (geom.theta0 - geom.theta_tw / 2.0)
    )


def torque_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return geom.solidity * geom.lift_slope * (
        (1.0 + mu * mu) * geom.cd_bar / (8.0 * geom.lift_slope)
        + lam * (geom.theta0 / 6.0 - geom.theta_tw / 8.0 - lam / 4.0)
    )


def roll_moment_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return -geom.solidity * geom.lift_slope * mu * (
        geom.theta0 / 6.0 - geom.theta_tw / 8.0 - lam / 8.0
    )


def rotor_wrench(
    geom: RotorGeometry, rho: float, v_horiz: float, z_dot: float, omega: float, load: float
) -> tuple[float, float, float, float]:
    """Hub-frame loads of one rotor at shaft speed ``omega``, horizontal
    airspeed ``v_horiz`` and inertial vertical rate ``z_dot`` (z-up): the
    thrust along the shaft, the in-plane drag force, the shaft torque and the
    roll moment.  The induced velocity and the thrust are solved
    self-consistently by :func:`_coupled_load`, starting from ``load``.
    """
    if not omega > 0.0:
        raise ZeroRotorSpeedError("omega_rotor must be > 0")
    tip = omega * geom.radius
    mu = v_horiz / tip
    pressure = rho * geom.disk_area * tip**2
    load = _coupled_load(geom, rho, v_horiz, z_dot, tip, pressure, load)
    lam = (induced_velocity(geom, rho, v_horiz, load) - z_dot) / tip
    return (
        thrust_coefficient(geom, lam, mu) * pressure,
        hub_force_coefficient(geom, lam, mu) * pressure,
        torque_coefficient(geom, lam, mu) * pressure * geom.radius,
        roll_moment_coefficient(geom, lam, mu) * pressure * geom.radius,
    )


def _coupled_load(geom: RotorGeometry, rho: float, v_horiz: float, z_dot: float,
                  tip: float, pressure: float, load: float) -> float:
    """Load ``L`` that the blade model returns as thrust: root of
    ``r(L) = C - k nu1(L) - L``, where ``C`` is the thrust at ``nu1 = 0`` and
    ``k = sigma a rho A Omega R / 4``, by Newton with the analytic slope
    ``-1 - k nu1'(L)``, starting from ``load``.  ``nu1`` is even in ``L`` and
    increasing for ``L > 0``, so if ``r(0) = C - k V > 0`` the root is the
    unique positive one, in ``[0, C]``; otherwise it lies in
    ``[-(a + sqrt(-r(0)))^2, 0]`` with ``a = k / sqrt(2 rho A)``, since
    ``nu1(L) <= V + sqrt(|L| / (2 rho A))``.  Steps that leave the bracket
    bisect it instead.
    """
    two_rho_a = 2.0 * rho * geom.disk_area
    half_v2 = 0.5 * v_horiz**2
    k = 0.25 * geom.solidity * geom.lift_slope * rho * geom.disk_area * tip
    c = thrust_coefficient(geom, -z_dot / tip, v_horiz / tip) * pressure
    r0 = c - k * v_horiz
    lo, hi = (0.0, c) if r0 > 0.0 else (-(k / math.sqrt(two_rho_a) + math.sqrt(-r0)) ** 2, 0.0)
    tol = 1e-12 * (hi - lo)
    load = min(max(load, lo), hi)
    for _ in range(_MAX_LOAD_ITERS):
        q = load / two_rho_a
        s = math.sqrt(half_v2**2 + q * q)
        nu1 = math.sqrt(half_v2 + s)
        r = c - k * nu1 - load
        if r == 0.0:
            return load
        lo, hi = (load, hi) if r > 0.0 else (lo, load)
        # -r'(L) = 1 + k nu1'(L); nu1' is unbounded at V = L = 0
        drop = 1.0 + k * q / (2.0 * two_rho_a * nu1 * s) if nu1 * s > 0.0 else 0.0
        new = load + r / drop if drop != 0.0 else load
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - load) <= tol:
            return new
        load = new
    raise NoConvergenceError(
        f"induced-velocity solve failed to converge (V={v_horiz!r}, "
        f"z_dot={z_dot!r}, tip speed={tip!r}, last load {load!r})"
    )


def hover_rotor_speed(geom: RotorGeometry, thrust: float, rho: float) -> float:
    """Shaft speed delivering ``thrust`` in static hover (V = z_dot = 0); the
    calibration an ideal speed controller would apply.

    ``thrust = sigma a rho A [b x^2 - nu_h x / 4]``, with ``x = Omega R``,
    ``b = theta0/6 - theta_tw/8`` and ``nu_h = sqrt(thrust / (2 rho A))``, is
    quadratic in ``x``; this returns its positive root.
    """
    if not thrust > 0.0:
        raise ScenarioValidationError([("thrust", "hover calibration needs thrust > 0")])
    b = geom.theta0 / 6.0 - geom.theta_tw / 8.0
    if not b > 0.0:
        raise ScenarioValidationError([("theta_tw", "hover needs theta0/6 - theta_tw/8 > 0")])
    sa_rho_a = geom.solidity * geom.lift_slope * rho * geom.disk_area
    nu_q = 0.25 * math.sqrt(thrust / (2.0 * rho * geom.disk_area))
    return (nu_q + math.sqrt(nu_q**2 + 4.0 * b * thrust / sa_rho_a)) / (2.0 * b * geom.radius)


class HoverCalibration:
    """Thrust-to-shaft-speed map of one scenario's rotors: per-rotor thrust
    saturates to the actuator range ``[HOVER_THRUST_MIN_FRAC,
    HOVER_THRUST_MAX_FRAC] x hover_thrust``, then :func:`hover_rotor_speed`."""

    def __init__(self, geom: RotorGeometry, rho: float, hover_thrust: float):
        self.geom = geom
        self.rho = rho
        self.thrust_range = (HOVER_THRUST_MIN_FRAC * hover_thrust,
                             HOVER_THRUST_MAX_FRAC * hover_thrust)

    def __call__(self, thrusts) -> list[tuple[float, float]]:
        """``(saturated thrust, shaft speed)`` of each commanded thrust."""
        lo, hi = self.thrust_range
        return [((t := min(max(thrust, lo), hi)), hover_rotor_speed(self.geom, t, self.rho))
                for thrust in thrusts]
