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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
        return self.n_blades * self.chord / (np.pi * self.radius)

    @functools.cached_property
    def disk_area(self) -> float:
        return np.pi * self.radius**2


@dataclass
class AirState:
    """Flight condition of one rotor.

    ``v_horiz`` is the horizontal airspeed ``sqrt(xdot^2 + ydot^2)``,
    ``z_dot`` the inertial vertical rate (z-up), ``omega_rotor`` the shaft
    speed, and ``weight_supported`` the load used for the induced-velocity
    computation (the static share, or the starting load of the coupled
    solve).
    """

    rho: float = 1.225
    v_horiz: float = 0.0
    z_dot: float = 0.0
    omega_rotor: float = 1000.0
    weight_supported: float = 0.0

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ScenarioValidationError([("rho", "must be > 0")])


@dataclass
class RotorWrench:
    """Hub-frame loads: thrust along the shaft, in-plane drag force, shaft
    torque, and roll moment.  The lateral force and pitching moment are
    identically zero for this blade model."""

    thrust: float
    h_force: float
    torque_shaft: float
    roll_moment: float
    y_force: float = 0.0
    pitch_moment: float = 0.0


def induced_velocity(air: AirState, geom: RotorGeometry) -> float:
    """Momentum-theory induced velocity at the disk (m/s)."""
    return _induced(0.5 * air.v_horiz**2, air.weight_supported / (2.0 * air.rho * geom.disk_area))


def _induced(half_v2: float, loading: float) -> float:
    return math.sqrt(half_v2 + math.sqrt(half_v2**2 + loading**2))


def _tip_speed(air: AirState, geom: RotorGeometry) -> float:
    if not air.omega_rotor > 0.0:
        raise ZeroRotorSpeedError("omega_rotor must be > 0")
    return air.omega_rotor * geom.radius


def inflow_ratio(air: AirState, geom: RotorGeometry, nu1: float) -> float:
    """``(nu1 - z_dot) / (Omega R)``; climbing (z_dot > nu1) makes it negative."""
    return (nu1 - air.z_dot) / _tip_speed(air, geom)


def advance_ratio(air: AirState, geom: RotorGeometry) -> float:
    """``V / (Omega R)``."""
    return air.v_horiz / _tip_speed(air, geom)


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
    geom: RotorGeometry, air: AirState, coupled: bool = True
) -> RotorWrench:
    """Dimensional rotor loads at the given flight condition.

    With ``coupled=True`` (default) the induced velocity and the thrust are
    solved self-consistently (:func:`_coupled_load`, starting from
    ``air.weight_supported``).  With ``coupled=False`` the static loading
    ``air.weight_supported`` is used directly.
    """
    tip = _tip_speed(air, geom)
    mu = air.v_horiz / tip
    pressure = air.rho * geom.disk_area * tip**2
    load = _coupled_load(geom, air, tip, pressure) if coupled else air.weight_supported
    nu1 = _induced(0.5 * air.v_horiz**2, load / (2.0 * air.rho * geom.disk_area))
    lam = (nu1 - air.z_dot) / tip
    return RotorWrench(
        thrust=thrust_coefficient(geom, lam, mu) * pressure,
        h_force=hub_force_coefficient(geom, lam, mu) * pressure,
        torque_shaft=torque_coefficient(geom, lam, mu) * pressure * geom.radius,
        roll_moment=roll_moment_coefficient(geom, lam, mu) * pressure * geom.radius,
    )


def _coupled_load(geom: RotorGeometry, air: AirState, tip: float, pressure: float) -> float:
    """Load ``L`` that the blade model returns as thrust: root of
    ``r(L) = C - k nu1(L) - L``, where ``C`` is the thrust at ``nu1 = 0`` and
    ``k = sigma a rho A Omega R / 4``, by Newton with the analytic slope
    ``-1 - k nu1'(L)``.  ``nu1`` is even in ``L`` and increasing for ``L > 0``,
    so if ``r(0) = C - k V > 0`` the root is the unique positive one, in
    ``[0, C]``; otherwise it lies in ``[-(a + sqrt(-r(0)))^2, 0]`` with
    ``a = k / sqrt(2 rho A)``, since ``nu1(L) <= V + sqrt(|L| / (2 rho A))``.
    Steps that leave the bracket bisect it instead.
    """
    two_rho_a = 2.0 * air.rho * geom.disk_area
    half_v2 = 0.5 * air.v_horiz**2
    k = 0.25 * geom.solidity * geom.lift_slope * air.rho * geom.disk_area * tip
    c = thrust_coefficient(geom, -air.z_dot / tip, air.v_horiz / tip) * pressure
    r0 = c - k * air.v_horiz
    lo, hi = (0.0, c) if r0 > 0.0 else (-(k / math.sqrt(two_rho_a) + math.sqrt(-r0)) ** 2, 0.0)
    tol = 1e-12 * (hi - lo)
    load = min(max(air.weight_supported, lo), hi)
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
        f"induced-velocity solve failed to converge (V={air.v_horiz!r}, "
        f"z_dot={air.z_dot!r}, omega={air.omega_rotor!r}, last load {load!r})"
    )


def hover_rotor_speed(geom: RotorGeometry, thrust, rho: float):
    """Shaft speed delivering ``thrust`` in static hover (V = z_dot = 0); the
    calibration an ideal speed controller would apply.

    ``thrust = sigma a rho A [b x^2 - nu_h x / 4]``, with ``x = Omega R``,
    ``b = theta0/6 - theta_tw/8`` and ``nu_h = sqrt(thrust / (2 rho A))``, is
    quadratic in ``x``; this returns its positive root.  Accepts a scalar
    (returns a float) or an array of thrusts.
    """
    thrust = np.asarray(thrust, dtype=float)
    if not np.all(thrust > 0.0):
        raise ScenarioValidationError([("thrust", "hover calibration needs thrust > 0")])
    b = geom.theta0 / 6.0 - geom.theta_tw / 8.0
    if not b > 0.0:
        raise ScenarioValidationError([("theta_tw", "hover needs theta0/6 - theta_tw/8 > 0")])
    sa_rho_a = geom.solidity * geom.lift_slope * rho * geom.disk_area
    nu_q = 0.25 * np.sqrt(thrust / (2.0 * rho * geom.disk_area))
    omega = (nu_q + np.sqrt(nu_q**2 + 4.0 * b * thrust / sa_rho_a)) / (2.0 * b * geom.radius)
    return float(omega) if omega.ndim == 0 else omega


class HoverCalibration:
    """Thrust-to-shaft-speed map of one scenario's rotors: per-rotor thrust
    saturates to the actuator range ``[HOVER_THRUST_MIN_FRAC,
    HOVER_THRUST_MAX_FRAC] x hover_thrust``, then :func:`hover_rotor_speed`."""

    def __init__(self, geom: RotorGeometry, rho: float, hover_thrust: float):
        self.geom = geom
        self.rho = rho
        self.thrust_range = (HOVER_THRUST_MIN_FRAC * hover_thrust,
                             HOVER_THRUST_MAX_FRAC * hover_thrust)

    def saturate(self, thrust):
        return np.clip(thrust, *self.thrust_range)

    def __call__(self, thrust):
        return hover_rotor_speed(self.geom, self.saturate(thrust), self.rho)
