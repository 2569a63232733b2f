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
and ``hover_rotor_speed(geom, thrust, rho)`` the hover shaft speed.  One
kernel evaluates the four coefficient polynomials from the blade constants
that the frozen ``RotorGeometry`` forms once; a :class:`HoverCalibration`
forms the hover root's constants once.
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


@dataclass(frozen=True)
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

    @functools.cached_property
    def blade(self) -> tuple:
        """``(sigma a, theta0, theta_tw, cd_bar, a, b)``, ``b = theta0/6 - theta_tw/8``."""
        return (self.solidity * self.lift_slope, self.theta0, self.theta_tw, self.cd_bar,
                self.lift_slope, self.theta0 / 6.0 - self.theta_tw / 8.0)


def induced_velocity(geom: RotorGeometry, rho: float, v_horiz: float, load: float) -> float:
    """Momentum-theory induced velocity at the disk (m/s) for the horizontal
    airspeed ``v_horiz`` and the load ``load`` carried by the disk."""
    half_v2 = 0.5 * v_horiz**2
    loading = load / (2.0 * rho * geom.disk_area)
    return math.sqrt(half_v2 + math.sqrt(half_v2**2 + loading**2))


def _coefficients(blade: tuple, lam: float, mu: float) -> tuple[float, float, float, float]:
    """``(C_T, C_H, C_Q, C_R)`` at inflow ratio ``lam`` and advance ratio ``mu``."""
    sa, theta0, theta_tw, cd_bar, a, b = blade
    return (
        sa * ((1.0 / 6.0 + 0.25 * mu * mu) * theta0 - (1.0 + mu * mu) * theta_tw / 8.0 - lam / 4.0),
        sa * (mu * cd_bar / (4.0 * a) + 0.25 * lam * mu * (theta0 - theta_tw / 2.0)),
        sa * ((1.0 + mu * mu) * cd_bar / (8.0 * a) + lam * (b - lam / 4.0)),
        -sa * mu * (b - lam / 8.0),
    )


def thrust_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return _coefficients(geom.blade, lam, mu)[0]


def hub_force_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return _coefficients(geom.blade, lam, mu)[1]


def torque_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return _coefficients(geom.blade, lam, mu)[2]


def roll_moment_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return _coefficients(geom.blade, lam, mu)[3]


def rotor_wrench(
    geom: RotorGeometry, rho: float, v_horiz: float, z_dot: float, omega: float, load: float
) -> tuple[float, float, float, float]:
    """Hub-frame loads of one rotor at shaft speed ``omega``, horizontal
    airspeed ``v_horiz`` and inertial vertical rate ``z_dot`` (z-up): the
    thrust along the shaft, the in-plane drag force, the shaft torque and the
    roll moment.  The load ``L`` that the blade model returns as thrust is
    the root of ``r(L) = C - k nu1(L) - L``, ``C`` the thrust at ``nu1 = 0``
    and ``k = sigma a rho A Omega R / 4``, found by Newton with the analytic
    slope ``-1 - k nu1'(L)`` from ``load``.  ``nu1`` is even in ``L`` and
    increasing for ``L > 0``, so if ``r(0) = C - k V > 0`` the root is the
    unique positive one, in ``[0, C]``; otherwise it lies in ``[-(a +
    sqrt(-r(0)))^2, 0]`` with ``a = k / sqrt(2 rho A)``, since ``nu1(L) <= V +
    sqrt(|L| / (2 rho A))``.  Steps that leave the bracket bisect it.
    """
    if not omega > 0.0:
        raise ZeroRotorSpeedError("omega_rotor must be > 0")
    blade, radius, area = geom.blade, geom.radius, geom.disk_area
    tip = omega * radius
    mu = v_horiz / tip
    pressure = rho * area * tip**2
    two_rho_a = 2.0 * rho * area
    four_rho_a, half_v2 = 2.0 * two_rho_a, 0.5 * v_horiz**2
    half_v4 = half_v2**2
    k = 0.25 * blade[0] * rho * area * tip
    c = _coefficients(blade, -z_dot / tip, mu)[0] * pressure
    r0 = c - k * v_horiz
    lo, hi = (0.0, c) if r0 > 0.0 else (-(k / math.sqrt(two_rho_a) + math.sqrt(-r0)) ** 2, 0.0)
    tol = 1e-12 * (hi - lo)
    load = min(max(load, lo), hi)
    for _ in range(_MAX_LOAD_ITERS):
        q = load / two_rho_a
        s = math.sqrt(half_v4 + q * q)
        nu1 = math.sqrt(half_v2 + s)
        r = c - k * nu1 - load
        if r == 0.0:
            break
        lo, hi = (load, hi) if r > 0.0 else (lo, load)
        # -r'(L) = 1 + k nu1'(L); nu1' is unbounded at V = L = 0
        drop = 1.0 + k * q / (four_rho_a * nu1 * s) if nu1 * s > 0.0 else 0.0
        new = load + r / drop if drop != 0.0 else load
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        step, load = abs(new - load), new
        if step <= tol:
            break
    else:
        raise NoConvergenceError(
            f"induced-velocity solve failed to converge (V={v_horiz!r}, "
            f"z_dot={z_dot!r}, tip speed={tip!r}, last load {load!r})"
        )
    lam = (induced_velocity(geom, rho, v_horiz, load) - z_dot) / tip
    c_t, c_h, c_q, c_r = _coefficients(blade, lam, mu)
    return c_t * pressure, c_h * pressure, c_q * pressure * radius, c_r * pressure * radius


def _hover_constants(geom: RotorGeometry, rho: float) -> tuple[float, float, float, float]:
    """``(2 rho A, 4 b, sigma a rho A, 2 b R)``: :func:`_hover_root`'s constants."""
    sa, *_, b = geom.blade
    if not b > 0.0:
        raise ScenarioValidationError([("theta_tw", "hover needs theta0/6 - theta_tw/8 > 0")])
    area = geom.disk_area
    return 2.0 * rho * area, 4.0 * b, sa * rho * area, 2.0 * b * geom.radius


def _hover_root(hover: tuple, thrust: float) -> float:
    if not thrust > 0.0:
        raise ScenarioValidationError([("thrust", "hover calibration needs thrust > 0")])
    two_rho_a, four_b, sa_rho_a, two_b_r = hover
    nu_q = 0.25 * math.sqrt(thrust / two_rho_a)
    return (nu_q + math.sqrt(nu_q**2 + four_b * thrust / sa_rho_a)) / two_b_r


def hover_rotor_speed(geom: RotorGeometry, thrust: float, rho: float) -> float:
    """Shaft speed delivering ``thrust`` in static hover (V = z_dot = 0); the
    calibration an ideal speed controller would apply.

    ``thrust = sigma a rho A [b x^2 - nu_h x / 4]``, with ``x = Omega R``,
    ``b = theta0/6 - theta_tw/8`` and ``nu_h = sqrt(thrust / (2 rho A))``, is
    quadratic in ``x``; this returns its positive root.
    """
    return _hover_root(_hover_constants(geom, rho), thrust)


class HoverCalibration:
    """Thrust-to-shaft-speed map of one scenario's rotors: per-rotor thrust
    saturates to the actuator range ``[HOVER_THRUST_MIN_FRAC, HOVER_THRUST_MAX_FRAC]
    x hover_thrust``, then the hover root, with its constants formed once."""

    def __init__(self, geom: RotorGeometry, rho: float, hover_thrust: float):
        self.hover = _hover_constants(geom, rho)
        self.thrust_range = (HOVER_THRUST_MIN_FRAC * hover_thrust,
                             HOVER_THRUST_MAX_FRAC * hover_thrust)

    def __call__(self, thrusts) -> list[tuple[float, float]]:
        """``(saturated thrust, shaft speed)`` of each commanded thrust."""
        (lo, hi), hover = self.thrust_range, self.hover
        return [((t := min(max(thrust, lo), hi)), _hover_root(hover, t)) for thrust in thrusts]
