"""Reference-signal generators for the tracking scenarios.

Euler angles appear only here: attitude references are specified as
quadratic-in-time 3-2-1 (yaw-pitch-roll) angle signals and converted to a
rotation matrix plus analytic body rates, so the controllers never see an
angle parameterisation.  Position references are circle/helix-style
sinusoids with analytic velocity and acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .attitude_control import AttitudeReference
from .errors import ScenarioValidationError
from .so3 import Array

GIMBAL_TOL = 1e-6


@dataclass
class AnglePolynomial:
    """Angle signal ``a0 + a1 t + a2 t^2`` (rad)."""

    a0: float = 0.0
    a1: float = 0.0
    a2: float = 0.0

    def eval(self, t):
        return self.a0 + self.a1 * t + self.a2 * t * t, self.a1 + 2.0 * self.a2 * t, 2.0 * self.a2


@dataclass
class Euler321Coeffs:
    """Quadratic coefficients for the roll, pitch, and yaw signals."""

    roll: AnglePolynomial = field(default_factory=AnglePolynomial)
    pitch: AnglePolynomial = field(default_factory=AnglePolynomial)
    yaw: AnglePolynomial = field(default_factory=AnglePolynomial)


def _euler_321_raw(times, coeffs: Euler321Coeffs):
    """Attitude ``R_d`` (row-major), body rate and body acceleration of the
    signal at each time of ``times``, yielded as three tuples per time when
    the caller draws it, so a long run holds only the samples it uses.  The
    angle polynomials are :meth:`AnglePolynomial.eval`, inlined."""
    (r0, r1, r2), (p0, p1, p2), (y0, y1, y2) = (
        (a.a0, a.a1, a.a2) for a in (coeffs.roll, coeffs.pitch, coeffs.yaw))
    ddroll, ddpitch, ddyaw = 2.0 * r2, 2.0 * p2, 2.0 * y2
    for t in times:
        roll, droll = r0 + r1 * t + r2 * t * t, r1 + 2.0 * r2 * t
        pitch, dpitch = p0 + p1 * t + p2 * t * t, p1 + 2.0 * p2 * t
        yaw, dyaw = y0 + y1 * t + y2 * t * t, y1 + 2.0 * y2 * t
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        yield ((cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr,
                sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr,
                -sp, cp * sr, cp * cr),
               (droll - dyaw * sp, dpitch * cr + dyaw * cp * sr, -dpitch * sr + dyaw * cp * cr),
               (ddroll - ddyaw * sp - dyaw * dpitch * cp,
                ddpitch * cr - dpitch * droll * sr + ddyaw * cp * sr
                + dyaw * (-dpitch * sp * sr + droll * cp * cr),
                -ddpitch * sr - dpitch * droll * cr + ddyaw * cp * cr
                + dyaw * (-dpitch * sp * cr - droll * cp * sr)))


def euler_321_reference(t: float, coeffs: Euler321Coeffs) -> AttitudeReference:
    """Attitude reference at time ``t`` from the 3-2-1 angle signals."""
    import numpy as np
    r_d, omega_d, domega_d = next(_euler_321_raw((float(t),), coeffs))
    return AttitudeReference(np.reshape(r_d, (3, 3)), omega_d, domega_d)


def gimbal_proximity(t, coeffs: Euler321Coeffs, tol: float = GIMBAL_TOL):
    """True when the pitch signal is within ``tol`` of +-90 degrees.

    ``t`` may be a scalar or an array of times (elementwise result).  The
    reference itself stays well defined there (nothing is inverted);
    runners record this as a diagnostic, never as an error.
    """
    pitch = coeffs.pitch.eval(t)[0]
    return abs(abs((pitch + math.pi / 2) % math.pi - math.pi / 2) - math.pi / 2) < tol


@dataclass
class TrajectoryReference:
    """Position reference sample: desired position, velocity, acceleration,
    and the unit heading hint that pins the free yaw degree of freedom.
    ``r_d``, ``v_d`` and ``a_d`` have shape ``(3,)``, or ``(..., 3)`` for the
    samples at an array of times."""

    r_d: Array
    v_d: Array
    a_d: Array
    b_1d: Array

    def __post_init__(self):
        import numpy as np
        for name in ("r_d", "v_d", "a_d", "b_1d"):
            v = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, v)
            shape = (3,) if name == "b_1d" else self.r_d.shape
            if v.shape != shape or shape[-1:] != (3,) or not np.isfinite(v).all():
                raise ScenarioValidationError([(name, "must be a finite 3-vector")])
        if abs(np.linalg.norm(self.b_1d) - 1.0) > 1e-9:
            raise ScenarioValidationError([("b_1d", "must be a unit vector")])


@dataclass
class CircleCoeffs:
    """Sinusoid ``r_d = A (sin wt, cos wt, sin wt)`` with analytic derivatives."""

    amplitude: float = 4.0
    omega: float = 0.5
    b_1d: tuple[float, float, float] = (1.0, 0.0, 0.0)


def circle_reference(t, coeffs: CircleCoeffs) -> TrajectoryReference:
    """The circle's sample at time ``t``, or at each entry of an array of
    times (fields of shape ``t.shape + (3,)``), in one vectorised call."""
    import numpy as np
    a, w = coeffs.amplitude, coeffs.omega
    s, c = np.sin(w * t), np.cos(w * t)
    return TrajectoryReference(
        r_d=a * np.stack([s, c, s], axis=-1),
        v_d=a * w * np.stack([c, -s, c], axis=-1),
        a_d=-a * w * w * np.stack([s, c, s], axis=-1),
        b_1d=np.asarray(coeffs.b_1d, dtype=float),
    )
