"""Reference-signal generators for the tracking scenarios.

Euler angles appear only here: attitude references are specified as
quadratic-in-time 3-2-1 (yaw-pitch-roll) angle signals and converted to a
rotation matrix plus analytic body rates, so the controllers never see an
angle parameterisation.  Position references are circle/helix-style
sinusoids with analytic velocity and acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        return (
            self.a0 + self.a1 * t + self.a2 * t * t,
            self.a1 + 2.0 * self.a2 * t,
            2.0 * self.a2 * np.ones_like(t) if np.ndim(t) else 2.0 * self.a2,
        )


@dataclass
class Euler321Coeffs:
    """Quadratic coefficients for the roll, pitch, and yaw signals."""

    roll: AnglePolynomial = field(default_factory=AnglePolynomial)
    pitch: AnglePolynomial = field(default_factory=AnglePolynomial)
    yaw: AnglePolynomial = field(default_factory=AnglePolynomial)


def _euler_321_raw(t, coeffs: Euler321Coeffs):
    """Vectorised attitude, body rate, and body acceleration of the signal.

    ``t`` may be a scalar or an array of shape (N,); returns ``R`` with shape
    (..., 3, 3) and the rates with shape (..., 3).
    """
    roll, droll, ddroll = coeffs.roll.eval(t)
    pitch, dpitch, ddpitch = coeffs.pitch.eval(t)
    yaw, dyaw, ddyaw = coeffs.yaw.eval(t)

    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)

    shape = np.shape(t) + (3, 3)
    r = np.empty(shape)
    r[..., 0, 0] = cy * cp
    r[..., 0, 1] = cy * sp * sr - sy * cr
    r[..., 0, 2] = cy * sp * cr + sy * sr
    r[..., 1, 0] = sy * cp
    r[..., 1, 1] = sy * sp * sr + cy * cr
    r[..., 1, 2] = sy * sp * cr - cy * sr
    r[..., 2, 0] = -sp
    r[..., 2, 1] = cp * sr
    r[..., 2, 2] = cp * cr

    omega = np.empty(np.shape(t) + (3,))
    omega[..., 0] = droll - dyaw * sp
    omega[..., 1] = dpitch * cr + dyaw * cp * sr
    omega[..., 2] = -dpitch * sr + dyaw * cp * cr

    omega_dot = np.empty(np.shape(t) + (3,))
    omega_dot[..., 0] = ddroll - ddyaw * sp - dyaw * dpitch * cp
    omega_dot[..., 1] = (
        ddpitch * cr
        - dpitch * droll * sr
        + ddyaw * cp * sr
        + dyaw * (-dpitch * sp * sr + droll * cp * cr)
    )
    omega_dot[..., 2] = (
        -ddpitch * sr
        - dpitch * droll * cr
        + ddyaw * cp * cr
        + dyaw * (-dpitch * sp * cr - droll * cp * sr)
    )
    return r, omega, omega_dot


def euler_321_reference(t: float, coeffs: Euler321Coeffs) -> AttitudeReference:
    """Attitude reference at time ``t`` from the 3-2-1 angle signals."""
    r, omega, omega_dot = _euler_321_raw(float(t), coeffs)
    return AttitudeReference(r, omega, omega_dot)


def gimbal_proximity(t, coeffs: Euler321Coeffs, tol: float = GIMBAL_TOL):
    """True when the pitch signal is within ``tol`` of +-90 degrees.

    ``t`` may be a scalar or an array of times (elementwise result).  The
    reference itself stays well defined there (nothing is inverted);
    runners record this as a diagnostic, never as an error.
    """
    pitch = coeffs.pitch.eval(t)[0]
    return abs(abs(np.remainder(pitch + np.pi / 2, np.pi) - np.pi / 2) - np.pi / 2) < tol


@dataclass
class TrajectoryReference:
    """Position reference sample: desired position, velocity, acceleration,
    and the unit heading hint that pins the free yaw degree of freedom."""

    r_d: Array
    v_d: Array
    a_d: Array
    b_1d: Array

    def __post_init__(self):
        self.r_d = np.asarray(self.r_d, dtype=float)
        self.v_d = np.asarray(self.v_d, dtype=float)
        self.a_d = np.asarray(self.a_d, dtype=float)
        self.b_1d = np.asarray(self.b_1d, dtype=float)
        for name in ("r_d", "v_d", "a_d", "b_1d"):
            v = getattr(self, name)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ScenarioValidationError([(name, "must be a finite 3-vector")])
        if abs(np.linalg.norm(self.b_1d) - 1.0) > 1e-9:
            raise ScenarioValidationError([("b_1d", "must be a unit vector")])


@dataclass
class CircleCoeffs:
    """Sinusoid ``r_d = A (sin wt, cos wt, sin wt)`` with analytic derivatives."""

    amplitude: float = 4.0
    omega: float = 0.5
    b_1d: tuple[float, float, float] = (1.0, 0.0, 0.0)


def circle_reference(t: float, coeffs: CircleCoeffs) -> TrajectoryReference:
    a, w = coeffs.amplitude, coeffs.omega
    s, c = np.sin(w * t), np.cos(w * t)
    return TrajectoryReference(
        r_d=a * np.array([s, c, s]),
        v_d=a * w * np.array([c, -s, c]),
        a_d=-a * w * w * np.array([s, c, s]),
        b_1d=np.asarray(coeffs.b_1d, dtype=float),
    )
