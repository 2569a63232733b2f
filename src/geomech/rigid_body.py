"""Continuous-time rigid-body models and a classical RK4 baseline.

Conventions used throughout the library:

* inertial frame is z-up; gravity is ``(0, 0, -g)`` with ``g = 9.81``
* attitude matrices map body to inertial coordinates
* angular velocities, moments, and inertia tensors live in the body frame

The RK4 steppers re-project the attitude onto SO(3) after every step so
that long-horizon energy drift (the behaviour they are used to baseline)
is not confounded with orthogonality drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DivergenceError, InvalidRotationError, ScenarioValidationError
from .so3 import (Array, _EYE, _as_rows, _check_step_angle, _det, _fast_polar, _floats,
                  _rotation_rows)

GRAVITY = 9.81


class _Rows:
    """A field held as row-major Python floats in ``<name>_rows`` (lower case),
    which ``__post_init__`` checks, and read as a new numpy array of ``shape``."""

    def __init__(self, shape: tuple, default: tuple | None = None):
        self.shape, self.default = shape, default

    def __set_name__(self, owner, name: str):
        self.rows = name.lower() + "_rows"

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.default is None:
                raise AttributeError(self.rows)  # a field without a default
            return self.default
        import numpy as np
        return np.reshape(getattr(obj, self.rows), self.shape)

    def __set__(self, obj, value):
        setattr(obj, self.rows, value)


def _require_finite_vec3(v, name: str) -> tuple:
    return _as_rows(v, 3, ScenarioValidationError([(name, "must be a finite 3-vector")]))


def _eigvalsh3(m) -> tuple[float, float, float]:
    """Ascending eigenvalues of the symmetric row-major 3x3 ``m`` (its upper
    triangle is read) by the trigonometric closed form, on ``m`` scaled to
    unit size so that no product overflows."""
    a, b, c, _, d, f, _, _, g = m
    if b == c == f == 0.0:
        return tuple(sorted((a, d, g)))
    s = max(map(abs, (a, b, c, d, f, g)))
    a, b, c, d, f, g = a / s, b / s, c / s, d / s, f / s, g / s
    q = (a + d + g) / 3.0
    a, d, g = a - q, d - q, g - q
    p = math.sqrt((a * a + d * d + g * g + 2.0 * (b * b + c * c + f * f)) / 6.0)
    det = a * (d * g - f * f) - b * (b * g - f * c) + c * (b * f - d * c)
    phi = math.acos(max(-1.0, min(1.0, det / (2.0 * p * p * p)))) / 3.0 if p else math.pi / 6
    hi, lo = q + 2.0 * p * math.cos(phi), q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return s * lo, s * (3.0 * q - hi - lo), s * hi


def _inverse3(m) -> tuple:
    """Inverse of a row-major 3x3 by Gauss-Jordan elimination with partial
    pivoting; a diagonal ``m`` gives the exact reciprocals."""
    rows = [[*m[3 * i:3 * i + 3], *_EYE[3 * i:3 * i + 3]] for i in range(3)]
    for c in range(3):
        p = max(range(c, 3), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        rows = [row if r == c else [x - row[c] * y for x, y in zip(row, rows[c])]
                for r, row in enumerate(rows)]
    return tuple(x for row in rows for x in row[3:])


@dataclass
class InertiaTensor:
    """Body-frame inertia tensor (kg m^2), held as ``j_rows`` and
    ``j_inv_rows`` (row-major floats); ``j`` and ``j_inv`` read as arrays.

    Construction refuses matrices that are not symmetric positive definite
    or that violate the triangle inequalities among the principal moments
    (every physical mass distribution satisfies ``l_i + l_j >= l_k``).
    """

    j: Array = _Rows((3, 3))
    j_inv = _Rows((3, 3))  # not a field: set from j

    def __post_init__(self):
        j = _as_rows(self.j_rows, 9,
                     ScenarioValidationError([("inertia", "must be a finite 3x3 matrix")]))
        if max(abs(j[1] - j[3]), abs(j[2] - j[6]), abs(j[5] - j[7])) > 1e-12:
            raise ScenarioValidationError([("inertia", "must be symmetric within 1e-12")])
        lams = _eigvalsh3(j)
        if not lams[0] > 0.0:
            raise ScenarioValidationError(
                [("inertia", f"eigenvalues must be positive, got {list(lams)}")]
            )
        if lams[2] - lams[1] - lams[0] > 1e-9:  # l0 + l1 < l2, free of overflow
            raise ScenarioValidationError(
                [("inertia", f"principal moments {list(lams)} violate the triangle inequality")]
            )
        self.j_rows, self.j_inv_rows = j, _inverse3(j)
        if not all(map(math.isfinite, self.j_inv_rows)):
            raise ScenarioValidationError([("inertia", "inverse is not finite")])

    @classmethod
    def from_diag(cls, a: float, b: float, c: float) -> "InertiaTensor":
        return cls((float(a), 0.0, 0.0, 0.0, float(b), 0.0, 0.0, 0.0, float(c)))


@dataclass
class RigidBodyState:
    """Attitude ``T`` (body -> inertial) and body angular velocity (rad/s),
    held as ``t_rows`` (row-major) and ``omega_rows``, read as arrays."""

    T: Array = _Rows((3, 3))
    omega: Array = _Rows((3,))

    def __post_init__(self):
        self.t_rows = _rotation_rows(_as_rows(self.t_rows, 9, InvalidRotationError(
            "expected a finite 3x3 matrix")))
        self.omega_rows = _require_finite_vec3(self.omega_rows, "omega")


@dataclass
class QuadrotorParams:
    """Vehicle constants: mass (kg), inertia, rotor arm length (m), gravity."""

    mass: float
    inertia: InertiaTensor
    arm_length: float
    g: float = GRAVITY

    def __post_init__(self):
        violations = []
        if not self.mass > 0.0:
            violations.append(("mass", "must be > 0"))
        if not self.arm_length > 0.0:
            violations.append(("arm_length", "must be > 0"))
        if not self.g > 0.0:
            violations.append(("g", "must be > 0"))
        if violations:
            raise ScenarioValidationError(violations)


def _rates(tm, w, m, jj, jinv) -> tuple[tuple, tuple]:
    """The rotational law of both plants on Python floats: ``Tdot = T hat(w)``
    and ``J wdot = M - w x J w``.  ``tm``, ``jj`` (``J``) and ``jinv``
    (``J^-1``) are row-major 9-sequences, ``w`` and ``m`` 3-sequences."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = tm
    w0, w1, w2 = w
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = jj
    i0, i1, i2, i3, i4, i5, i6, i7, i8 = jinv
    h0, h1, h2 = (j0 * w0 + j1 * w1 + j2 * w2, j3 * w0 + j4 * w1 + j5 * w2,
                  j6 * w0 + j7 * w1 + j8 * w2)
    m0, m1, m2 = m
    m0, m1, m2 = m0 - (w1 * h2 - w2 * h1), m1 - (w2 * h0 - w0 * h2), m2 - (w0 * h1 - w1 * h0)
    # row i of T hat(w) is (row i of T) x w
    return (
        (t1 * w2 - t2 * w1, t2 * w0 - t0 * w2, t0 * w1 - t1 * w0,
         t4 * w2 - t5 * w1, t5 * w0 - t3 * w2, t3 * w1 - t4 * w0,
         t7 * w2 - t8 * w1, t8 * w0 - t6 * w2, t6 * w1 - t7 * w0),
        (i0 * m0 + i1 * m1 + i2 * m2, i3 * m0 + i4 * m1 + i5 * m2, i6 * m0 + i7 * m1 + i8 * m2),
    )


def _energy_momentum(tm, w, jj) -> tuple[float, float, float, float]:
    """Kinetic energy ``0.5 w . J w`` and spatial momentum ``T J w`` of a
    row-major ``T`` and body rate ``w``, given ``J`` row-major."""
    w0, w1, w2 = w
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = jj
    h0, h1, h2 = (j0 * w0 + j1 * w1 + j2 * w2, j3 * w0 + j4 * w1 + j5 * w2,
                  j6 * w0 + j7 * w1 + j8 * w2)
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = tm
    return (0.5 * (w0 * h0 + w1 * h1 + w2 * h2), t0 * h0 + t1 * h1 + t2 * h2,
            t3 * h0 + t4 * h1 + t5 * h2, t6 * h0 + t7 * h1 + t8 * h2)


def _axpy(x, a: float, y) -> list[float]:
    """``x + a y`` entry by entry."""
    return [xi + a * yi for xi, yi in zip(x, y)]


def _rk4_sum(x, h: float, k1, k2, k3, k4) -> list[float]:
    """``x + h (k1 + 2 k2 + 2 k3 + k4)`` entry by entry."""
    return [xi + h * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _require_finite(state: dict) -> None:
    """``DivergenceError`` naming each part of a stepped ``state`` (name to
    floats) with an entry that overflowed to ``inf`` or ``nan``."""
    bad = [name for name, x in state.items() if not all(map(math.isfinite, x))]
    if bad:
        raise DivergenceError(f"state diverged: non-finite {', '.join(bad)}")


def _attitude_rk4_core(tm, w, jj, jinv, torque_fn, t: float, dt: float, q1=None):
    """One RK4 step of the attitude plant on Python floats (the hot path).

    ``tm`` (``T``, row-major), ``jj`` and ``jinv`` are 9-sequences, ``w`` a
    3-sequence; ``torque_fn(t, tm, w)`` returns a 3-sequence.  ``q1``, when
    given, is the stage-1 torque ``torque_fn(t, tm, w)`` that the caller has
    already evaluated; stage 1 then takes ``tm`` as it is, which must be a
    rotation (a previous step's projected result).  Every later stage
    attitude drifts off SO(3) at O(dt^2) and is projected before it reaches
    the torque law, whose domain is the group itself.  Returns the projected
    ``T`` and ``w``.  Raises ``DivergenceError`` when ``dt |w|``, the
    rotation of the step, reaches pi (``so3._check_step_angle``) or the
    stepped state is not finite.
    """
    w0, w1, w2 = w
    _check_step_angle((w0 * w0 + w1 * w1 + w2 * w2) * (dt * dt), explicit=True)
    s = tm
    if q1 is None:
        s = _fast_polar(tm)
        q1 = torque_fn(t, s, w)
    stages = [_rates(s, w, q1, jj, jinv)]
    for a in (0.5 * dt, 0.5 * dt, dt):
        kt, kw = stages[-1]
        s, v = _fast_polar(_axpy(tm, a, kt)), _axpy(w, a, kw)
        stages.append(_rates(s, v, torque_fn(t + a, s, v), jj, jinv))
    kt, kw = zip(*stages)
    t_new, w_new = _rk4_sum(tm, dt / 6.0, *kt), _rk4_sum(w, dt / 6.0, *kw)
    _require_finite({"T": t_new, "omega": w_new})
    return _fast_polar(t_new), w_new


def rk4_attitude_step(
    state: RigidBodyState,
    inertia: InertiaTensor,
    torque_fn: Callable[[float, Array, Array], Array],
    t: float,
    dt: float,
) -> RigidBodyState:
    """RK4 attitude step with per-stage torque evaluation and SO(3) re-projection.

    ``torque_fn(t, T, w)`` takes and returns arrays.
    """
    import numpy as np

    def torque(ti, tm, wi):
        return _floats(torque_fn(ti, np.reshape(tm, (3, 3)), np.array(wi)))

    t_new, w_new = _attitude_rk4_core(state.t_rows, state.omega_rows, inertia.j_rows,
                                      inertia.j_inv_rows, torque, t, dt)
    return RigidBodyState(t_new, tuple(w_new))


def rk4_quadrotor_step(x, params: QuadrotorParams, f_body, m_body, dt: float):
    """One RK4 step of the quadrotor on Python floats with the body wrench
    ``(f_body, m_body)`` (3-sequences) held over the step (ZOH).

    ``x = (r, v, R, Omega)`` with ``R`` row-major 9 floats and the rest
    3-sequences; the stepped state is returned in the same form.  The
    rotational half is :func:`_rates`, the attitude plant's law.  The
    position derivative is the stage velocity, so stage positions are never
    formed.  Raises ``DivergenceError`` when the stepped state has a
    non-finite entry or the stepped attitude has ``det <= 0`` before its
    projection onto SO(3).
    """
    r, v, R, Om = x
    g, mass = params.g, params.mass
    jj, jinv = params.inertia.j_rows, params.inertia.j_inv_rows
    f0, f1, f2 = f_body

    def deriv(Ri, Oi):
        # m vdot = m G + R f_body
        acc = [(Ri[i] * f0 + Ri[i + 1] * f1 + Ri[i + 2] * f2) / mass for i in (0, 3, 6)]
        acc[2] -= g
        return (acc, *_rates(Ri, Oi, m_body, jj, jinv))

    stages, vel = [deriv(R, Om)], [v]
    for a in (0.5 * dt, 0.5 * dt, dt):
        kv, kR, kO = stages[-1]
        vel.append(_axpy(v, a, kv))
        stages.append(deriv(_axpy(R, a, kR), _axpy(Om, a, kO)))
    kv, kR, kO = zip(*stages)
    sixth = dt / 6.0
    r_new, v_new = _rk4_sum(r, sixth, *vel), _rk4_sum(v, sixth, *kv)
    R_new, O_new = _rk4_sum(R, sixth, *kR), _rk4_sum(Om, sixth, *kO)
    _require_finite({"r": r_new, "v": v_new, "R": R_new, "Omega": O_new})
    det = _det(R_new)
    if not det > 0.0:
        raise DivergenceError(
            f"state diverged: attitude determinant {det:.3e} is not positive "
            "before projection"
        )
    return r_new, v_new, _fast_polar(R_new), O_new
