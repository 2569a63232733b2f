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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, ScenarioValidationError
from .so3 import Array, _check_step_angle, polar_project, require_rotation

GRAVITY = 9.81


def _require_finite_vec3(v, name: str) -> Array:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ScenarioValidationError([(name, "must be a finite 3-vector")])
    return v


@dataclass
class InertiaTensor:
    """Body-frame inertia tensor (kg m^2).

    Construction refuses matrices that are not symmetric positive definite
    or that violate the triangle inequalities among the principal moments
    (every physical mass distribution satisfies ``l_i + l_j >= l_k``).
    """

    j: Array
    j_inv: Array = field(init=False, repr=False)

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        if j.shape != (3, 3) or not np.all(np.isfinite(j)):
            raise ScenarioValidationError([("inertia", "must be a finite 3x3 matrix")])
        if np.max(np.abs(j - j.T)) > 1e-12:
            raise ScenarioValidationError([("inertia", "must be symmetric within 1e-12")])
        lams = np.linalg.eigvalsh(j)
        if lams[0] <= 0.0:
            raise ScenarioValidationError(
                [("inertia", f"eigenvalues must be positive, got {lams}")]
            )
        if lams[2] - lams[1] - lams[0] > 1e-9:  # l0 + l1 < l2, free of overflow
            raise ScenarioValidationError(
                [("inertia", f"principal moments {lams} violate the triangle inequality")]
            )
        self.j = j
        self.j_inv = np.linalg.inv(j)
        if not np.isfinite(self.j_inv).all():
            raise ScenarioValidationError([("inertia", "inverse is not finite")])

    @classmethod
    def from_diag(cls, a: float, b: float, c: float) -> "InertiaTensor":
        return cls(np.diag([float(a), float(b), float(c)]))


@dataclass
class RigidBodyState:
    """Attitude ``T`` (body -> inertial) and body angular velocity (rad/s)."""

    T: Array
    omega: Array

    def __post_init__(self):
        self.T = require_rotation(self.T)
        self.omega = _require_finite_vec3(self.omega, "omega")


@dataclass
class QuadrotorState:
    """Inertial position/velocity plus attitude and body angular velocity."""

    r: Array
    v: Array
    R: Array
    Omega: Array

    def __post_init__(self):
        self.r = _require_finite_vec3(self.r, "r")
        self.v = _require_finite_vec3(self.v, "v")
        self.R = require_rotation(self.R)
        self.Omega = _require_finite_vec3(self.Omega, "Omega")


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

    @property
    def gravity_vector(self) -> Array:
        return np.array([0.0, 0.0, -self.g])


def _floats(a) -> list[float]:
    """``a`` flattened row-major to Python floats: the float kernels' input."""
    return np.asarray(a, dtype=float).ravel().tolist()


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


def attitude_rhs(
    state: RigidBodyState,
    inertia: InertiaTensor,
    moment: Array,
) -> tuple[Array, Array]:
    """Rotational equations of motion under the body moment ``moment``.

    A potential moment (none is built in) is added to ``moment`` by the caller.
    """
    t_dot, w_dot = _rates(_floats(state.T), _floats(state.omega), _floats(moment),
                          _floats(inertia.j), _floats(inertia.j_inv))
    return np.reshape(t_dot, (3, 3)), np.array(w_dot)


def quadrotor_rhs(
    state: QuadrotorState,
    params: QuadrotorParams,
    f_body: Array,
    m_body: Array,
) -> tuple[Array, Array, Array, Array]:
    """Quadrotor equations of motion under the body wrench ``(f_body, m_body)``.

    Translational dynamics: ``m vdot = m G + R f_body``; ideal actuation is
    ``f_body = (0, 0, thrust)``.
    """
    v_dot = params.gravity_vector + (state.R @ np.asarray(f_body, dtype=float)) / params.mass
    R_dot, Omega_dot = _rates(_floats(state.R), _floats(state.Omega), _floats(m_body),
                              _floats(params.inertia.j), _floats(params.inertia.j_inv))
    return state.v, v_dot, np.reshape(R_dot, (3, 3)), np.array(Omega_dot)


def kinetic_energy(state: RigidBodyState, inertia: InertiaTensor) -> float:
    """Rotational kinetic energy ``0.5 omega . J omega`` (J)."""
    return 0.5 * float(state.omega @ (inertia.j @ state.omega))


def spatial_momentum(state: RigidBodyState, inertia: InertiaTensor) -> Array:
    """Inertial-frame angular momentum ``T J omega``; conserved when M = 0."""
    return state.T @ (inertia.j @ state.omega)


def energy_momentum_rows(T: Array, w: Array, inertia: InertiaTensor) -> tuple[Array, Array]:
    """:func:`kinetic_energy` and :func:`spatial_momentum` of each row of a
    trajectory: attitudes ``T`` (``(n, 3, 3)``, or ``(n, 9)`` row-major) and
    body rates ``w`` (``(n, 3)``)."""
    jw = w @ inertia.j.T
    h = 0.5 * np.einsum("ni,ni->n", w, jw)
    return h, np.einsum("nij,nj->ni", T.reshape(-1, 3, 3), jw)


def _gram(m) -> tuple:
    """Entries 00, 01, 02, 11, 12, 22 of the symmetric ``m^T m``."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return (m0 * m0 + m3 * m3 + m6 * m6, m0 * m1 + m3 * m4 + m6 * m7, m0 * m2 + m3 * m5 + m6 * m8,
            m1 * m1 + m4 * m4 + m7 * m7, m1 * m2 + m4 * m5 + m7 * m8, m2 * m2 + m5 * m5 + m8 * m8)


def _times_sym(m, s0, s1, s2, s4, s5, s8) -> tuple:
    """``m S`` for the symmetric ``S`` of entries 00, 01, 02, 11, 12, 22."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return (m0 * s0 + m1 * s1 + m2 * s2, m0 * s1 + m1 * s4 + m2 * s5, m0 * s2 + m1 * s5 + m2 * s8,
            m3 * s0 + m4 * s1 + m5 * s2, m3 * s1 + m4 * s4 + m5 * s5, m3 * s2 + m4 * s5 + m5 * s8,
            m6 * s0 + m7 * s1 + m8 * s2, m6 * s1 + m7 * s4 + m8 * s5, m6 * s2 + m7 * s5 + m8 * s8)


def _fast_polar(m) -> tuple:
    """Polar factor of a near-rotation (row-major 9 floats) via two
    Newton-Schulz sweeps.

    Agrees with :func:`geomech.so3.polar_project` to machine precision for the
    small orthogonality defects RK4 produces in one step; falls back to the
    SVD route when an entry of ``e = m^T m - I`` exceeds 1e-4.  Raises
    ``DivergenceError`` when ``e`` is not finite.
    """
    a, b, c, d, f, g = _gram(m)
    a, d, g = a - 1.0, d - 1.0, g - 1.0
    lim = 1e-4
    if not (-lim <= a <= lim and -lim <= b <= lim and -lim <= c <= lim
            and -lim <= d <= lim and -lim <= f <= lim and -lim <= g <= lim):
        if not math.isfinite(a + b + c + d + f + g):
            raise DivergenceError("state diverged: attitude entries overflow")
        return tuple(polar_project(np.reshape(m, (3, 3))).ravel().tolist())
    x = _times_sym(  # m (I - e/2 + 3/8 e^2)
        m, 1.0 - 0.5 * a + 0.375 * (a * a + b * b + c * c),
        -0.5 * b + 0.375 * (a * b + b * d + c * f), -0.5 * c + 0.375 * (a * c + b * f + c * g),
        1.0 - 0.5 * d + 0.375 * (b * b + d * d + f * f), -0.5 * f + 0.375 * (b * c + d * f + f * g),
        1.0 - 0.5 * g + 0.375 * (c * c + f * f + g * g))
    a, b, c, d, f, g = _gram(x)  # x (I - (x^T x - I)/2)
    return _times_sym(x, 1.5 - 0.5 * a, -0.5 * b, -0.5 * c, 1.5 - 0.5 * d, -0.5 * f, 1.5 - 0.5 * g)


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
    def torque(ti, tm, wi):
        return _floats(torque_fn(ti, np.reshape(tm, (3, 3)), np.array(wi)))

    t_new, w_new = _attitude_rk4_core(_floats(state.T), _floats(state.omega),
                                      _floats(inertia.j), _floats(inertia.j_inv), torque, t, dt)
    return RigidBodyState(np.reshape(t_new, (3, 3)), np.array(w_new))


def _quadrotor_rk4_core(r, v, R, Om, params: QuadrotorParams, f_body, m_body, dt: float):
    """RK4 quadrotor step on Python floats with the body wrench held over the
    step (ZOH): ``R`` row-major 9 floats, the rest 3-sequences.

    The rotational half is :func:`_rates`, the attitude plant's law.  The
    position derivative is the stage velocity, so stage positions are never
    formed.  Raises ``DivergenceError`` when the stepped state has a
    non-finite entry or the stepped attitude has ``det <= 0`` before its
    projection onto SO(3).
    """
    g, mass = params.g, params.mass
    jj, jinv = _floats(params.inertia.j), _floats(params.inertia.j_inv)
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
    det = np.linalg.det(np.reshape(R_new, (3, 3)))
    if not det > 0.0:
        raise DivergenceError(
            f"state diverged: attitude determinant {det:.3e} is not positive "
            "before projection"
        )
    return r_new, v_new, _fast_polar(R_new), O_new


def rk4_quadrotor_step(
    state: QuadrotorState,
    params: QuadrotorParams,
    f_body: Array,
    m_body: Array,
    dt: float,
) -> QuadrotorState:
    """One RK4 step of the quadrotor with the body wrench held over the step."""
    r, v, R, Om = _quadrotor_rk4_core(
        _floats(state.r), _floats(state.v), _floats(state.R), _floats(state.Omega), params,
        _floats(f_body), _floats(m_body), dt,
    )
    return QuadrotorState(np.array(r), np.array(v), np.reshape(R, (3, 3)), np.array(Om))
