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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, ScenarioValidationError
from .so3 import Array, _check_step_angle, cross3, hat, polar_project, require_rotation

GRAVITY = 9.81

_EYE3 = np.eye(3)


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


def _rates(R: Array, Om: Array, m_body: Array, jj: Array, jinv: Array) -> tuple[Array, Array]:
    """The rotational law of both plants: ``Rdot = R hat(Om)`` and
    ``J Omdot = M - Om x J Om`` (``jj = J``, ``jinv = J^-1``)."""
    return R @ hat(Om), jinv @ (m_body - cross3(Om, jj @ Om))


def attitude_rhs(
    state: RigidBodyState,
    inertia: InertiaTensor,
    moment: Array,
) -> tuple[Array, Array]:
    """Rotational equations of motion under the body moment ``moment``.

    A potential moment (none is built in) is added to ``moment`` by the caller.
    """
    m = np.asarray(moment, dtype=float)
    return _rates(state.T, state.omega, m, inertia.j, inertia.j_inv)


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
    f_body = np.asarray(f_body, dtype=float)
    m_body = np.asarray(m_body, dtype=float)
    v_dot = params.gravity_vector + (state.R @ f_body) / params.mass
    jj = params.inertia
    R_dot, Omega_dot = _rates(state.R, state.Omega, m_body, jj.j, jj.j_inv)
    return state.v, v_dot, R_dot, Omega_dot


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


def rk4_step(rhs: Callable[[float, Array], Array], y: Array, t: float, dt: float) -> Array:
    """One classical Runge-Kutta step for a flat state vector."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _fast_polar(m: Array) -> Array:
    """Polar factor for a near-rotation matrix via two Newton-Schulz sweeps.

    Agrees with :func:`geomech.so3.polar_project` to machine precision for the
    small orthogonality defects RK4 produces in one step; falls back to the
    SVD route otherwise.
    """
    e = m.T @ m - _EYE3
    if np.abs(e).max() > 1e-4:
        return polar_project(m)
    x = m @ (_EYE3 - 0.5 * e + 0.375 * (e @ e))
    e = x.T @ x - _EYE3
    return x @ (_EYE3 - 0.5 * e)


TorqueFn = Callable[[float, Array, Array], Array]


def _attitude_rk4_core(
    t_mat: Array,
    w: Array,
    inertia: InertiaTensor,
    torque_fn: TorqueFn,
    t: float,
    dt: float,
    q1: Array | None = None,
) -> tuple[Array, Array]:
    """Raw-array RK4 stage loop for the closed attitude loop (hot path).

    ``q1``, when given, is the stage-1 torque ``torque_fn(t, t_mat, w)``
    that the caller has already evaluated; stage 1 then takes ``t_mat`` as
    it is, which must be a rotation (a previous step's projected result).
    Raises ``DivergenceError`` when ``dt |w|``, the rotation of the step,
    reaches pi (``so3._check_step_angle``).
    """
    _check_step_angle(float(w @ w) * (dt * dt), explicit=True)
    jj, jinv = inertia.j, inertia.j_inv

    def deriv(ti, tm, wi, q=None):
        if q is None:
            # stage attitudes drift off SO(3) at O(dt^2); project before
            # handing them to the torque law, whose domain is the group itself
            tm = _fast_polar(tm)
            q = torque_fn(ti, tm, wi)
        return _rates(tm, wi, q, jj, jinv)

    k1t, k1w = deriv(t, t_mat, w, q1)
    k2t, k2w = deriv(t + 0.5 * dt, t_mat + 0.5 * dt * k1t, w + 0.5 * dt * k1w)
    k3t, k3w = deriv(t + 0.5 * dt, t_mat + 0.5 * dt * k2t, w + 0.5 * dt * k2w)
    k4t, k4w = deriv(t + dt, t_mat + dt * k3t, w + dt * k3w)
    t_new = t_mat + (dt / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
    w_new = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return _fast_polar(t_new), w_new


def rk4_attitude_step(
    state: RigidBodyState,
    inertia: InertiaTensor,
    torque_fn: TorqueFn,
    t: float,
    dt: float,
) -> RigidBodyState:
    """RK4 attitude step with per-stage torque evaluation and SO(3) re-projection."""
    t_new, w_new = _attitude_rk4_core(state.T, state.omega, inertia, torque_fn, t, dt)
    return RigidBodyState(t_new, w_new)


def _quadrotor_rk4_core(
    r: Array,
    v: Array,
    R: Array,
    Om: Array,
    params: QuadrotorParams,
    f_body: Array,
    m_body: Array,
    dt: float,
) -> tuple[Array, Array, Array, Array]:
    """RK4 quadrotor step with inputs held constant over the step (ZOH).

    The position derivative is the stage velocity, so stage positions are
    never formed.  Raises ``DivergenceError`` when the stepped state has a
    non-finite entry or the stepped attitude has ``det <= 0`` before its
    projection onto SO(3).
    """
    grav = params.gravity_vector
    mass = params.mass
    jj, jinv = params.inertia.j, params.inertia.j_inv
    h = 0.5 * dt

    def deriv(Ri, Oi):
        return (grav + (Ri @ f_body) / mass, *_rates(Ri, Oi, m_body, jj, jinv))

    k1v, k1R, k1O = deriv(R, Om)
    v2, R2, O2 = v + h * k1v, R + h * k1R, Om + h * k1O
    k2v, k2R, k2O = deriv(R2, O2)
    v3, R3, O3 = v + h * k2v, R + h * k2R, Om + h * k2O
    k3v, k3R, k3O = deriv(R3, O3)
    v4, R4, O4 = v + dt * k3v, R + dt * k3R, Om + dt * k3O
    k4v, k4R, k4O = deriv(R4, O4)

    sixth = dt / 6.0
    r_new = r + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
    v_new = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    R_new = R + sixth * (k1R + 2.0 * k2R + 2.0 * k3R + k4R)
    O_new = Om + sixth * (k1O + 2.0 * k2O + 2.0 * k3O + k4O)
    _require_not_diverged(r_new, v_new, R_new, O_new)
    return r_new, v_new, _fast_polar(R_new), O_new


def _require_not_diverged(r: Array, v: Array, R: Array, Om: Array) -> None:
    """``DivergenceError`` unless every entry is finite and ``det R > 0``."""
    if not np.isfinite(np.concatenate((r, v, R.ravel(), Om))).all():
        bad = [n for n, x in (("r", r), ("v", v), ("R", R), ("Omega", Om))
               if not np.isfinite(x).all()]
        raise DivergenceError(f"state diverged: non-finite {', '.join(bad)}")
    det = np.linalg.det(R)
    if not det > 0.0:
        raise DivergenceError(
            f"state diverged: attitude determinant {det:.3e} is not positive "
            "before projection"
        )


def rk4_quadrotor_step(
    state: QuadrotorState,
    params: QuadrotorParams,
    f_body: Array,
    m_body: Array,
    dt: float,
) -> QuadrotorState:
    """One RK4 step of the quadrotor with the body wrench held over the step."""
    r, v, R, Om = _quadrotor_rk4_core(
        state.r, state.v, state.R, state.Omega, params,
        np.asarray(f_body, dtype=float), np.asarray(m_body, dtype=float), dt,
    )
    return QuadrotorState(r, v, R, Om)
