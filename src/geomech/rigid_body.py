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

from .errors import ScenarioValidationError
from .so3 import Array, cross3, hat, polar_project, require_rotation

GRAVITY = 9.81

_EYE3 = np.eye(3)


def _require_finite_vec3(v, name: str) -> Array:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
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
        if lams[0] + lams[1] < lams[2] - 1e-9:
            raise ScenarioValidationError(
                [("inertia", f"principal moments {lams} violate the triangle inequality")]
            )
        self.j = j
        self.j_inv = np.linalg.inv(j)

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
class BodyWrench:
    """Extra body-frame force (N) and moment (N m), e.g. from the rotor model."""

    force_body: Array
    moment_body: Array

    def __post_init__(self):
        self.force_body = _require_finite_vec3(self.force_body, "force_body")
        self.moment_body = _require_finite_vec3(self.moment_body, "moment_body")

    @classmethod
    def zero(cls) -> "BodyWrench":
        return cls(np.zeros(3), np.zeros(3))


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


PotentialMoment = Callable[[Array], Array]


def attitude_rhs(
    state: RigidBodyState,
    inertia: InertiaTensor,
    moment: Array,
    potential_moment: PotentialMoment | None = None,
) -> tuple[Array, Array]:
    """Rotational equations of motion.

    ``Tdot = T hat(omega)`` and ``J omega_dot = M - omega x J omega``; an
    optional callback supplies an attitude-dependent potential moment in the
    body frame (none is built in).
    """
    t, w = state.T, state.omega
    m = np.asarray(moment, dtype=float)
    if potential_moment is not None:
        m = m + potential_moment(t)
    t_dot = t @ hat(w)
    w_dot = inertia.j_inv @ (m - cross3(w, inertia.j @ w))
    return t_dot, w_dot


def quadrotor_rhs(
    state: QuadrotorState,
    params: QuadrotorParams,
    thrust: float,
    moment: Array,
    extra: BodyWrench | None = None,
) -> tuple[Array, Array, Array, Array]:
    """Quadrotor equations of motion with collective body-z thrust.

    Translational dynamics: ``m vdot = m G + R (f e3 + extra force)``.
    ``extra`` carries any additional body wrench (rotor aerodynamics).
    """
    f_body = np.array([0.0, 0.0, float(thrust)])
    m_body = np.asarray(moment, dtype=float)
    if extra is not None:
        f_body = f_body + extra.force_body
        m_body = m_body + extra.moment_body
    r_dot = state.v
    v_dot = params.gravity_vector + (state.R @ f_body) / params.mass
    R_dot = state.R @ hat(state.Omega)
    jj = params.inertia
    Omega_dot = jj.j_inv @ (m_body - cross3(state.Omega, jj.j @ state.Omega))
    return r_dot, v_dot, R_dot, Omega_dot


def kinetic_energy(state: RigidBodyState, inertia: InertiaTensor) -> float:
    """Rotational kinetic energy ``0.5 omega . J omega`` (J)."""
    return 0.5 * float(state.omega @ (inertia.j @ state.omega))


def spatial_momentum(state: RigidBodyState, inertia: InertiaTensor) -> Array:
    """Inertial-frame angular momentum ``T J omega``; conserved when M = 0."""
    return state.T @ (inertia.j @ state.omega)


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
) -> tuple[Array, Array]:
    """Raw-array RK4 stage loop for the closed attitude loop (hot path)."""
    jj, jinv = inertia.j, inertia.j_inv

    def deriv(ti, tm, wi):
        # stage attitudes drift off SO(3) at O(dt^2); project before handing
        # them to the torque law, whose domain is the group itself
        tm = _fast_polar(tm)
        td = tm @ hat(wi)
        wd = jinv @ (torque_fn(ti, tm, wi) - cross3(wi, jj @ wi))
        return td, wd

    k1t, k1w = deriv(t, t_mat, w)
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
    """RK4 quadrotor step with inputs held constant over the step (ZOH)."""
    grav = params.gravity_vector
    mass = params.mass
    jj, jinv = params.inertia.j, params.inertia.j_inv

    def deriv(ri, vi, Ri, Oi):
        return (
            vi,
            grav + (Ri @ f_body) / mass,
            Ri @ hat(Oi),
            jinv @ (m_body - cross3(Oi, jj @ Oi)),
        )

    k1 = deriv(r, v, R, Om)
    k2 = deriv(*(x + 0.5 * dt * k for x, k in zip((r, v, R, Om), k1)))
    k3 = deriv(*(x + 0.5 * dt * k for x, k in zip((r, v, R, Om), k2)))
    k4 = deriv(*(x + dt * k for x, k in zip((r, v, R, Om), k3)))
    out = [
        x + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip((r, v, R, Om), k1, k2, k3, k4)
    ]
    out[2] = _fast_polar(out[2])
    return tuple(out)


def rk4_quadrotor_step(
    state: QuadrotorState,
    params: QuadrotorParams,
    thrust: float,
    moment: Array,
    extra: BodyWrench | None,
    dt: float,
) -> QuadrotorState:
    """One RK4 step of the quadrotor with thrust/moment held over the step."""
    f_body = np.array([0.0, 0.0, float(thrust)])
    m_body = np.asarray(moment, dtype=float)
    if extra is not None:
        f_body = f_body + extra.force_body
        m_body = m_body + extra.moment_body
    r, v, R, Om = _quadrotor_rk4_core(
        state.r, state.v, state.R, state.Omega, params, f_body, m_body, dt
    )
    return QuadrotorState(r, v, R, Om)
