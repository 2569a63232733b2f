"""Geometric backstepping attitude tracking on SO(3).

The tracking error is measured by the scalar ``2 - sqrt(1 + tr(E))`` with
``E = R_d^T R``, its gradient-like vector ``e_R``, and the body-rate error
``e_Omega = Omega - R^T R_d Omega_d``.  A virtual rate command built from
``e_R`` backsteps into the torque law

    q = Omega x J Omega + J R^T R_d dOmega_d - J hat(Omega) R^T R_d Omega_d
        - J beta e_Omega - F (Omega - Omega_target)

which renders the augmented storage function
``k_R psi + 0.5 (Omega - Omega_target) . S (Omega - Omega_target)``
non-increasing.  All operations are undefined at a 180-degree attitude error
and raise ``AntipodalError`` there; the excluded set is genuinely singular,
so no saturated fallback is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AntipodalError, ScenarioValidationError
from .rigid_body import InertiaTensor, _require_finite_vec3
from .so3 import Array, cross3, require_rotation

_EYE3 = np.eye(3)

ANTIPODAL_TOL = 1e-12


def _require_spd(m, name: str) -> Array:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        raise ScenarioValidationError([(name, "must be a finite 3x3 matrix")])
    if np.max(np.abs(m - m.T)) > 1e-9:
        raise ScenarioValidationError([(name, "must be symmetric")])
    if np.linalg.eigvalsh(m)[0] <= 0.0:
        raise ScenarioValidationError([(name, "must be positive definite")])
    return m


@dataclass
class AttitudeReference:
    """Desired attitude, desired body rate, and its analytic derivative.

    Generated references satisfy ``dR_d/dt = R_d hat(Omega_d)`` by
    construction; ``Omega_d_dot`` must come from analytic differentiation,
    never from numerically differentiating ``Omega_d``.
    """

    R_d: Array
    Omega_d: Array
    Omega_d_dot: Array

    def __post_init__(self):
        self.R_d = require_rotation(self.R_d)
        self.Omega_d = _require_finite_vec3(self.Omega_d, "Omega_d")
        self.Omega_d_dot = _require_finite_vec3(self.Omega_d_dot, "Omega_d_dot")


@dataclass
class AttitudeGains:
    """Backstepping gains: P shapes the virtual rate command, F the torque
    feedback; k_R and S only weight the diagnostic storage function."""

    P: Array
    F: Array
    k_R: float = 1.0
    S: Array = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        self.P = _require_spd(self.P, "P")
        self.F = _require_spd(self.F, "F")
        self.S = _require_spd(self.S, "S")
        if not self.k_R > 0.0:
            raise ScenarioValidationError([("k_R", "must be > 0")])

    @classmethod
    def from_inertia(cls, inertia: InertiaTensor) -> "AttitudeGains":
        """Weight both loops by the inertia tensor itself."""
        return cls(P=inertia.j.copy(), F=inertia.j.copy())


def _checked_error_matrix(r: Array, r_d: Array) -> tuple[Array, float]:
    e = r_d.T @ r
    one_plus_tr = 1.0 + e[0, 0] + e[1, 1] + e[2, 2]
    if one_plus_tr < ANTIPODAL_TOL:
        raise AntipodalError(
            f"attitude error at 180 degrees (1 + tr = {one_plus_tr:.3e})"
        )
    return e, one_plus_tr


def attitude_error_psi(r: Array, r_d: Array) -> float:
    """Scalar error ``2 - sqrt(1 + tr(E))``; equals ``4 sin^2(angle/4)``."""
    _, one_plus_tr = _checked_error_matrix(r, r_d)
    return 2.0 - np.sqrt(one_plus_tr)


def _error_vector(e: Array, one_plus_tr: float) -> Array:
    """``e_R`` from ``E = R_d^T R`` and ``1 + tr(E)``."""
    return np.array(
        [e[2, 1] - e[1, 2], e[0, 2] - e[2, 0], e[1, 0] - e[0, 1]]
    ) / (2.0 * math.sqrt(one_plus_tr))


def _beta(e: Array, one_plus_tr: float, e_r: Array) -> Array:
    """``beta`` from ``E``, ``1 + tr(E)`` and ``e_R``."""
    return (2.0 * (e_r[:, None] * e_r) + (one_plus_tr - 1.0) * _EYE3 - e.T) / (
        2.0 * np.sqrt(one_plus_tr)
    )


def _torque_kernel(
    e: Array,
    one_plus_tr: float,
    omega_d: Array,
    omega_d_dot: Array,
    omega: Array,
    jj: Array,
    p: Array,
    f: Array,
) -> tuple[Array, Array, Array]:
    """Raw-array torque law shared by :func:`control_torque` and the runner.

    Takes ``E = R_d^T R`` with ``1 + tr(E)`` already checked against
    ``ANTIPODAL_TOL`` and returns ``(q, e_R, e_Omega)``.  ``J`` is applied
    once, to ``E^T dOmega_d - Omega x E^T Omega_d - P beta e_Omega``, and
    ``beta e_Omega`` is formed without ``beta`` (see :func:`_beta`).
    """
    e_r = _error_vector(e, one_plus_tr)
    e_t = e.T
    transported = e_t @ omega_d  # R^T R_d Omega_d
    e_om = omega - transported
    beta_e_om = (
        2.0 * float(e_r @ e_om) * e_r + (one_plus_tr - 1.0) * e_om - e_t @ e_om
    ) / (2.0 * math.sqrt(one_plus_tr))
    return (
        cross3(omega, jj @ omega)
        + jj @ (e_t @ omega_d_dot - cross3(omega, transported) - p @ beta_e_om)
        - f @ (omega + p @ e_r - transported),  # F (Omega - Omega_target)
        e_r,
        e_om,
    )


def attitude_error_vector(r: Array, r_d: Array) -> Array:
    """Error vector along the error rotation axis with norm ``sin(angle/2)``."""
    return _error_vector(*_checked_error_matrix(r, r_d))


def angular_velocity_error(r: Array, omega: Array, ref: AttitudeReference) -> Array:
    """Body-rate error ``Omega - R^T R_d Omega_d``."""
    return omega - r.T @ (ref.R_d @ ref.Omega_d)


def omega_target(r: Array, ref: AttitudeReference, gains: AttitudeGains) -> Array:
    """Virtual rate command ``-P e_R + R^T R_d Omega_d``."""
    e_r = attitude_error_vector(r, ref.R_d)
    return -gains.P @ e_r + r.T @ (ref.R_d @ ref.Omega_d)


def beta_matrix(r: Array, r_d: Array) -> Array:
    """Error-rate factor: ``d(e_R)/dt = beta e_Omega`` along any motion."""
    e, one_plus_tr = _checked_error_matrix(r, r_d)
    return _beta(e, one_plus_tr, _error_vector(e, one_plus_tr))


def control_torque(
    r: Array,
    omega: Array,
    ref: AttitudeReference,
    inertia: InertiaTensor,
    gains: AttitudeGains,
) -> Array:
    """Backstepping attitude tracking torque (body frame, N m).

    Implements ``q = Omega x J Omega + J dOmega_target/dt - F (Omega -
    Omega_target)`` with the rate command's derivative expanded analytically;
    the ``e_R`` feedback therefore enters as ``- J P beta e_Omega``.  This
    makes the closed-loop rate error satisfy ``J de/dt = -F e`` exactly, so
    the storage function decreases pointwise whenever ``P`` dominates
    ``(k_R/4) I``.
    """
    e, one_plus_tr = _checked_error_matrix(r, ref.R_d)
    return _torque_kernel(
        e, one_plus_tr, ref.Omega_d, ref.Omega_d_dot, omega, inertia.j, gains.P, gains.F
    )[0]


def storage_function(
    r: Array,
    omega: Array,
    ref: AttitudeReference,
    gains: AttitudeGains,
) -> float:
    """Diagnostic value ``k_R psi + 0.5 e . S e`` with ``e = Omega - Omega_target``."""
    psi = attitude_error_psi(r, ref.R_d)
    e = omega - omega_target(r, ref, gains)
    return gains.k_R * psi + 0.5 * float(e @ (gains.S @ e))
