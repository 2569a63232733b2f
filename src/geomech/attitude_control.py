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
from dataclasses import dataclass

from .errors import AntipodalError, ScenarioValidationError
from .rigid_body import InertiaTensor, _Rows, _eigvalsh3, _floats, _require_finite_vec3
from .so3 import _EYE, Array, _as_rows, require_rotation

ANTIPODAL_TOL = 1e-12


def _require_spd(m, name: str) -> tuple:
    m = _as_rows(m, 9, ScenarioValidationError([(name, "must be a finite 3x3 matrix")]))
    if max(abs(m[1] - m[3]), abs(m[2] - m[6]), abs(m[5] - m[7])) > 1e-9:
        raise ScenarioValidationError([(name, "must be symmetric")])
    if not _eigvalsh3(m)[0] > 0.0:
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
        import numpy as np
        self.R_d = require_rotation(self.R_d)
        self.Omega_d = np.array(_require_finite_vec3(self.Omega_d, "Omega_d"))
        self.Omega_d_dot = np.array(_require_finite_vec3(self.Omega_d_dot, "Omega_d_dot"))


@dataclass
class AttitudeGains:
    """Backstepping gains: P shapes the virtual rate command, F the torque
    feedback; k_R and S only weight the diagnostic storage function.  The
    matrices are held as ``p_rows``, ``f_rows`` and ``s_rows`` (row-major
    floats) and read as arrays."""

    P: Array = _Rows((3, 3))
    F: Array = _Rows((3, 3))
    k_R: float = 1.0
    S: Array = _Rows((3, 3), _EYE)

    def __post_init__(self):
        self.p_rows = _require_spd(self.p_rows, "P")
        self.f_rows = _require_spd(self.f_rows, "F")
        self.s_rows = _require_spd(self.s_rows, "S")
        if not self.k_R > 0.0:
            raise ScenarioValidationError([("k_R", "must be > 0")])

    @classmethod
    def from_inertia(cls, inertia: InertiaTensor) -> "AttitudeGains":
        """Weight both loops by the inertia tensor itself."""
        return cls(P=inertia.j_rows, F=inertia.j_rows)


def _error_matrix(tm, rd) -> tuple[tuple, float]:
    """``E = R_d^T R`` (row-major 9 floats) and ``1 + tr E`` from row-major
    ``R`` and ``R_d``; raises ``AntipodalError`` when ``1 + tr E`` is below
    ``ANTIPODAL_TOL``."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = tm
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = rd
    e = (
        d0 * t0 + d3 * t3 + d6 * t6, d0 * t1 + d3 * t4 + d6 * t7, d0 * t2 + d3 * t5 + d6 * t8,
        d1 * t0 + d4 * t3 + d7 * t6, d1 * t1 + d4 * t4 + d7 * t7, d1 * t2 + d4 * t5 + d7 * t8,
        d2 * t0 + d5 * t3 + d8 * t6, d2 * t1 + d5 * t4 + d8 * t7, d2 * t2 + d5 * t5 + d8 * t8,
    )
    one_plus_tr = 1.0 + e[0] + e[4] + e[8]
    if one_plus_tr < ANTIPODAL_TOL:
        raise AntipodalError(
            f"attitude error at 180 degrees (1 + tr = {one_plus_tr:.3e})"
        )
    return e, one_plus_tr


def attitude_error_psi(r: Array, r_d: Array) -> float:
    """Scalar error ``2 - sqrt(1 + tr(E))``; equals ``4 sin^2(angle/4)``."""
    _, one_plus_tr = _error_matrix(_floats(r), _floats(r_d))
    return 2.0 - math.sqrt(one_plus_tr)


def _quad_form(m, e) -> float:
    """``e . M e`` for a row-major ``M`` and a 3-sequence ``e``."""
    e0, e1, e2 = e
    return (e0 * (m[0] * e0 + m[1] * e1 + m[2] * e2) + e1 * (m[3] * e0 + m[4] * e1 + m[5] * e2)
            + e2 * (m[6] * e0 + m[7] * e1 + m[8] * e2))


def _error_vector(e, one_plus_tr: float) -> tuple[float, float, float]:
    """``e_R`` from ``E = R_d^T R`` (row-major 9 floats) and ``1 + tr(E)``."""
    s = 2.0 * math.sqrt(one_plus_tr)
    return (e[7] - e[5]) / s, (e[2] - e[6]) / s, (e[3] - e[1]) / s


def _torque_kernel(tm, rd, wd, wdd, w, jj, p, f):
    """The torque law on Python floats, shared by :func:`control_torque`, the
    quadrotor tick and the attitude loop.

    Takes row-major 9-sequences ``R``, ``R_d``, ``J``, ``P``, ``F`` and
    3-sequences ``Omega_d``, ``dOmega_d``, ``Omega``; returns ``(q, e_R,
    e_Omega, 1 + tr E)`` as tuples and a float.  ``J`` is applied once, to
    ``E^T dOmega_d - Omega x E^T Omega_d - P beta e_Omega``, and ``beta
    e_Omega`` is formed without ``beta`` (see :func:`beta_matrix`).
    """
    e, one_plus_tr = _error_matrix(tm, rd)
    er0, er1, er2 = e_r = _error_vector(e, one_plus_tr)
    e0, e1, e2, e3, e4, e5, e6, e7, e8 = e
    wd0, wd1, wd2 = wd
    w0, w1, w2 = w
    # transported = E^T Omega_d = R^T R_d Omega_d
    c0, c1, c2 = (e0 * wd0 + e3 * wd1 + e6 * wd2, e1 * wd0 + e4 * wd1 + e7 * wd2,
                  e2 * wd0 + e5 * wd1 + e8 * wd2)
    eo0, eo1, eo2 = e_om = w0 - c0, w1 - c1, w2 - c2
    # beta e_Omega = (2 (e_R . e_Omega) e_R + tr E e_Omega - E^T e_Omega) / (2 sqrt(1 + tr E))
    s, tr = 2.0 * math.sqrt(one_plus_tr), one_plus_tr - 1.0
    dot = 2.0 * (er0 * eo0 + er1 * eo1 + er2 * eo2)
    b0 = (dot * er0 + tr * eo0 - (e0 * eo0 + e3 * eo1 + e6 * eo2)) / s
    b1 = (dot * er1 + tr * eo1 - (e1 * eo0 + e4 * eo1 + e7 * eo2)) / s
    b2 = (dot * er2 + tr * eo2 - (e2 * eo0 + e5 * eo1 + e8 * eo2)) / s
    a0, a1, a2 = wdd
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = p
    # u = E^T dOmega_d - Omega x transported - P beta e_Omega
    u0 = e0 * a0 + e3 * a1 + e6 * a2 - (w1 * c2 - w2 * c1) - (p0 * b0 + p1 * b1 + p2 * b2)
    u1 = e1 * a0 + e4 * a1 + e7 * a2 - (w2 * c0 - w0 * c2) - (p3 * b0 + p4 * b1 + p5 * b2)
    u2 = e2 * a0 + e5 * a1 + e8 * a2 - (w0 * c1 - w1 * c0) - (p6 * b0 + p7 * b1 + p8 * b2)
    # v = Omega - Omega_target = Omega + P e_R - transported
    v0 = w0 + (p0 * er0 + p1 * er1 + p2 * er2) - c0
    v1 = w1 + (p3 * er0 + p4 * er1 + p5 * er2) - c1
    v2 = w2 + (p6 * er0 + p7 * er1 + p8 * er2) - c2
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = jj
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = f
    h0, h1, h2 = (j0 * w0 + j1 * w1 + j2 * w2, j3 * w0 + j4 * w1 + j5 * w2,
                  j6 * w0 + j7 * w1 + j8 * w2)
    # q = Omega x J Omega + J u - F v
    q = (
        (w1 * h2 - w2 * h1) + (j0 * u0 + j1 * u1 + j2 * u2) - (f0 * v0 + f1 * v1 + f2 * v2),
        (w2 * h0 - w0 * h2) + (j3 * u0 + j4 * u1 + j5 * u2) - (f3 * v0 + f4 * v1 + f5 * v2),
        (w0 * h1 - w1 * h0) + (j6 * u0 + j7 * u1 + j8 * u2) - (f6 * v0 + f7 * v1 + f8 * v2),
    )
    return q, e_r, e_om, one_plus_tr


def attitude_error_vector(r: Array, r_d: Array) -> Array:
    """Error vector along the error rotation axis with norm ``sin(angle/2)``."""
    import numpy as np
    return np.array(_error_vector(*_error_matrix(_floats(r), _floats(r_d))))


def angular_velocity_error(r: Array, omega: Array, ref: AttitudeReference) -> Array:
    """Body-rate error ``Omega - R^T R_d Omega_d``."""
    return omega - r.T @ (ref.R_d @ ref.Omega_d)


def beta_matrix(r: Array, r_d: Array) -> Array:
    """Error-rate factor: ``d(e_R)/dt = beta e_Omega`` along any motion."""
    import numpy as np
    e, one_plus_tr = _error_matrix(_floats(r), _floats(r_d))
    e_r = np.array(_error_vector(e, one_plus_tr))
    return (2.0 * (e_r[:, None] * e_r) + (one_plus_tr - 1.0) * np.eye(3)
            - np.reshape(e, (3, 3)).T) / (2.0 * math.sqrt(one_plus_tr))


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
    import numpy as np
    q = _torque_kernel(_floats(r), _floats(ref.R_d), _floats(ref.Omega_d),
                       _floats(ref.Omega_d_dot), _floats(omega), inertia.j_rows,
                       gains.p_rows, gains.f_rows)[0]
    return np.array(q)

