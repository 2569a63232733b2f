"""Exact small-matrix calculus on SO(3) and its Lie algebra so(3).

Rotation matrices are plain ``(3, 3)`` float64 arrays mapping body to
inertial coordinates; rotation vectors are ``(3,)`` arrays.  ``hat`` and
``vee`` convert between vectors and skew-symmetric matrices, ``exp_so3`` is
the closed-form Rodrigues exponential, ``log_so3`` its inverse, and
``rotation_mean`` the polar-decomposition mean of two rotations.

Two increment conventions coexist in this library and are deliberately not
unified: body-frame increments multiply on the right
(``T @ exp_so3(eta)``), space-frame increments on the left
(``exp_so3(eta) @ T``).  Use :func:`apply_body_increment` and
:func:`apply_space_increment` so each call site names its convention.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateMeanError,
    DivergenceError,
    InvalidRotationError,
    NotSkewError,
    SingularInputError,
)

Array = np.ndarray

# Below this angle, sin(x)/x style factors switch to 4th-order Taylor
# expansions to avoid cancellation.
SMALL_ANGLE = 1e-4

_EYE3 = np.eye(3)


def hat(v: Array) -> Array:
    """Skew-symmetric matrix of ``v``, so that ``hat(v) @ w == cross(v, w)``."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def cross3(a: Array, b: Array) -> Array:
    """``np.cross`` of two 3-vectors, bit for bit, without its dispatch cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def vee(m: Array, tol: float = 1e-6) -> Array:
    """Vector of the skew part of ``m``; inverse of :func:`hat` on skew input.

    Raises ``NotSkewError`` when the symmetry defect ``max|m + m^T|``
    exceeds ``tol``.
    """
    defect = np.max(np.abs(m + m.T))
    if defect > tol:
        raise NotSkewError(f"symmetry defect {defect:.3e} exceeds {tol:.1e}")
    return 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])


def tilde(m: Array) -> Array:
    """``trace(m) * I - m``, the operator converting skew parts of matrix
    products to vector equations: ``vee(hat(a) @ B + B.T @ hat(a)) == tilde(B) @ a``."""
    return np.trace(m) * _EYE3 - m


def exp_so3(v: Array) -> Array:
    """Rodrigues exponential: rotation by angle ``|v|`` about axis ``v/|v|``."""
    v = np.asarray(v, dtype=float)
    theta2 = float(v @ v)
    theta = np.sqrt(theta2)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    k = hat(v)
    return _EYE3 + a * k + b * (k @ k)


def log_so3(r: Array) -> Array:
    """Rotation vector of ``r`` with ``|result| <= pi``.

    The generic branch uses ``theta / (2 sin theta) * vee(r - r^T)``.  Near
    180 degrees that expression cancels catastrophically, so the axis is
    instead recovered from the dominant column of the symmetric part of
    ``r``, with the sign fixed by the residual skew component.
    """
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    norm_w = np.linalg.norm(w)  # == 2 sin(theta)
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    theta = np.arctan2(norm_w, trace - 1.0)
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0) * w
    if theta > np.pi - 1e-3:
        # nn^T = (sym(r) - cos(theta) I) / (1 - cos(theta))
        c = 0.5 * (trace - 1.0)
        b = (0.5 * (r + r.T) - c * _EYE3) / (1.0 - c)
        i = int(np.argmax(np.diag(b)))
        n = b[:, i] / np.sqrt(b[i, i])
        if w @ n < 0.0:
            n = -n
        elif abs(w @ n) == 0.0 and (n[np.argmax(np.abs(n))] < 0.0):
            n = -n  # deterministic sign at exactly 180 degrees
        return theta * n
    return (theta / (2.0 * np.sin(theta))) * w


def polar_project(m: Array) -> Array:
    """Nearest rotation to ``m`` in the Frobenius norm (polar factor).

    Requires an orientation-preserving input; raises ``SingularInputError``
    when ``det(m) <= 1e-12``.
    """
    det = np.linalg.det(m)
    if det <= 1e-12:
        raise SingularInputError(f"determinant {det:.3e} is not positive")
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        r = (u * np.array([1.0, 1.0, -1.0])) @ vt
    return r


def rotation_mean(ta: Array, tb: Array) -> Array:
    """Mean of two rotations: the polar rotation factor of ``ta + tb``.

    Equals the geodesic midpoint when the arguments share a rotation axis.
    Raises ``DegenerateMeanError`` when the rotations are antipodal (smallest
    singular value of the sum below 1e-8).
    """
    ta = require_rotation(ta)
    tb = require_rotation(tb)
    m = ta + tb
    u, s, vt = np.linalg.svd(m)
    if s[-1] < 1e-8:
        raise DegenerateMeanError(
            f"rotations are antipodal (smallest singular value {s[-1]:.3e})"
        )
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        r = (u * np.array([1.0, 1.0, -1.0])) @ vt
    return r


def orthogonality_defect(m: Array) -> float:
    """Frobenius norm of ``m^T m - I``."""
    return float(np.linalg.norm(m.T @ m - _EYE3))


def orthogonality_defects(rows: Array) -> Array:
    """:func:`orthogonality_defect` of each matrix of a trajectory, given as
    ``(n, 3, 3)`` or as ``(n, 9)`` row-major rows."""
    r = rows.reshape(-1, 3, 3)
    gram = np.einsum("nki,nkj->nij", r, r) - _EYE3
    return np.sqrt(np.einsum("nij,nij->n", gram, gram))


def _check_step_angle(theta2: float, explicit: bool = False) -> None:
    """The step-angle rule of every attitude integrator: refuse a step whose
    relative rotation, of squared angle ``theta2``, reaches pi.  The implicit
    VI step raises ``DegenerateMeanError``; an ``explicit`` (RK4) step that
    long is far outside its stability region, so it raises ``DivergenceError``."""
    if theta2 > (np.pi - 1e-8) ** 2:
        msg = f"relative rotation {np.sqrt(theta2):.6g} rad reaches pi; reduce dt"
        raise DivergenceError(f"state diverged: {msg}") if explicit else DegenerateMeanError(msg)


def is_rotation(m: Array, tol: float = 1e-9) -> bool:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    return orthogonality_defect(m) <= tol and abs(np.linalg.det(m) - 1.0) <= tol


def require_rotation(m: Array, tol: float = 1e-9) -> Array:
    """Validate the SO(3) invariants and return ``m`` as a float64 array.

    Refuses invalid input instead of repairing it; :func:`polar_project` is
    the only sanctioned repair path.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise InvalidRotationError(f"expected shape (3, 3), got {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidRotationError("matrix has non-finite entries")
    defect = orthogonality_defect(m)
    if defect > tol:
        raise InvalidRotationError(
            f"orthonormality defect {defect:.3e} exceeds {tol:.1e}"
        )
    det = np.linalg.det(m)
    if abs(det - 1.0) > tol:
        raise InvalidRotationError(f"determinant {det!r} is not +1 within {tol:.1e}")
    return m


def apply_space_increment(eta: Array, t: Array) -> Array:
    """Left (space-frame) update ``exp_so3(eta) @ t``."""
    return exp_so3(eta) @ t


def apply_body_increment(t: Array, eta: Array) -> Array:
    """Right (body-frame) update ``t @ exp_so3(eta)``."""
    return t @ exp_so3(eta)
