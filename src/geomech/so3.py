"""Exact small-matrix calculus on SO(3) and its Lie algebra so(3).

Rotation matrices are plain ``(3, 3)`` float64 arrays mapping body to
inertial coordinates; rotation vectors are ``(3,)`` arrays.  ``hat`` and
``vee`` convert between vectors and skew-symmetric matrices, ``exp_so3`` is
the closed-form Rodrigues exponential, ``log_so3`` its inverse, and
``polar_project`` the nearest rotation to a matrix (its polar factor).

Every angle-dependent coefficient of the library comes from one pair,
``a(x) = sin x / x`` and ``d(x) = a'(x)/x = (x cos x - sin x)/x^3``
(:func:`_sinc`), at the angle or a fraction of it, by exact identities:
with ``y = x/2``,

* ``(1 - cos x)/x^2 = a(y)^2 / 2``, whose derivative over ``x`` is
  ``a(y) d(y) / 4``;
* ``1/x^2 - (1 + cos x)/(2 x sin x) = -d(y) / (4 a(y))``, the ``dexp^{-1}``
  coefficient;
* ``2 sin(y)/x = a(y)``, whose derivative over ``x`` is ``d(y) / 4``;
* ``tan(x/4)/x = a(x/4) / (4 cos(x/4))`` and ``x / (2 sin x) = 1 / (2 a(x))``.
"""

from __future__ import annotations

import math

from .errors import (
    DegenerateMeanError,
    DivergenceError,
    InvalidRotationError,
    NotSkewError,
    SingularInputError,
)

Array = "numpy.ndarray"  # the public array functions import numpy when they run

_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # I, row-major

# d(x) = sum_{n>=1} (-1)^n 2n x^(2n-2) / (2n+1)!, highest power first; below
# x = 1 nine terms reach rounding, above it the closed form keeps its digits
_D_SERIES = tuple((-1) ** n * 2 * n / math.factorial(2 * n + 1) for n in range(9, 0, -1))


def _sinc(x: float) -> tuple[float, float]:
    """``a(x) = sin x / x`` and ``d(x) = a'(x)/x`` for ``x >= 0``, each within
    a few ulps on ``[0, pi]``.  The closed form of ``d`` cancels to about
    ``eps / x^2`` relative, so below 1 rad it is summed from its series."""
    if x < 1.0:
        x2 = x * x
        d = 0.0
        for coeff in _D_SERIES:
            d = d * x2 + coeff
        return (math.sin(x) / x if x > 0.0 else 1.0), d
    s = math.sin(x)
    return s / x, (x * math.cos(x) - s) / (x * x * x)


def hat(v: Array) -> Array:
    """Skew-symmetric matrix of ``v``, so that ``hat(v) @ w == cross(v, w)``."""
    import numpy as np
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def vee(m: Array, tol: float = 1e-6) -> Array:
    """Vector of the skew part of ``m``; inverse of :func:`hat` on skew input.

    Raises ``NotSkewError`` when the symmetry defect ``max|m + m^T|``
    exceeds ``tol``.
    """
    import numpy as np
    defect = np.max(np.abs(m + m.T))
    if defect > tol:
        raise NotSkewError(f"symmetry defect {defect:.3e} exceeds {tol:.1e}")
    return 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])


def tilde(m: Array) -> Array:
    """``trace(m) * I - m``, the operator converting skew parts of matrix
    products to vector equations: ``vee(hat(a) @ B + B.T @ hat(a)) == tilde(B) @ a``."""
    import numpy as np
    return np.trace(m) * np.eye(3) - m


def exp_so3(v: Array) -> Array:
    """Rodrigues exponential: rotation by angle ``|v|`` about axis ``v/|v|``."""
    import numpy as np
    v = np.asarray(v, dtype=float)
    theta = math.sqrt(float(v @ v))
    half = _sinc(0.5 * theta)[0]
    k = hat(v)
    return np.eye(3) + _sinc(theta)[0] * k + (0.5 * half * half) * (k @ k)


def _floats(a) -> list[float]:
    """``a`` flattened row-major to Python floats: the float kernels' input."""
    import numpy as np
    return np.asarray(a, dtype=float).ravel().tolist()


def _as_rows(value, n: int, error: Exception) -> tuple:
    """``value``, a 3x3 matrix (``n = 9``) or a 3-vector (``n = 3``), as a
    tuple of ``n`` finite floats: a flat tuple (the scenario reader's form)
    as it is, anything else (an array, nested lists) through numpy.  Raises
    ``error`` for another shape or a non-finite entry."""
    if type(value) is not tuple or len(value) != n:
        import numpy as np
        a = np.asarray(value, dtype=float)
        value = tuple(a.ravel().tolist()) if a.shape == ((3, 3) if n == 9 else (3,)) else ()
    if len(value) != n or not all(map(math.isfinite, value)):
        raise error
    return value


def _log_kernel(m) -> tuple[float, float, float]:
    """Rotation vector (``|result| <= pi``) of a row-major rotation ``r``:
    ``theta / (2 sin theta) vee(r - r^T)``, written ``vee(r - r^T) / (2 a(theta))``.
    Near 180 degrees that cancels catastrophically, so the axis comes from
    the dominant column of the symmetric part of ``r``, its sign from the
    residual skew part; where that vanishes (exactly 180 degrees), the
    axis's largest entry is made positive."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    w0, w1, w2 = m7 - m5, m2 - m6, m3 - m1
    trace = m0 + m4 + m8
    theta = math.atan2(math.sqrt(w0 * w0 + w1 * w1 + w2 * w2), trace - 1.0)  # |w| = 2 sin theta
    if theta > math.pi - 1e-3:
        # nn^T = (sym(r) - cos(theta) I) / (1 - cos(theta)), symmetric bit for bit
        c = 0.5 * (trace - 1.0)
        b = [(0.5 * (m[3 * i + j] + m[3 * j + i]) - (c if i == j else 0.0)) / (1.0 - c)
             for i in range(3) for j in range(3)]
        i = max(range(3), key=lambda k: b[4 * k])
        root = math.sqrt(b[4 * i])
        n0, n1, n2 = n = b[3 * i] / root, b[3 * i + 1] / root, b[3 * i + 2] / root
        dot = w0 * n0 + w1 * n1 + w2 * n2
        if dot < 0.0 or (dot == 0.0 and max(n, key=abs) < 0.0):
            theta = -theta
        return theta * n0, theta * n1, theta * n2
    s = 2.0 * _sinc(theta)[0]
    return w0 / s, w1 / s, w2 / s


def log_so3(r: Array) -> Array:
    """Rotation vector of ``r`` with ``|result| <= pi`` (:func:`_log_kernel`)."""
    import numpy as np
    return np.array(_log_kernel(_floats(r)))


def polar_project(m: Array) -> Array:
    """Nearest rotation to ``m`` in the Frobenius norm (polar factor).

    Requires an orientation-preserving input; raises ``SingularInputError``
    when ``det(m) <= 1e-12``.
    """
    import numpy as np
    det = np.linalg.det(m)
    if det <= 1e-12:
        raise SingularInputError(f"determinant {det:.3e} is not positive")
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0.0:  # a reflection: flip the last singular axis
        r = (u * np.array([1.0, 1.0, -1.0])) @ vt
    return r


def _gram(m) -> tuple:
    """Entries 00, 01, 02, 11, 12, 22 of the symmetric ``m^T m``."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return (m0 * m0 + m3 * m3 + m6 * m6, m0 * m1 + m3 * m4 + m6 * m7, m0 * m2 + m3 * m5 + m6 * m8,
            m1 * m1 + m4 * m4 + m7 * m7, m1 * m2 + m4 * m5 + m7 * m8, m2 * m2 + m5 * m5 + m8 * m8)


def _ortho_defect(m) -> float:
    """Frobenius norm of ``m^T m - I`` for a row-major ``m``."""
    a, b, c, d, f, g = _gram(m)
    a, d, g = a - 1.0, d - 1.0, g - 1.0
    return math.sqrt(a * a + d * d + g * g + 2.0 * (b * b + c * c + f * f))


def _det(m) -> float:
    """Determinant of a row-major 3x3, by cofactors of its first row."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return m0 * (m4 * m8 - m5 * m7) - m1 * (m3 * m8 - m5 * m6) + m2 * (m3 * m7 - m4 * m6)


def _check_step_angle(theta2: float, explicit: bool = False) -> None:
    """The step-angle rule of every attitude integrator: refuse a step whose
    relative rotation, of squared angle ``theta2``, reaches pi.  The implicit
    VI step raises ``DegenerateMeanError``; an ``explicit`` (RK4) step that
    long is far outside its stability region, so it raises ``DivergenceError``."""
    if theta2 > (math.pi - 1e-8) ** 2:
        msg = f"relative rotation {math.sqrt(theta2):.6g} rad reaches pi; reduce dt"
        raise DivergenceError(f"state diverged: {msg}") if explicit else DegenerateMeanError(msg)


def _rotation_rows(m, tol: float = 1e-9) -> tuple:
    """Check the SO(3) invariants of a row-major 9-tuple ``m`` of finite
    floats and return it; refuses invalid input instead of repairing it."""
    defect = _ortho_defect(m)
    if defect > tol:
        raise InvalidRotationError(
            f"orthonormality defect {defect:.3e} exceeds {tol:.1e}"
        )
    det = _det(m)
    if abs(det - 1.0) > tol:
        raise InvalidRotationError(f"determinant {det!r} is not +1 within {tol:.1e}")
    return m


def require_rotation(m: Array, tol: float = 1e-9) -> Array:
    """Validate the SO(3) invariants and return ``m`` as a float64 array.

    Refuses invalid input instead of repairing it; :func:`polar_project` is
    the only sanctioned repair path.
    """
    import numpy as np
    error = InvalidRotationError("expected a finite 3x3 matrix")
    return np.reshape(_rotation_rows(_as_rows(m, 9, error), tol), (3, 3))
