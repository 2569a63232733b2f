"""Exact small-matrix calculus on SO(3) and its Lie algebra so(3).

Rotation matrices are plain ``(3, 3)`` float64 arrays mapping body to
inertial coordinates; rotation vectors are ``(3,)`` arrays.  ``hat`` and
``vee`` convert between vectors and skew-symmetric matrices.  Each SO(3) map
is one kernel on Python floats (matrices as row-major 9-tuples), which the
integrators call, behind a public function that converts arrays: Rodrigues'
``_rodrigues`` behind ``exp_so3``, the logarithm ``_log_kernel`` behind
``log_so3`` and the polar factor ``_fast_polar`` behind ``polar_project``.

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


def _rodrigues(v, f, a: float, b: float) -> tuple:
    """``exp_so3(f) v = v + a f x v + b f x (f x v)`` for 3-sequences, given
    ``a = a(|f|)`` and ``b = a(|f|/2)^2 / 2``."""
    (v0, v1, v2), (f0, f1, f2) = v, f
    c0, c1, c2 = f1 * v2 - f2 * v1, f2 * v0 - f0 * v2, f0 * v1 - f1 * v0
    return (v0 + a * c0 + b * (f1 * c2 - f2 * c1), v1 + a * c1 + b * (f2 * c0 - f0 * c2),
            v2 + a * c2 + b * (f0 * c1 - f1 * c0))


def exp_so3(v: Array) -> Array:
    """Rotation by angle ``|v|`` about axis ``v/|v|`` (:func:`_rodrigues`)."""
    import numpy as np
    v0, v1, v2 = _floats(v)
    theta = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    half = _sinc(0.5 * theta)[0]
    a, b, g = _sinc(theta)[0], 0.5 * half * half, (-v0, -v1, -v2)
    # row i of exp_so3(v) is exp_so3(-v) e_i
    return np.array([_rodrigues(e, g, a, b) for e in (_EYE[:3], _EYE[3:6], _EYE[6:])])


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
    """Nearest rotation to ``m`` in the Frobenius norm (:func:`_fast_polar`).

    Requires an orientation-preserving input; raises ``SingularInputError``
    when ``det(m) <= 1e-12``.
    """
    import numpy as np
    x = _floats(m)
    det = _det(x)
    if det <= 1e-12:
        raise SingularInputError(f"determinant {det:.3e} is not positive")
    return np.reshape(_fast_polar(x), (3, 3))


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


_POLAR_STEPS = 16  # scaled Newton steps; singular values in [1e-160, 1e160] need <= 10


def _times_sym(m, s0, s1, s2, s4, s5, s8) -> tuple:
    """``m S`` for the symmetric ``S`` of entries 00, 01, 02, 11, 12, 22."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return (m0 * s0 + m1 * s1 + m2 * s2, m0 * s1 + m1 * s4 + m2 * s5, m0 * s2 + m1 * s5 + m2 * s8,
            m3 * s0 + m4 * s1 + m5 * s2, m3 * s1 + m4 * s4 + m5 * s5, m3 * s2 + m4 * s5 + m5 * s8,
            m6 * s0 + m7 * s1 + m8 * s2, m6 * s1 + m7 * s4 + m8 * s5, m6 * s2 + m7 * s5 + m8 * s8)


def _scaled_newton(m) -> list:
    """One polar step ``x <- (z x + x^-T / z) / 2`` on a row-major ``m``, with
    ``z = det(m)^(-1/3)``.  Raises ``SingularInputError`` when ``det(m)`` is
    at most 1e-12 and ``DivergenceError`` when it overflows."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    cof = (m4 * m8 - m5 * m7, m5 * m6 - m3 * m8, m3 * m7 - m4 * m6,
           m2 * m7 - m1 * m8, m0 * m8 - m2 * m6, m1 * m6 - m0 * m7,
           m1 * m5 - m2 * m4, m2 * m3 - m0 * m5, m0 * m4 - m1 * m3)  # det(m) m^-T
    det = m0 * cof[0] + m1 * cof[1] + m2 * cof[2]
    if det <= 1e-12:
        raise SingularInputError(f"determinant {det:.3e} is not positive")
    if not det < math.inf:  # +inf, or nan from inf - inf
        raise DivergenceError("state diverged: attitude determinant overflows")
    z = det ** (-1.0 / 3.0)
    return [0.5 * (z * x + z * z * y) for x, y in zip(m, cof)]  # m^-T / z = z^2 cof


def _fast_polar(m, steps: int = 0) -> tuple:
    """Polar factor (nearest rotation) of a row-major ``m`` with ``det m > 0``.

    Within 1e-4 of SO(3) (every entry of ``e = m^T m - I``), as RK4 leaves
    it in one step, two Newton-Schulz sweeps reach machine precision.
    Farther out, :func:`_scaled_newton` steps (Higham, SIAM J. Sci. Stat.
    Comput. 7, 1986; ``steps`` taken so far) bring ``m`` there first.
    Raises their errors, and ``DivergenceError`` when ``e`` is not finite or
    ``_POLAR_STEPS`` steps do not suffice.
    """
    a, b, c, d, f, g = _gram(m)
    a, d, g = a - 1.0, d - 1.0, g - 1.0
    lim = 1e-4
    if not (-lim <= a <= lim and -lim <= b <= lim and -lim <= c <= lim
            and -lim <= d <= lim and -lim <= f <= lim and -lim <= g <= lim):
        if not math.isfinite(a + b + c + d + f + g):
            raise DivergenceError("state diverged: attitude entries overflow")
        if steps == _POLAR_STEPS:
            raise DivergenceError(f"state diverged: no polar factor within {steps} Newton steps")
        return _fast_polar(_scaled_newton(m), steps + 1)
    x = _times_sym(  # m (I - e/2 + 3/8 e^2)
        m, 1.0 - 0.5 * a + 0.375 * (a * a + b * b + c * c),
        -0.5 * b + 0.375 * (a * b + b * d + c * f), -0.5 * c + 0.375 * (a * c + b * f + c * g),
        1.0 - 0.5 * d + 0.375 * (b * b + d * d + f * f), -0.5 * f + 0.375 * (b * c + d * f + f * g),
        1.0 - 0.5 * g + 0.375 * (c * c + f * f + g * g))
    a, b, c, d, f, g = _gram(x)  # x (I - (x^T x - I)/2)
    return _times_sym(x, 1.5 - 0.5 * a, -0.5 * b, -0.5 * c, 1.5 - 0.5 * d, -0.5 * f, 1.5 - 0.5 * g)


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
