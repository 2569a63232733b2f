"""Second-order forced variational attitude integrator on SO(3).

The scheme discretises the rotational action with the midpoint rule and
matches discrete momenta at the lower node of each step (the forced
discrete Lagrange-d'Alembert equation of Marsden & West, Acta Numerica
2001).  A step solves that equation in the body frame for the increment
``f`` with ``T_{k+1} = T_k exp_so3(f)``:

    G(f) - dt^2 F_minus(f, M) = dt Pi_k,    Pi_k = T_k^T pi_k.

The step energy is left-invariant, so ``G(f)``, ``dt T_k^T`` times the
lower momentum covector, depends on ``f`` alone; the step measure (below)
picks it:

* ``"chord"``: ``G = (sin|f|/|f|) J f + ((1 - cos|f|)/|f|^2) f x J f``, the
  Lie group variational integrator of Lee, Leok & McClamroch (CMAME 2007),
  i.e. the Moser-Veselov discrete rigid body;
* ``"arc"``: ``G = dexp_f^{-T} J f = J f + f x J f / 2 + c f x (f x J f)``
  with ``c = 1/|f|^2 - (1 + cos|f|)/(2 |f| sin|f|)``.

``F_minus = (M + (tan(|f|/4)/|f|) f x M)/2`` is ``T_k^T`` times the lower
force covector for the body moment ``M``, which is constant over the step
(there is no time sampling: a step sees only the vector it is given).  The
two force covectors sum to ``T_mid M``, so the momentum update is
``pi_{k+1} = pi_k + dt T_mid M``.  Newton runs on ``f`` from ``dt omega_k``
with the closed-form Jacobian of ``G``; the O(dt^2) force term and the
O(|f|^4) derivative of the arc ``c`` are left out of the Jacobian, and every
case converges in about two iterations.  One core on Python floats serves
both measures, free or forced, and solves each 3x3 Newton system by the
adjugate: the Jacobian stays close to the well-conditioned ``J``.
:func:`vi_step` converts arrays at its boundary.  Rotations apply
``so3._rodrigues``, and every coefficient comes from ``so3._sinc`` by the
half-angle identities listed in ``so3``: with
``y = |f|/2``, the chord ``(1 - cos|f|)/|f|^2 = a(y)^2/2``, the arc
``c = -d(y)/(4 a(y))`` and ``tan(|f|/4)/|f| = a(|f|/4)/(4 cos(|f|/4))``.
Attitudes stay on SO(3) exactly by construction; no re-orthogonalisation is
ever applied.  The space-frame derivation of the same equation (midpoint
quantities, momentum covectors ``theta_minus``/``theta_plus`` and
``discrete_forces``) is kept in ``tests/oracles.py``, as the oracle the
tests check :func:`vi_step` against.

Two measures of the step rotation are supported in the discrete kinetic
energy (``IntegratorConfig.step_measure``):

* ``"arc"`` uses the rotation angle itself.  This is the textbook
  midpoint scheme; its free-body energy error is a bounded O(dt^2)
  oscillation.
* ``"chord"`` (default) uses ``2 sin(angle/2)`` along the same axis.  The
  resulting discrete free rigid body is integrable and conserves the kinetic
  energy itself to solver precision, not just a nearby shadow energy, so
  long-horizon runs show no measurable energy band at all.

Both are second-order accurate and conserve spatial momentum exactly.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .errors import _STEP_ERRORS, DivergenceError, NoConvergenceError, _step_failure
from .rigid_body import InertiaTensor, RigidBodyState, _energy_momentum, _require_finite
from .so3 import Array, _check_step_angle, _floats, _ortho_defect, _rodrigues, _sinc
from .timeseries import _CSV_BLOCK_ROWS, TimeSeries


@dataclass
class IntegratorConfig:
    dt: float
    newton_tol: float = 1e-12
    max_iters: int = 50
    step_measure: str = "chord"

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_measure not in ("chord", "arc"):
            raise ValueError(f"unknown step_measure {self.step_measure!r}")


@dataclass
class StepResult:
    T_next: Array
    omega_next: Array
    newton_iters: int
    residual: float
    pi_next: Array


def _d_cross(f, m, v) -> tuple:
    """``hat(f) M - hat(v)`` (row-major) for 3-sequences ``f``, ``v`` and a
    row-major ``M``: the derivative of ``f x M f`` when ``v = M f``."""
    (f0, f1, f2), (v0, v1, v2) = f, v
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return (f1 * m6 - f2 * m3, f1 * m7 - f2 * m4 + v2, f1 * m8 - f2 * m5 - v1,
            f2 * m0 - f0 * m6 - v2, f2 * m1 - f0 * m7, f2 * m2 - f0 * m8 + v0,
            f0 * m3 - f1 * m0 + v1, f0 * m4 - f1 * m1 - v0, f0 * m5 - f1 * m2)


def _newton_jacobian(f, jj, h, x, whole, half: tuple, chord: bool) -> list:
    """Closed-form Jacobian (row-major) of ``G`` at ``f``, given ``h = J f``,
    ``x = f x J f``, ``half = _sinc(|f| / 2)`` and, for the chord measure,
    ``whole = _sinc(|f|)``; the arc's ``c`` is held fixed (module docstring)."""
    (f0, f1, f2), (h0, h1, h2), (x0, x1, x2) = f, h, x
    half_a, half_d = half
    d = _d_cross(f, jj, h)  # derivative of f x J f
    if chord:
        # a = sin|f|/|f|, b = (1 - cos|f|)/|f|^2, and their derivatives over |f|
        (a, da), b, db = whole, 0.5 * half_a * half_a, 0.25 * half_a * half_d
        u0, u1, u2 = da * h0 + db * x0, da * h1 + db * x1, da * h2 + db * x2
        e = (u0 * f0, u0 * f1, u0 * f2, u1 * f0, u1 * f1, u1 * f2, u2 * f0, u2 * f1, u2 * f2)
        return [a * ji + b * di + ei for ji, di, ei in zip(jj, d, e)]
    c = -0.25 * half_d / half_a
    e = _d_cross(f, d, x)
    return [ji + 0.5 * di + c * ei for ji, di, ei in zip(jj, d, e)]


def _vi_core(tm, w, pi, m, inertia: InertiaTensor, cfg: IntegratorConfig):
    """One step of every kind on Python floats: ``tm`` (``T_k``, row-major),
    ``w`` (``omega_k``), ``pi`` (``pi_k``) and the body moment ``m`` (``None``:
    free motion) are float sequences.  Returns ``(T_{k+1}, omega_{k+1},
    pi_{k+1}, iterations, residual)``; :func:`vi_step` states the failures."""
    dt, tol, chord = cfg.dt, cfg.newton_tol, cfg.step_measure == "chord"
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = tm
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = jj = inertia.j_rows
    p0, p1, p2 = pi
    g0, g1, g2 = (dt * (t0 * p0 + t3 * p1 + t6 * p2), dt * (t1 * p0 + t4 * p1 + t7 * p2),
                  dt * (t2 * p0 + t5 * p1 + t8 * p2))  # dt T_k^T pi_k
    f0, f1, f2 = dt * w[0], dt * w[1], dt * w[2]
    for iters in range(cfg.max_iters + 1):
        theta2 = f0 * f0 + f1 * f1 + f2 * f2
        if not math.isfinite(theta2):
            raise DivergenceError("state diverged: overflow in the step increment")
        _check_step_angle(theta2)
        theta = math.sqrt(theta2)
        half_a, half_d = _sinc(0.5 * theta)
        h0, h1, h2 = (j0 * f0 + j1 * f1 + j2 * f2, j3 * f0 + j4 * f1 + j5 * f2,
                      j6 * f0 + j7 * f1 + j8 * f2)  # J f
        x0, x1, x2 = f1 * h2 - f2 * h1, f2 * h0 - f0 * h2, f0 * h1 - f1 * h0  # f x J f
        if chord:
            # a = sin|f|/|f| and b = (1 - cos|f|)/|f|^2
            whole = _sinc(theta)
            a, b = whole[0], 0.5 * half_a * half_a
            r0, r1, r2 = a * h0 + b * x0 - g0, a * h1 + b * x1 - g1, a * h2 + b * x2 - g2
        else:
            whole, c = None, -0.25 * half_d / half_a  # c: the dexp^{-1} coefficient
            y0, y1, y2 = f1 * x2 - f2 * x1, f2 * x0 - f0 * x2, f0 * x1 - f1 * x0
            r0, r1, r2 = (h0 + 0.5 * x0 + c * y0 - g0, h1 + 0.5 * x1 + c * y1 - g1,
                          h2 + 0.5 * x2 + c * y2 - g2)
        if m is not None:
            # dt^2 F_minus = dt^2 (M + tau f x M)/2 with tau = a(|f|/4) / (4 cos(|f|/4))
            (m0, m1, m2), quarter_a = m, _sinc(0.25 * theta)[0]
            tau, s = 0.25 * quarter_a / math.cos(0.25 * theta), dt * dt
            r0 -= s * (0.5 * (m0 + tau * (f1 * m2 - f2 * m1)))
            r1 -= s * (0.5 * (m1 + tau * (f2 * m0 - f0 * m2)))
            r2 -= s * (0.5 * (m2 + tau * (f0 * m1 - f1 * m0)))
        res = max(abs(r0), abs(r1), abs(r2)) / dt
        if res <= tol:
            break
        if iters == cfg.max_iters:
            raise NoConvergenceError(
                f"residual {res:.3e} above tolerance {tol:.1e} after {iters} iterations")
        # f -= jac^-1 r by the adjugate; the first row's cofactors give det
        k0, k1, k2, k3, k4, k5, k6, k7, k8 = _newton_jacobian(
            (f0, f1, f2), jj, (h0, h1, h2), (x0, x1, x2), whole, (half_a, half_d), chord)
        c0, c1, c2 = k4 * k8 - k5 * k7, k5 * k6 - k3 * k8, k3 * k7 - k4 * k6
        det = k0 * c0 + k1 * c1 + k2 * c2
        if not (det != 0.0 and math.isfinite(det)):
            raise NoConvergenceError(f"singular Newton Jacobian at iter {iters}")
        f0, f1, f2 = (f0 - (c0 * r0 + (k2 * k7 - k1 * k8) * r1 + (k1 * k5 - k2 * k4) * r2) / det,
                      f1 - (c1 * r0 + (k0 * k8 - k2 * k6) * r1 + (k2 * k3 - k0 * k5) * r2) / det,
                      f2 - (c2 * r0 + (k1 * k6 - k0 * k7) * r1 + (k0 * k4 - k1 * k3) * r2) / det)
    if m is not None:  # pi_k + dt T_mid M with T_mid = T_k exp_so3(f/2)
        u0, u1, u2 = _rodrigues(m, (0.5 * f0, 0.5 * f1, 0.5 * f2), half_a,
                                0.5 * quarter_a * quarter_a)
        p0, p1, p2 = (p0 + dt * (t0 * u0 + t1 * u1 + t2 * u2),
                      p1 + dt * (t3 * u0 + t4 * u1 + t5 * u2),
                      p2 + dt * (t6 * u0 + t7 * u1 + t8 * u2))
    a, b = (a, b) if chord else (_sinc(theta)[0], 0.5 * half_a * half_a)
    # row i of T_{k+1} = T_k exp_so3(f) is exp_so3(-f) applied to row i of T_k
    g = (-f0, -f1, -f2)
    n = (*_rodrigues(tm[:3], g, a, b), *_rodrigues(tm[3:6], g, a, b), *_rodrigues(tm[6:], g, a, b))
    q0, q1, q2 = (n[0] * p0 + n[3] * p1 + n[6] * p2, n[1] * p0 + n[4] * p1 + n[7] * p2,
                  n[2] * p0 + n[5] * p1 + n[8] * p2)  # T_{k+1}^T pi_{k+1}
    i0, i1, i2, i3, i4, i5, i6, i7, i8 = inertia.j_inv_rows
    w_new = (i0 * q0 + i1 * q1 + i2 * q2, i3 * q0 + i4 * q1 + i5 * q2, i6 * q0 + i7 * q1 + i8 * q2)
    _require_finite({"T": n, "omega": w_new, "pi": (p0, p1, p2)})
    return n, w_new, (p0, p1, p2), iters, res


def vi_step(
    t_k: Array,
    omega_k: Array,
    moment: Array | None,
    inertia: InertiaTensor,
    cfg: IntegratorConfig,
    pi_k: Array | None = None,
) -> StepResult:
    """Advance ``(T_k, omega_k)`` by one step of the implicit scheme.

    ``moment`` is the body-frame moment ``M``, constant over the step; pass
    ``None`` for free motion.  ``pi_k`` optionally supplies the spatial
    momentum directly (``simulate`` threads it through so long runs never
    re-derive the covariant state from ``omega``).  ``residual`` is the
    max-abs body residual divided by ``dt`` (momentum units) at the returned
    step.  Raises ``NoConvergenceError`` if ``max_iters`` runs out before
    ``newton_tol`` is met or the Jacobian is singular, ``DegenerateMeanError``
    if an iterate reaches a 180-degree relative rotation (reduce ``dt``), and
    ``DivergenceError`` if the increment overflows or the stepped ``T``,
    ``omega`` or ``pi`` is not finite.
    """
    import numpy as np
    tm, w = _floats(t_k), _floats(omega_k)
    pi = _energy_momentum(tm, w, inertia.j_rows)[1:] if pi_k is None else _floats(pi_k)
    t_new, w_new, pi_new, iters, res = _vi_core(
        tm, w, pi, None if moment is None else _floats(moment), inertia, cfg)
    return StepResult(np.array(t_new).reshape(3, 3), np.array(w_new), iters, res, np.array(pi_new))


_SIMULATE_COLUMNS = (
    "t", *(f"T{i}{j}" for i in range(3) for j in range(3)), "w_x", "w_y", "w_z", "H",
    "Pi_x", "Pi_y", "Pi_z", "ortho_defect", "newton_iters", "residual",
)


def simulate(
    initial: RigidBodyState,
    inertia: InertiaTensor,
    moment: Array | None,
    cfg: IntegratorConfig,
    t_final: float,
    sink=None,
) -> TimeSeries:
    """Repeatedly apply the step of :func:`vi_step` (its float core) and
    record the trajectory.

    Columns: time, the nine attitude entries, body rates, kinetic energy
    ``H``, spatial momentum ``Pi``, the orthogonality defect, and per-step
    Newton diagnostics.  ``t_final = 0`` yields the single initial record.
    Every step sees the same constant body ``moment`` (``None``: free motion).
    Each finished block of rows goes to ``sink`` (see ``runner.run``).
    The float step checks its own arithmetic, and any failure is re-raised
    through ``errors._step_failure``, naming the step.
    """
    dt, jj = cfg.dt, inertia.j_rows
    n_steps = int(round(t_final / dt)) if t_final > 0.0 else 0
    m = None if moment is None else [float(x) for x in moment]
    t_mat, omega = initial.t_rows, initial.omega_rows
    pi = _energy_momentum(t_mat, omega, jj)[1:]
    data = array("d")
    iters = res = 0.0  # the initial record has no step
    try:
        for k in range(n_steps + 1):
            data.extend((k * dt, *t_mat, *omega, *_energy_momentum(t_mat, omega, jj),
                         _ortho_defect(t_mat), iters, res))
            if sink is not None and k % _CSV_BLOCK_ROWS == _CSV_BLOCK_ROWS - 1:
                sink(_SIMULATE_COLUMNS, data)
            if k < n_steps:
                t_mat, omega, pi, iters, res = _vi_core(t_mat, omega, pi, m, inertia, cfg)
    except _STEP_ERRORS as exc:
        raise _step_failure(exc, k, dt) from None
    return TimeSeries(_SIMULATE_COLUMNS, data)
