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
``pi_{k+1} = pi_k + dt T_mid M``.  Newton runs on ``f`` with the
closed-form Jacobian of ``G``; the O(dt^2) force term and the O(|f|^4)
derivative of the arc ``c`` are left out of the Jacobian, and every case
converges in about two iterations.  Every coefficient comes from
``so3._sinc`` by the half-angle identities listed in ``so3``: with
``y = |f|/2``, the chord ``(1 - cos|f|)/|f|^2 = a(y)^2/2``, the arc
``c = -d(y)/(4 a(y))`` and ``tan(|f|/4)/|f| = a(|f|/4)/(4 cos(|f|/4))``.  Attitudes stay
on SO(3) exactly by construction; no re-orthogonalisation is ever applied.
The space-frame derivation of the same equation (midpoint quantities,
momentum covectors ``theta_minus``/``theta_plus`` and ``discrete_forces``)
is kept in ``tests/oracles.py``, as the oracle the tests check
:func:`vi_step` against.

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
from dataclasses import dataclass

import numpy as np

from .errors import _TRAP_FP, GeomechError, NoConvergenceError, _step_failure
from .rigid_body import InertiaTensor, RigidBodyState, energy_momentum_rows
from .so3 import Array, _check_step_angle, _sinc, cross3, exp_so3, hat, orthogonality_defects
from .timeseries import TimeSeries


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


def _body_force_minus(f: Array, theta: float, moment_body: Array) -> Array:
    """``T_k^T`` times the lower force covector (``discrete_forces`` of the
    test oracle): ``(M + (tan(|f|/4)/|f|) f x M)/2`` for the body increment
    ``f`` of angle ``theta``, with ``tan(x/4)/x = a(x/4) / (4 cos(x/4))``."""
    quarter = 0.25 * theta
    tau = 0.25 * _sinc(quarter)[0] / math.cos(quarter)
    return 0.5 * (moment_body + tau * cross3(f, moment_body))


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
    re-derive the covariant state from ``omega``).

    Solves ``G(f) - dt^2 F_minus(f, M) = dt T_k^T pi_k`` for the body
    increment ``f`` (see the module docstring) by Newton from
    ``f = dt omega_k``, with the closed-form Jacobian of the measure's left
    side ``G``; the O(dt^2) force term and the O(|f|^4) derivative of the arc
    coefficient are left out of the Jacobian.  The new
    momentum is ``pi_k + dt T_mid M``.  ``residual`` is the max-abs body
    residual divided by ``dt`` (momentum units) at the returned step.
    Raises ``NoConvergenceError`` if ``max_iters`` runs out before
    ``newton_tol`` is met or the Jacobian is singular, and
    ``DegenerateMeanError`` if an iterate reaches a 180-degree relative
    rotation (reduce ``dt``).
    """
    dt = cfg.dt
    jj = inertia.j
    if pi_k is None:
        pi_k = t_k @ (jj @ omega_k)
    chord = cfg.step_measure == "chord"
    m_body = None if moment is None else np.asarray(moment, dtype=float)
    target = dt * (t_k.T @ pi_k)
    f = dt * omega_k
    iters = 0
    while True:
        theta2 = float(f @ f)
        _check_step_angle(theta2)
        theta = math.sqrt(theta2)
        half_a, half_d = _sinc(0.5 * theta)
        jf = jj @ f
        fxjf = cross3(f, jf)
        if chord:
            # a = sin|f|/|f|, b = (1 - cos|f|)/|f|^2, and their derivatives over |f|
            a, da = _sinc(theta)
            b, db = 0.5 * half_a * half_a, 0.25 * half_a * half_d
            res = a * jf + b * fxjf - target
        else:
            c = -0.25 * half_d / half_a  # the dexp^{-1} coefficient (module docstring)
            fxfxjf = cross3(f, fxjf)
            res = jf + 0.5 * fxjf + c * fxfxjf - target
        if m_body is not None:
            res = res - (dt * dt) * _body_force_minus(f, theta, m_body)
        res_norm = float(np.abs(res).max()) / dt
        if res_norm <= cfg.newton_tol:
            break
        if iters == cfg.max_iters:
            raise NoConvergenceError(
                f"residual {res_norm:.3e} above tolerance {cfg.newton_tol:.1e} "
                f"after {iters} iterations"
            )
        f_hat = hat(f)
        d_fxjf = f_hat @ jj - hat(jf)  # derivative of f x J f
        if chord:
            jac = a * jj + b * d_fxjf + np.outer(da * jf + db * fxjf, f)
        else:
            jac = jj + 0.5 * d_fxjf + c * (f_hat @ d_fxjf - hat(fxjf))
        try:
            f = f - np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Newton Jacobian at iter {iters}") from exc
        iters += 1
    t_k1 = t_k @ exp_so3(f)
    # The two force covectors sum to the midpoint moment T_mid M, and
    # T_mid = T_k exp_so3(f/2); free motion transports pi unchanged.
    pi_k1 = pi_k
    if m_body is not None:
        pi_k1 = pi_k + dt * (t_k @ (exp_so3(0.5 * f) @ m_body))
    omega_k1 = inertia.j_inv @ (t_k1.T @ pi_k1)
    return StepResult(t_k1, omega_k1, iters, res_norm, pi_k1)


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
) -> TimeSeries:
    """Repeatedly apply :func:`vi_step` and record the trajectory.

    Columns: time, the nine attitude entries, body rates, kinetic energy
    ``H``, spatial momentum ``Pi``, the orthogonality defect, and per-step
    Newton diagnostics.  ``t_final = 0`` yields the single initial record.
    Every step sees the same constant body ``moment`` (``None``: free motion).
    The steps run under the floating-point trap of the run loops, and any
    failure is re-raised through ``errors._step_failure``, naming the step.
    """
    dt = cfg.dt
    n_steps = int(round(t_final / dt)) if t_final > 0.0 else 0
    t_mat = np.asarray(initial.T, dtype=float)
    omega = np.asarray(initial.omega, dtype=float)

    table = np.zeros((n_steps + 1, len(_SIMULATE_COLUMNS)))
    col = _SIMULATE_COLUMNS.index
    t_hist, w_hist = table[:, col("T00"):col("T22") + 1], table[:, col("w_x"):col("w_z") + 1]
    iters_h, res_h = table[:, col("newton_iters")], table[:, col("residual")]
    t_hist[0], w_hist[0] = t_mat.ravel(), omega
    pi = t_mat @ (inertia.j @ omega)
    try:
        with np.errstate(**_TRAP_FP):
            for k in range(n_steps):
                result = vi_step(t_mat, omega, moment, inertia, cfg, pi_k=pi)
                t_mat, omega, pi = result.T_next, result.omega_next, result.pi_next
                t_hist[k + 1], w_hist[k + 1] = t_mat.ravel(), omega
                iters_h[k + 1], res_h[k + 1] = result.newton_iters, result.residual
    except (ArithmeticError, GeomechError) as exc:
        raise _step_failure(exc, k, dt) from None
    table[:, col("t")] = dt * np.arange(n_steps + 1)
    table[:, col("H")], table[:, col("Pi_x"):col("Pi_z") + 1] = energy_momentum_rows(
        t_hist, w_hist, inertia)
    table[:, col("ortho_defect")] = orthogonality_defects(t_hist)
    return TimeSeries(_SIMULATE_COLUMNS, table)
