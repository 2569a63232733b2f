"""Second-order forced variational attitude integrator on SO(3).

The scheme discretises the rotational action with the midpoint rule.  For a
step from ``T_k`` to ``T_{k+1}``:

* the midpoint attitude ``T_mid`` is the polar mean of the endpoints, with
  symmetric positive-definite factor ``V`` satisfying
  ``T_k + T_{k+1} = V T_mid``;
* the relative rotation ``R_rel = T_{k+1} T_k^T = exp_so3(psi)`` carries the
  space-frame step vector ``psi``;
* the midpoint body rate is ``omega_mid = T_mid^T psi / dt``.

Differentiating the step kinetic energy ``dt/2 * omega_mid . J omega_mid``
with respect to space-frame endpoint variations yields the two one-sided
momentum covectors ``theta_minus`` (at the lower node) and ``theta_plus``
(at the upper node); both hold *spatial* angular momentum and are equal for
every pair, which is exactly why the free flow conserves ``T J omega``.
External moments enter through weighted midpoint samples (``discrete_forces``).

A forced or ``"arc"`` step solves

    theta_minus(T_k, T_{k+1}) - dt * force_minus = T_k J omega_k

for the space-frame increment ``eta`` (``T_{k+1} = exp_so3(eta) @ T_k``) by a
damped Newton iteration with a forward-difference Jacobian, then reads the
new momentum off the upper transform.

A free ``"chord"`` step uses the same discrete Lagrangian written as
``(1/dt) tr((I - F) J_d)`` with ``F = T_k^T T_{k+1}`` and
``J_d = tr(J)/2 I - J``: the Lie group variational integrator of Lee, Leok &
McClamroch (CMAME 2007), i.e. the Moser-Veselov discrete rigid body.  It
solves the body-frame equation

    dt Pi_k = (sin|f|/|f|) J f + ((1 - cos|f|)/|f|^2) f x J f,
    Pi_k = T_k^T pi_k,

for the body increment ``f`` (``T_{k+1} = T_k exp_so3(f)``) by undamped
Newton with the closed-form Jacobian; it converges in about two iterations.
Attitudes stay on SO(3) exactly by construction; no re-orthogonalisation is
ever applied.

Two measures of the step rotation are supported in the discrete kinetic
energy (``IntegratorConfig.step_measure``):

* ``"arc"`` uses the rotation angle itself, ``psi``.  This is the textbook
  midpoint scheme; its free-body energy error is a bounded O(dt^2)
  oscillation.
* ``"chord"`` (default) uses ``2 sin(|psi|/2)`` along the same axis.  The
  resulting discrete free rigid body is integrable and conserves the kinetic
  energy itself to solver precision, not just a nearby shadow energy, so
  long-horizon runs show no measurable energy band at all.

Both are second-order accurate and conserve spatial momentum exactly.  The
public ``theta_minus``/``theta_plus`` operations always evaluate the arc
covectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMeanError, NoConvergenceError
from .rigid_body import InertiaTensor, RigidBodyState
from .so3 import SMALL_ANGLE, Array, cross3, exp_so3, hat, log_so3, tilde
from .timeseries import TimeSeries

_EYE3 = np.eye(3)

# Forward-difference step for the Newton Jacobian on the rotation increment.
_FD_STEP = 1e-7


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
class MidpointQuantities:
    """Per-interval geometric quantities shared by the momentum covectors.

    ``Y_k = T_k T_mid^T`` and ``Y_k1 = T_{k+1} T_mid^T`` are the half-step
    transforms; ``F_mat`` is the symmetric factor relating variations of
    ``psi`` to space-frame variations of ``R_rel``:
    ``F = ((|psi| cos|psi| - sin|psi|)/|psi|^3) psi psi^T + (sin|psi|/|psi|) I``.
    """

    T_mid: Array
    V: Array
    R_rel: Array
    psi: Array
    omega_mid: Array
    Y_k: Array
    Y_k1: Array
    F_mat: Array


@dataclass
class StepResult:
    T_next: Array
    omega_next: Array
    newton_iters: int
    residual: float
    pi_next: Array | None = None


def _check_step_angle(theta2: float) -> None:
    if theta2 > (np.pi - 1e-8) ** 2:
        raise DegenerateMeanError(
            f"relative rotation {np.sqrt(theta2):.6f} rad is (numerically) at pi;"
            " reduce dt"
        )


def _f_matrix(psi: Array) -> Array:
    theta2 = float(psi @ psi)
    theta = np.sqrt(theta2)
    if theta < SMALL_ANGLE:
        c_outer = -1.0 / 3.0 + theta2 / 30.0 - theta2 * theta2 / 840.0
        c_eye = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
    else:
        s, c = np.sin(theta), np.cos(theta)
        c_outer = (theta * c - s) / (theta2 * theta)
        c_eye = s / theta
    return c_outer * np.outer(psi, psi) + c_eye * _EYE3


def _mids_from_psi(t_k: Array, psi: Array, t_k1: Array | None, dt: float) -> MidpointQuantities:
    _check_step_angle(float(psi @ psi))
    r_rel = exp_so3(psi)
    if t_k1 is None:
        t_k1 = r_rel @ t_k
    t_mid = exp_so3(0.5 * psi) @ t_k
    v = (t_k + t_k1) @ t_mid.T
    return MidpointQuantities(
        T_mid=t_mid,
        V=v,
        R_rel=r_rel,
        psi=psi,
        omega_mid=(t_mid.T @ psi) / dt,
        Y_k=t_k @ t_mid.T,
        Y_k1=t_k1 @ t_mid.T,
        F_mat=_f_matrix(psi),
    )


def midpoint_quantities(t_k: Array, t_k1: Array, dt: float) -> MidpointQuantities:
    """Midpoint attitude, polar factor, step vector, and variation factors
    for the interval ``[T_k, T_{k+1}]``."""
    psi = log_so3(t_k1 @ t_k.T)
    return _mids_from_psi(t_k, psi, np.asarray(t_k1, dtype=float), dt)


def _momentum_covector(
    mids: MidpointQuantities,
    inertia: InertiaTensor,
    upper: bool,
    measure: str = "arc",
) -> Array:
    """Spatial momentum covector at the lower (``upper=False``) or upper node.

    For ``measure="chord"`` the step vector and its variation pick up the
    factors of the map ``psi -> 2 sin(|psi|/2) psi/|psi|``.
    """
    v_t = tilde(mids.V)
    g = 0.5 * np.linalg.solve(mids.F_mat, tilde(mids.R_rel))
    if measure == "arc":
        psi_eff = mids.psi
        omega_eff = mids.omega_mid
    else:
        theta2 = float(mids.psi @ mids.psi)
        theta = np.sqrt(theta2)
        if theta < SMALL_ANGLE:
            scale = 1.0 - theta2 / 24.0 + theta2 * theta2 / 1920.0
            dscale = -1.0 / 12.0 + theta2 / 480.0
        else:
            half = 0.5 * theta
            scale = 2.0 * np.sin(half) / theta
            dscale = (theta * np.cos(half) - 2.0 * np.sin(half)) / (theta2 * theta)
        psi_eff = scale * mids.psi
        omega_eff = scale * mids.omega_mid
        g = (scale * _EYE3 + dscale * np.outer(mids.psi, mids.psi)) @ g
    w = mids.T_mid @ (inertia.j @ omega_eff)
    if upper:
        a = hat(psi_eff) @ np.linalg.solve(v_t, tilde(mids.Y_k1)) + g
    else:
        a = g @ mids.R_rel - hat(psi_eff) @ np.linalg.solve(v_t, tilde(mids.Y_k))
    return a.T @ w


def theta_minus(t_k: Array, t_k1: Array, dt: float, inertia: InertiaTensor) -> Array:
    """One-sided discrete momentum at the lower node of ``[T_k, T_{k+1}]``
    (arc measure)."""
    return _momentum_covector(
        midpoint_quantities(t_k, t_k1, dt), inertia, upper=False, measure="arc"
    )


def theta_plus(t_km1: Array, t_k: Array, dt: float, inertia: InertiaTensor) -> Array:
    """One-sided discrete momentum at the upper node of ``[T_{k-1}, T_k]``
    (arc measure)."""
    return _momentum_covector(
        midpoint_quantities(t_km1, t_k, dt), inertia, upper=True, measure="arc"
    )


def _force_covector(mids: MidpointQuantities, y: Array, moment_body: Array) -> Array:
    """Weighted space-frame moment sample: ``tilde(Y)^T tilde(V)^-1 T_mid M``."""
    m_space = mids.T_mid @ moment_body
    return tilde(y).T @ np.linalg.solve(tilde(mids.V), m_space)


def discrete_forces(
    m_minus_half: Array,
    m_plus_half: Array,
    mids_before: MidpointQuantities,
    mids_after: MidpointQuantities,
) -> tuple[Array, Array]:
    """Discrete force covectors at a node flanked by two intervals.

    ``m_minus_half`` is the space-frame moment sampled on the earlier
    interval (whose quantities are ``mids_before``), ``m_plus_half`` on the
    later one.  Each output uses its own interval's ``V`` and the half-step
    transform that touches the shared node.
    """
    m_minus_half = np.asarray(m_minus_half, dtype=float)
    m_plus_half = np.asarray(m_plus_half, dtype=float)
    f_plus = tilde(mids_before.Y_k1).T @ np.linalg.solve(
        tilde(mids_before.V), m_minus_half
    )
    f_minus = tilde(mids_after.Y_k).T @ np.linalg.solve(tilde(mids_after.V), m_plus_half)
    return f_plus, f_minus


MomentFn = Callable[[float], Array]


def _trajectory_series(
    t_hist: Array,
    w_hist: Array,
    iters_h: Array,
    res_h: Array,
    dt: float,
    inertia: InertiaTensor,
) -> TimeSeries:
    """Assemble the standard free-body columns from trajectory arrays."""
    n_rec = t_hist.shape[0]
    cols: dict[str, np.ndarray] = {"t": dt * np.arange(n_rec)}
    for i in range(3):
        for j in range(3):
            cols[f"T{i}{j}"] = t_hist[:, i, j].copy()
    for a, ax in enumerate(("x", "y", "z")):
        cols[f"w_{ax}"] = w_hist[:, a].copy()
    jw = w_hist @ inertia.j.T
    cols["H"] = 0.5 * np.einsum("ij,ij->i", w_hist, jw)
    pi = np.einsum("kij,kj->ki", t_hist, jw)
    for a, ax in enumerate(("x", "y", "z")):
        cols[f"Pi_{ax}"] = pi[:, a].copy()
    gram = np.einsum("kji,kjl->kil", t_hist, t_hist) - np.eye(3)
    cols["ortho_defect"] = np.sqrt(np.einsum("kij,kij->k", gram, gram))
    cols["newton_iters"] = np.asarray(iters_h, dtype=float)
    cols["residual"] = np.asarray(res_h, dtype=float)
    return TimeSeries(cols)


def _free_chord_step(
    t_k: Array, omega_k: Array, pi_k: Array, inertia: InertiaTensor, cfg: IntegratorConfig
) -> StepResult:
    """Free ``"chord"`` step: Newton on the body increment ``f`` of
    ``dt Pi_k = a J f + b f x J f`` with ``a = sin|f|/|f|`` and
    ``b = (1 - cos|f|)/|f|^2``, started from ``f = dt omega_k``.

    The Jacobian is ``a J + b (hat(f) J - hat(J f)) + (da J f + db f x J f) f^T``
    with ``da = a'(|f|)/|f|`` and ``db = b'(|f|)/|f|``.  The residual is
    reported in momentum units (body residual / dt).
    """
    dt = cfg.dt
    jj = inertia.j
    target = dt * (t_k.T @ pi_k)
    f = dt * omega_k
    iters = 0
    while True:
        theta2 = float(f @ f)
        _check_step_angle(theta2)
        if theta2 < SMALL_ANGLE * SMALL_ANGLE:
            a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
            b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
            da = -1.0 / 3.0 + theta2 / 30.0 - theta2 * theta2 / 840.0
            db = -1.0 / 12.0 + theta2 / 180.0 - theta2 * theta2 / 6720.0
        else:
            theta = np.sqrt(theta2)
            s, c = np.sin(theta), np.cos(theta)
            a = s / theta
            b = (1.0 - c) / theta2
            da = (theta * c - s) / (theta2 * theta)
            db = (theta * s - 2.0 * (1.0 - c)) / (theta2 * theta2)
        jf = jj @ f
        fxjf = cross3(f, jf)
        res = a * jf + b * fxjf - target
        res_norm = float(np.abs(res).max()) / dt
        if res_norm <= cfg.newton_tol:
            break
        if iters == cfg.max_iters:
            raise NoConvergenceError(
                f"residual {res_norm:.3e} above tolerance {cfg.newton_tol:.1e} "
                f"after {iters} iterations"
            )
        jac = a * jj + b * (hat(f) @ jj - hat(jf)) + np.outer(da * jf + db * fxjf, f)
        try:
            f = f - np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Newton Jacobian at iter {iters}") from exc
        iters += 1
    t_k1 = t_k @ exp_so3(f)
    omega_k1 = inertia.j_inv @ (t_k1.T @ pi_k)
    return StepResult(t_k1, omega_k1, iters, res_norm, pi_k)


def vi_step(
    t_k: Array,
    omega_k: Array,
    moment_fn: MomentFn | None,
    inertia: InertiaTensor,
    cfg: IntegratorConfig,
    t: float = 0.0,
    pi_k: Array | None = None,
) -> StepResult:
    """Advance ``(T_k, omega_k)`` by one step of the implicit scheme.

    ``moment_fn(t_mid)`` supplies the body-frame moment at the interval
    midpoint time; pass ``None`` for free motion.  ``pi_k`` optionally
    supplies the spatial momentum directly (``simulate`` threads it through
    so long runs never re-derive the covariant state from ``omega``).
    Free ``"chord"`` steps solve the body-frame Lie group equation by
    Newton with the closed-form Jacobian; forced and ``"arc"`` steps solve
    the space-frame covector equation by damped Newton with a
    forward-difference Jacobian.  ``residual`` is the max-abs momentum
    residual at the returned step.  Raises ``NoConvergenceError`` if the
    Newton iteration stalls or ``max_iters`` runs out before ``newton_tol``
    is met, and ``DegenerateMeanError`` if an iterate reaches a 180-degree
    relative rotation (reduce ``dt``).
    """
    dt = cfg.dt
    jj = inertia.j
    if pi_k is None:
        pi_k = t_k @ (jj @ omega_k)
    chord = cfg.step_measure == "chord"
    if moment_fn is None and chord:
        return _free_chord_step(t_k, omega_k, pi_k, inertia, cfg)
    m_body = None
    if moment_fn is not None:
        m_body = np.asarray(moment_fn(t + 0.5 * dt), dtype=float)

    def residual(eta: Array) -> Array:
        # Fused lower-node covector evaluation.  With half = exp_so3(eta/2)
        # the interval quantities collapse to Y_k = half^T, Y_k1 = half,
        # V = half + half^T, R_rel = half half.
        theta2 = float(eta @ eta)
        _check_step_angle(theta2)
        half = exp_so3(0.5 * eta)
        r_rel = half @ half
        v_t = tilde(half + half.T)
        yk_t = tilde(half.T)
        g = 0.5 * np.linalg.solve(_f_matrix(eta), tilde(r_rel))
        if chord:
            theta = np.sqrt(theta2)
            if theta < SMALL_ANGLE:
                scale = 1.0 - theta2 / 24.0 + theta2 * theta2 / 1920.0
                dscale = -1.0 / 12.0 + theta2 / 480.0
            else:
                h = 0.5 * theta
                scale = 2.0 * np.sin(h) / theta
                dscale = (theta * np.cos(h) - 2.0 * np.sin(h)) / (theta2 * theta)
            psi_eff = scale * eta
            g = (scale * _EYE3 + dscale * np.outer(eta, eta)) @ g
        else:
            psi_eff = eta
        t_mid = half @ t_k
        w = t_mid @ (jj @ (t_k.T @ psi_eff)) / dt
        a = g @ r_rel - hat(psi_eff) @ np.linalg.solve(v_t, yk_t)
        th = a.T @ w
        if m_body is not None:
            th = th - dt * (yk_t.T @ np.linalg.solve(v_t, t_mid @ m_body))
        return th - pi_k

    eta = dt * (t_k @ omega_k)
    res = residual(eta)
    res_norm = float(np.max(np.abs(res)))
    iters = 0
    jac: Array | None = None

    def fd_jacobian(eta0: Array, res0: Array) -> Array:
        out = np.empty((3, 3))
        for col in range(3):
            bumped = eta0.copy()
            bumped[col] += _FD_STEP
            out[:, col] = (residual(bumped) - res0) / _FD_STEP
        return out

    while res_norm > cfg.newton_tol and iters < cfg.max_iters:
        if jac is None:
            jac = fd_jacobian(eta, res)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Newton Jacobian at iter {iters}") from exc
        step_scale = 1.0
        improved = False
        for _ in range(12):
            trial = eta + step_scale * delta
            trial_res = residual(trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < res_norm:
                eta, res, res_norm = trial, trial_res, trial_norm
                improved = True
                break
            step_scale *= 0.5
        iters += 1
        if not improved:
            if step_scale < 1.0:
                # refresh once before giving up
                jac = fd_jacobian(eta, res)
                try:
                    delta = np.linalg.solve(jac, -res)
                except np.linalg.LinAlgError as exc:
                    raise NoConvergenceError(
                        f"singular Newton Jacobian at iter {iters}"
                    ) from exc
                trial = eta + delta
                trial_res = residual(trial)
                trial_norm = float(np.max(np.abs(trial_res)))
                if trial_norm < res_norm:
                    eta, res, res_norm = trial, trial_res, trial_norm
                    continue
            raise NoConvergenceError(
                f"Newton stalled at residual {res_norm:.3e} after {iters} iterations"
            )
    if res_norm > cfg.newton_tol:
        raise NoConvergenceError(
            f"residual {res_norm:.3e} above tolerance {cfg.newton_tol:.1e} "
            f"after {iters} iterations"
        )
    # polish toward the floating-point floor: keeps the per-step momentum
    # defect at machine noise so 1e4-step runs accumulate no visible drift
    while jac is not None and iters < cfg.max_iters and res_norm > 0.0:
        trial = eta + np.linalg.solve(jac, -res)
        trial_res = residual(trial)
        trial_norm = float(np.max(np.abs(trial_res)))
        if trial_norm >= res_norm:
            break
        prev_norm = res_norm
        eta, res, res_norm = trial, trial_res, trial_norm
        iters += 1
        if trial_norm > 0.25 * prev_norm:
            break  # gains flattened out; at the noise floor

    mids = _mids_from_psi(t_k, eta, None, dt)
    t_k1 = mids.R_rel @ t_k
    # The step kinetic energy is left-invariant, so the upper covector equals
    # the lower one identically (tested as the theta_plus == theta_minus
    # property).  The converged solve is treated as exact, making the
    # momentum update pure bookkeeping: free motion transports pi unchanged
    # and forcing adds the two weighted moment samples.
    pi_k1 = pi_k
    if m_body is not None:
        pi_k1 = pi_k1 + dt * (
            _force_covector(mids, mids.Y_k, m_body)
            + _force_covector(mids, mids.Y_k1, m_body)
        )
    omega_k1 = inertia.j_inv @ (t_k1.T @ pi_k1)
    return StepResult(t_k1, omega_k1, iters, res_norm, pi_k1)


def simulate(
    initial: RigidBodyState,
    inertia: InertiaTensor,
    moment_fn: MomentFn | None,
    cfg: IntegratorConfig,
    t_final: float,
) -> TimeSeries:
    """Repeatedly apply :func:`vi_step` and record the trajectory.

    Columns: time, the nine attitude entries, body rates, kinetic energy
    ``H``, spatial momentum ``Pi``, the orthogonality defect, and per-step
    Newton diagnostics.  ``t_final = 0`` yields the single initial record.
    Each step runs :func:`vi_step`; a solver failure is re-raised with the
    step index and time.
    """
    dt = cfg.dt
    n_steps = int(round(t_final / dt)) if t_final > 0.0 else 0
    t_mat = np.asarray(initial.T, dtype=float)
    omega = np.asarray(initial.omega, dtype=float)

    t_hist = np.empty((n_steps + 1, 3, 3))
    w_hist = np.empty((n_steps + 1, 3))
    iters_h = np.zeros(n_steps + 1)
    res_h = np.zeros(n_steps + 1)
    t_hist[0], w_hist[0] = t_mat, omega
    pi = t_mat @ (inertia.j @ omega)
    for k in range(n_steps):
        try:
            result = vi_step(t_mat, omega, moment_fn, inertia, cfg, t=k * dt, pi_k=pi)
        except (NoConvergenceError, DegenerateMeanError) as exc:
            raise type(exc)(f"step {k} (t={k * dt:.6g}): {exc}") from exc
        t_mat, omega, pi = result.T_next, result.omega_next, result.pi_next
        t_hist[k + 1], w_hist[k + 1] = t_mat, omega
        iters_h[k + 1], res_h[k + 1] = result.newton_iters, result.residual
    return _trajectory_series(t_hist, w_hist, iters_h, res_h, dt, inertia)
