"""Batch scenario execution: runs a validated scenario and produces the
CSV-ready time series plus a JSON metrics summary.

Scenario kinds
--------------
``free_body``
    Variational integrator on the free (or constantly forced) rigid body.
``attitude_track``
    Closed attitude loop: backstepping torque on the RK4 plant with
    per-stage torque evaluation at the scenario time step.
``quad_track``
    Full position/attitude tracking loop at a fixed controller tick, with
    the rotor-aerodynamics wrench optionally replacing the ideal actuation.
``integrator_compare``
    The variational and RK4 integrators side by side on bit-identical
    initial data and forcing.
"""

from __future__ import annotations

import math

import numpy as np

from .attitude_control import _torque_kernel
from .errors import _TRAP_FP, GeomechError, SolverError, _step_failure
from .quadrotor import (
    ControllerMemory,
    ROTOR_SPIN,
    rotor_positions,
    rotor_thrusts,
    tracking_step,
    translational_storage,
)
from .references import _euler_321_raw, circle_reference, gimbal_proximity
from .rigid_body import _attitude_rk4_core, _floats, energy_momentum_rows, rk4_quadrotor_step
from .so3 import hat, orthogonality_defects
from .rotor_aero import (
    AirState,
    HoverCalibration,
    hover_rotor_speed,
    induced_velocity,
    inflow_ratio,
    rotor_wrench,
    thrust_coefficient,
    torque_coefficient,
)
from .scenario import Scenario
from .timeseries import MetricsSummary, TimeSeries, write_outputs  # noqa: F401
from .variational import IntegratorConfig, simulate


def settling_time(t: np.ndarray, signal: np.ndarray, fraction: float = 0.05):
    """First time after which ``signal`` stays below ``fraction`` of its
    initial value for the remainder of the run; ``(None, False)`` if it
    never settles."""
    s0 = float(signal[0])
    if s0 <= 0.0:
        return float(t[0]), True
    threshold = fraction * s0
    above = np.where(signal >= threshold)[0]
    if len(above) == 0:
        return float(t[0]), True
    last = int(above[-1])
    if last == len(t) - 1:
        return None, False
    return float(t[last + 1]), True


def steady_state_value(signal: np.ndarray, fraction: float = 0.1) -> float:
    """Mean of the last ``fraction`` of the samples."""
    n = max(1, int(round(fraction * len(signal))))
    return float(np.mean(signal[-n:]))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``."""
    return np.sqrt(np.einsum("ni,ni->n", v, v))


def run(scenario: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    """Execute a scenario deterministically.

    The whole run is under the floating-point trap ``_TRAP_FP``.  The step
    loops name the step that fails (``_step_failure``); any other library or
    arithmetic error, in setting the run up or in its derived columns and
    metrics, becomes a ``SolverError`` too.
    """
    kinds = {
        "free_body": _run_free_body,
        "attitude_track": _run_attitude_track,
        "quad_track": _run_quad_track,
        "integrator_compare": _run_integrator_compare,
    }
    try:
        with np.errstate(**_TRAP_FP):
            return kinds[scenario.kind](scenario)
    except SolverError:
        raise
    except (ArithmeticError, GeomechError) as exc:
        raise SolverError(f"outside the step loop: {exc}") from None


# ------------------------------------------------------------- free body


def _vi_config(sc: Scenario) -> IntegratorConfig:
    return IntegratorConfig(
        dt=sc.dt,
        newton_tol=sc.newton_tol,
        max_iters=sc.max_iters,
        step_measure=sc.step_measure,
    )


def _constant_moment_fn(moment):
    if moment is None:
        return None
    m = np.asarray(moment, dtype=float)
    return lambda t: m


def _run_free_body(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    series = simulate(
        sc.initial, sc.inertia, _constant_moment_fn(sc.moment), _vi_config(sc), sc.t_final
    )
    metrics = _free_body_metrics(series)
    return series, metrics


def _free_body_metrics(series: TimeSeries) -> MetricsSummary:
    h = series.column("H")
    pi = series.vector("Pi")
    iters = series.column("newton_iters")
    drift = float(np.max(np.abs(h - h[0])) / abs(h[0])) if h[0] != 0.0 else 0.0
    # the initial row records 0 iterations and residual, so both maxima exist
    return MetricsSummary(
        energy_drift_max_rel=drift,
        momentum_drift_max=float(np.max(np.linalg.norm(pi - pi[0], axis=1))),
        orthogonality_defect_max=float(np.max(series.column("ortho_defect"))),
        newton_iters_mean=float(np.mean(iters[1:])) if len(iters) > 1 else 0.0,
        extras={
            "newton_iters_max": float(np.max(iters)),
            "residual_max": float(np.max(series.column("residual"))),
        },
    )


# -------------------------------------------------------- attitude tracking

_ATTITUDE_COLUMNS = (
    "t", *(f"R{i}{j}" for i in range(3) for j in range(3)), "w_x", "w_y", "w_z",
    "psi", "e_R_norm", "e_Omega_norm", "q_x", "q_y", "q_z", "V_storage", "ortho_defect",
    "gimbal_proximity",
)


def _attitude_loop_numpy(ref, sc: Scenario):
    """Closed attitude loop: the float torque kernel on the float RK4 core.

    ``ref`` holds ``R_d`` (row-major), ``Omega_d`` and ``dOmega_d`` on the
    half-step grid, so stage time ``t`` reads row ``round(2 t / dt)``, one
    row of Python floats at a time.
    The torque at ``(t_k, T_k, Omega_k)`` is recorded and reused as the
    step's RK4 stage 1.  Each step writes only the state, the torque,
    ``e_R``, ``e_Omega`` and ``1 + tr E`` into the preallocated tables; the
    derived columns are formed after the loop.  Returns the table of
    ``_ATTITUDE_COLUMNS``, one row per step; the caller fills ``t`` and
    ``gimbal_proximity``.  The loop is no longer numpy; its name is kept only
    because the benchmark's tracer looks it up as ``runner._attitude_loop_numpy``.
    """
    dt, gains = sc.dt, sc.attitude_gains
    jj, jinv = _floats(sc.inertia.j), _floats(sc.inertia.j_inv)
    p_g, f_g = _floats(gains.P), _floats(gains.F)
    n = (ref.shape[0] - 1) // 2
    table = np.empty((n + 1, len(_ATTITUDE_COLUMNS)))
    side = np.empty((n + 1, 7))  # e_R, e_Omega, 1 + tr E
    t_mat, w = _floats(sc.initial.T), _floats(sc.initial.omega)

    def torque(idx, tm, wi):
        row = ref[idx].tolist()
        return _torque_kernel(tm, row[:9], row[9:12], row[12:], wi, jj, p_g, f_g)

    def stage_torque(t, tm, wi):
        return torque(round(2.0 * t / dt), tm, wi)[0]

    try:
        for k in range(n + 1):
            q, e_r, e_om, one_plus_tr = torque(2 * k, t_mat, w)
            # t and the derived columns (the 0.0 slots) are filled after the loop
            table[k] = (0.0, *t_mat, *w, 0.0, 0.0, 0.0, *q, 0.0, 0.0, 0.0)
            side[k] = (*e_r, *e_om, one_plus_tr)
            if k < n:
                t_mat, w = _attitude_rk4_core(t_mat, w, jj, jinv, stage_torque, k * dt, dt, q)
    except (ArithmeticError, GeomechError) as exc:
        raise _step_failure(exc, k, dt) from None

    col = _ATTITUDE_COLUMNS.index
    e_r, e_om = side[:, :3], side[:, 3:6]
    err = e_om + e_r @ gains.P.T  # Omega - Omega_target
    psi = 2.0 - np.sqrt(side[:, 6])
    table[:, col("psi")] = psi
    table[:, col("e_R_norm")] = _row_norms(e_r)
    table[:, col("e_Omega_norm")] = _row_norms(e_om)
    table[:, col("V_storage")] = (
        gains.k_R * psi + 0.5 * np.einsum("ni,ij,nj->n", err, gains.S, err)
    )
    table[:, col("ortho_defect")] = orthogonality_defects(table[:, col("R00"):col("R22") + 1])
    return table


def _run_attitude_track(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    dt = sc.dt
    n = int(round(sc.t_final / dt)) if sc.t_final > 0.0 else 0
    coeffs = sc.euler_coeffs

    # reference samples on the half grid cover every RK4 stage time, in one
    # (2n+1, 15) array; the three arrays it is built from die with this statement
    t_half = 0.5 * dt * np.arange(2 * n + 1)
    table = _attitude_loop_numpy(np.concatenate(
        [a.reshape(2 * n + 1, -1) for a in _euler_321_raw(t_half, coeffs)], axis=1), sc)
    t = t_half[::2].copy()
    table[:, 0], table[:, -1] = t, gimbal_proximity(t, coeffs)
    series = TimeSeries(_ATTITUDE_COLUMNS, table)
    psi_col = series.column("psi")
    settle, settled = settling_time(series.t, psi_col)
    storage = series.column("V_storage")
    metrics = MetricsSummary(
        orthogonality_defect_max=float(np.max(series.column("ortho_defect"))),
        settling_time_5pct=settle,
        settled=settled,
        steady_state_error=steady_state_value(psi_col),
        extras={
            "storage_max_increase": float(np.max(np.diff(storage)))
            if len(storage) > 1
            else 0.0,
            "gimbal_proximity_count": float(np.sum(series.column("gimbal_proximity"))),
        },
    )
    return series, metrics


# -------------------------------------------------------- quadrotor tracking

_QUAD_COLUMNS = (
    "t", *(f"{name}_{ax}" for name in ("r", "v", "Omega", "e_r", "q") for ax in "xyz"),
    *(f"R{i}{j}" for i in range(3) for j in range(3)),
    "e_r_norm", "e_v_norm", "psi_cmd", "e_R_norm", "e_Omega_norm", "f",
    "V_translational", "thrust_negative", "ortho_defect",
)


class _AeroModel:
    """Rotor-level actuation: converts the commanded (thrust, torque) into
    per-rotor shaft speeds via the static hover calibration, then evaluates
    the delivered aerodynamic wrench at the current flight state."""

    def __init__(self, sc: Scenario):
        params = sc.vehicle
        self.geom = sc.aero.geometry
        self.rho = sc.aero.rho
        self.params = params
        self.arms = rotor_positions(params.arm_length)
        # per rotor: arm x, arm y (the arms lie in the body x-y plane), spin sign
        self.rotors = [(ax, ay, spin) for (ax, ay, _), spin
                       in zip(self.arms.tolist(), ROTOR_SPIN.tolist())]
        hover = params.mass * params.g / 4.0
        self.calibration = HoverCalibration(self.geom, self.rho, hover)
        air = AirState(self.rho, 0.0, 0.0, hover_rotor_speed(self.geom, hover, self.rho), hover)
        lam_h = inflow_ratio(air, self.geom, induced_velocity(air, self.geom))
        # shaft reaction per unit thrust at the hover operating point
        self.kappa = (torque_coefficient(self.geom, lam_h, 0.0) * self.geom.radius
                      / thrust_coefficient(self.geom, lam_h, 0.0))

    def wrench(self, state, f_cmd: float, q_cmd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        thrusts = self.calibration.saturate(
            rotor_thrusts(f_cmd, q_cmd, self.params.arm_length, self.kappa)
        )
        omegas = hover_rotor_speed(self.geom, thrusts, self.rho)
        # hub velocities of the four rotors as columns, inertial and body frame
        hub = state.v[:, None] + state.R @ (hat(state.Omega) @ self.arms.T)
        body_x, body_y, _ = (state.R.T @ hub).tolist()
        fx = fy = fz = mx = my = mz = 0.0
        for (ax, ay, spin), (hx, hy, hz), bx, by, omega, thrust in zip(
            self.rotors, hub.T.tolist(), body_x, body_y, omegas.tolist(), thrusts.tolist()
        ):
            w = rotor_wrench(
                self.geom, AirState(self.rho, math.hypot(hx, hy), hz, omega, thrust),
                coupled=True,
            )
            # rotor force (-H dx, -H dy, T) and moment spin (R_roll dx, R_roll dy, -Q),
            # with (dx, dy) the unit in-plane hub velocity in the body frame
            f_x = f_y = m_x = m_y = 0.0
            norm = math.hypot(bx, by)
            if norm > 1e-9:
                dx, dy = bx / norm, by / norm
                f_x, f_y = -w.h_force * dx, -w.h_force * dy
                m_x, m_y = spin * w.roll_moment * dx, spin * w.roll_moment * dy
            fx += f_x
            fy += f_y
            fz += w.thrust
            # plus arm x f_i, with the arm in the body x-y plane
            mx += m_x + ay * w.thrust
            my += m_y - ax * w.thrust
            mz += -spin * w.torque_shaft + ax * f_y - ay * f_x
        return np.array([fx, fy, fz]), np.array([mx, my, mz])


def _run_quad_track(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    dt = sc.dt
    n = int(round(sc.t_final / dt)) if sc.t_final > 0.0 else 0
    params, gains, att_gains = sc.vehicle, sc.position_gains, sc.attitude_gains
    coeffs = sc.circle_coeffs
    state = sc.quad_initial
    memory = ControllerMemory()
    aero = _AeroModel(sc) if sc.aero.enabled else None

    table = np.empty((n + 1, len(_QUAD_COLUMNS)))
    side = np.empty((n + 1, 9))  # e_v, e_R, e_Omega

    try:
        for k in range(n + 1):
            ref = circle_reference(k * dt, coeffs)
            f, q, diag = tracking_step(state, ref, params, gains, att_gains, dt, memory)
            # t, the norm columns and ortho_defect (the 0.0 slots) are formed after the loop
            table[k] = [
                0.0, *state.r, *state.v, *state.Omega, *diag.e_r, *q, *state.R.ravel(),
                0.0, 0.0, diag.psi_command, 0.0, 0.0, f,
                translational_storage(state, ref, gains), float(diag.thrust_negative), 0.0,
            ]
            side[k, :3], side[k, 3:6], side[k, 6:] = diag.e_v, diag.e_R, diag.e_Omega
            if k == n:
                break
            wrench = (np.array([0.0, 0.0, f]), q) if aero is None else aero.wrench(state, f, q)
            state = rk4_quadrotor_step(state, params, *wrench, dt)
    except (ArithmeticError, GeomechError) as exc:
        raise _step_failure(exc, k, dt) from None

    col = _QUAD_COLUMNS.index
    table[:, col("t")] = dt * np.arange(n + 1)
    table[:, col("e_r_norm")] = _row_norms(table[:, col("e_r_x"):col("e_r_z") + 1])
    table[:, col("e_v_norm")] = _row_norms(side[:, :3])
    table[:, col("e_R_norm")] = _row_norms(side[:, 3:6])
    table[:, col("e_Omega_norm")] = _row_norms(side[:, 6:])
    table[:, col("ortho_defect")] = orthogonality_defects(table[:, col("R00"):col("R22") + 1])
    series = TimeSeries(_QUAD_COLUMNS, table)
    e_r_norm = series.column("e_r_norm")
    settle, settled = settling_time(series.t, e_r_norm)
    metrics = MetricsSummary(
        orthogonality_defect_max=float(np.max(series.column("ortho_defect"))),
        settling_time_5pct=settle,
        settled=settled,
        steady_state_error=steady_state_value(e_r_norm),
        extras={
            "steady_abs_error_x": steady_state_value(np.abs(series.column("e_r_x"))),
            "steady_abs_error_y": steady_state_value(np.abs(series.column("e_r_y"))),
            "steady_abs_error_z": steady_state_value(np.abs(series.column("e_r_z"))),
            "thrust_negative_count": float(np.sum(series.column("thrust_negative"))),
        },
    )
    return series, metrics


# ------------------------------------------------------ integrator compare


def _run_integrator_compare(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    vi_series = simulate(
        sc.initial, sc.inertia, _constant_moment_fn(sc.moment), _vi_config(sc), sc.t_final
    )
    n = len(vi_series) - 1
    dt = sc.dt
    jj = sc.inertia

    moment = [0.0] * 3 if sc.moment is None else _floats(sc.moment)
    j_rows, jinv_rows = _floats(jj.j), _floats(jj.j_inv)
    t_mat, w = _floats(sc.initial.T), _floats(sc.initial.omega)
    rows = np.empty((n + 1, 12))  # T (row-major), omega
    rows[0] = (*t_mat, *w)
    try:
        for k in range(n):
            t_mat, w = _attitude_rk4_core(
                t_mat, w, j_rows, jinv_rows, lambda t, T, wi: moment, k * dt, dt, moment
            )
            rows[k + 1] = (*t_mat, *w)
    except (ArithmeticError, GeomechError) as exc:
        raise _step_failure(exc, k, dt) from None

    h_rk4, pi_rk4 = energy_momentum_rows(rows[:, :9], rows[:, 9:], jj)
    mom_rk4 = _row_norms(pi_rk4 - pi_rk4[0])
    ortho_rk4 = orthogonality_defects(rows[:, :9])

    h_vi = vi_series.column("H")
    pi_vi = vi_series.vector("Pi")
    series = TimeSeries(
        ("t", "H_vi", "H_rk4", "mom_err_vi", "mom_err_rk4", "ortho_vi", "ortho_rk4"),
        np.column_stack((vi_series.t, h_vi, h_rk4, np.linalg.norm(pi_vi - pi_vi[0], axis=1),
                         mom_rk4, vi_series.column("ortho_defect"), ortho_rk4)),
    )
    metrics = _free_body_metrics(vi_series)
    h0 = abs(h_vi[0])
    drift = np.abs(h_rk4 - h_rk4[0])
    # relative drifts are undefined for a body at rest (H0 = 0): null
    metrics.extras.update({
        "rk4_energy_drift_end_rel": float(drift[-1] / h0) if h0 else None,
        "rk4_energy_drift_max_rel": float(np.max(drift) / h0) if h0 else None,
        "rk4_energy_drift_max_abs": float(np.max(drift)),
        "rk4_momentum_drift_max": float(np.max(mom_rk4)),
        "rk4_orthogonality_defect_max": float(np.max(ortho_rk4)),
    })
    return series, metrics
