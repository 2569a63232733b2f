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

import numpy as np

from .attitude_control import _checked_error_matrix, _torque_kernel
from .errors import AntipodalError, GeomechError, SolverError
from .quadrotor import (
    ControllerMemory,
    ROTOR_SPIN,
    rotor_positions,
    rotor_thrusts,
    tracking_step,
    translational_storage,
)
from .references import _euler_321_raw, circle_reference, gimbal_proximity
from .rigid_body import BodyWrench, _attitude_rk4_core, rk4_quadrotor_step
from .so3 import cross3
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

_EYE3 = np.eye(3)


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


def run(scenario: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    """Execute a scenario deterministically."""
    if scenario.kind == "free_body":
        return _run_free_body(scenario)
    if scenario.kind == "attitude_track":
        return _run_attitude_track(scenario)
    if scenario.kind == "quad_track":
        return _run_quad_track(scenario)
    if scenario.kind == "integrator_compare":
        return _run_integrator_compare(scenario)
    raise ValueError(f"unknown scenario kind {scenario.kind!r}")


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
    return MetricsSummary(
        energy_drift_max_rel=drift,
        momentum_drift_max=float(np.max(np.linalg.norm(pi - pi[0], axis=1))),
        orthogonality_defect_max=float(np.max(series.column("ortho_defect"))),
        newton_iters_mean=float(np.mean(iters[1:])) if len(iters) > 1 else 0.0,
    )


# -------------------------------------------------------- attitude tracking

_ATTITUDE_COLUMNS = (
    *(f"R{i}{j}" for i in range(3) for j in range(3)), "w_x", "w_y", "w_z",
    "psi", "e_R_norm", "e_Omega_norm", "q_x", "q_y", "q_z", "V_storage", "ortho_defect",
)


def _attitude_loop_numpy(rd_all, wd_all, wdd_all, sc: Scenario):
    """Closed attitude loop: the shared torque kernel on the shared RK4 core.

    The reference samples sit on the half-step grid, so stage time ``t``
    reads sample ``round(2 t / dt)``.  Returns one row per step with the
    columns of ``_ATTITUDE_COLUMNS``.  The name is kept because the
    benchmark's tracer (``perfbench/tracer.py``) and its tests look the loop
    up as ``runner._attitude_loop_numpy``.
    """
    dt, inertia, gains = sc.dt, sc.inertia, sc.attitude_gains
    jj, p_g, f_g, s_g, k_r = inertia.j, gains.P, gains.F, gains.S, gains.k_R
    n = (rd_all.shape[0] - 1) // 2
    table = np.empty((n + 1, len(_ATTITUDE_COLUMNS)))
    t_mat = np.asarray(sc.initial.T, dtype=float)
    w = np.asarray(sc.initial.omega, dtype=float)

    def torque(idx, tm, wi):
        e, one_plus_tr = _checked_error_matrix(tm, rd_all[idx])
        q, e_r, e_om = _torque_kernel(
            e, one_plus_tr, wd_all[idx], wdd_all[idx], wi, jj, p_g, f_g
        )
        return q, one_plus_tr, e_r, e_om

    def stage_torque(t, tm, wi):
        return torque(round(2.0 * t / dt), tm, wi)[0]

    try:
        for k in range(n + 1):
            q, one_plus_tr, e_r, e_om = torque(2 * k, t_mat, w)
            err = e_om + p_g @ e_r
            psi = 2.0 - np.sqrt(one_plus_tr)
            table[k] = [
                *t_mat.ravel(), *w, psi, np.linalg.norm(e_r), np.linalg.norm(e_om), *q,
                k_r * psi + 0.5 * err @ (s_g @ err), np.linalg.norm(t_mat.T @ t_mat - _EYE3),
            ]
            if k < n:
                t_mat, w = _attitude_rk4_core(t_mat, w, inertia, stage_torque, k * dt, dt)
    except AntipodalError as exc:
        raise AntipodalError(f"step {k} (t={k * dt:.6g}): {exc}") from None
    return table


def _run_attitude_track(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    dt = sc.dt
    n = int(round(sc.t_final / dt)) if sc.t_final > 0.0 else 0
    coeffs = sc.euler_coeffs

    # reference samples on the half grid cover every RK4 stage time
    t_half = 0.5 * dt * np.arange(2 * n + 1)
    table = _attitude_loop_numpy(*_euler_321_raw(t_half, coeffs), sc)
    t = t_half[::2].copy()
    cols = {"t": t}
    # contiguous copies free the table before encoding (lower peak RSS)
    cols.update((name, table[:, j].copy()) for j, name in enumerate(_ATTITUDE_COLUMNS))
    cols["gimbal_proximity"] = gimbal_proximity(t, coeffs).astype(float)
    series = TimeSeries(cols)
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
    *(f"{name}_{ax}" for name in ("r", "v", "Omega", "e_r", "q") for ax in "xyz"),
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
        hover = params.mass * params.g / 4.0
        self.calibration = HoverCalibration(self.geom, self.rho, hover)
        air = AirState(self.rho, 0.0, 0.0, hover_rotor_speed(self.geom, hover, self.rho), hover)
        lam_h = inflow_ratio(air, self.geom, induced_velocity(air, self.geom))
        # shaft reaction per unit thrust at the hover operating point
        self.kappa = (torque_coefficient(self.geom, lam_h, 0.0) * self.geom.radius
                      / thrust_coefficient(self.geom, lam_h, 0.0))

    def wrench(self, state, f_cmd: float, q_cmd: np.ndarray) -> BodyWrench:
        thrusts = self.calibration.saturate(
            rotor_thrusts(f_cmd, q_cmd, self.params.arm_length, self.kappa)
        )
        omegas = self.calibration(thrusts)
        force = np.zeros(3)
        moment = np.zeros(3)
        for i, arm in enumerate(self.arms):
            hub_inertial = state.v + state.R @ cross3(state.Omega, arm)
            air = AirState(self.rho, float(np.hypot(hub_inertial[0], hub_inertial[1])),
                           float(hub_inertial[2]), float(omegas[i]), float(thrusts[i]))
            w = rotor_wrench(self.geom, air, coupled=True)
            f_i = np.array([0.0, 0.0, w.thrust])
            m_i = -ROTOR_SPIN[i] * w.torque_shaft * np.array([0.0, 0.0, 1.0])
            in_plane = state.R.T @ hub_inertial
            in_plane[2] = 0.0
            norm = np.linalg.norm(in_plane)
            if norm > 1e-9:
                direction = in_plane / norm
                f_i = f_i - w.h_force * direction
                m_i = m_i + ROTOR_SPIN[i] * w.roll_moment * direction
            force += f_i
            moment += m_i + cross3(arm, f_i)
        return BodyWrench(force, moment)


def _run_quad_track(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    dt = sc.dt
    n = int(round(sc.t_final / dt)) if sc.t_final > 0.0 else 0
    params, gains, att_gains = sc.vehicle, sc.position_gains, sc.attitude_gains
    coeffs = sc.circle_coeffs
    state = sc.quad_initial
    memory = ControllerMemory()
    aero = _AeroModel(sc) if sc.aero.enabled else None

    table = np.empty((n + 1, len(_QUAD_COLUMNS)))

    def record(k, ref, f, q, diag):
        table[k] = [
            *state.r, *state.v, *state.Omega, *diag.e_r, *q, *state.R.ravel(),
            np.linalg.norm(diag.e_r), np.linalg.norm(diag.e_v), diag.psi_command,
            np.linalg.norm(diag.e_R), np.linalg.norm(diag.e_Omega), f,
            translational_storage(state, ref, gains), float(diag.thrust_negative),
            np.linalg.norm(state.R.T @ state.R - _EYE3),
        ]

    try:
        for k in range(n + 1):
            t = k * dt
            ref = circle_reference(t, coeffs)
            f, q, diag = tracking_step(state, ref, params, gains, att_gains, dt, memory)
            record(k, ref, f, q, diag)
            if k == n:
                break
            if aero is None:
                state = rk4_quadrotor_step(state, params, f, q, None, dt)
            else:
                extra = aero.wrench(state, f, q)
                state = rk4_quadrotor_step(state, params, 0.0, np.zeros(3), extra, dt)
    except GeomechError as exc:
        raise SolverError(f"step {k} (t={k * dt:.6g}): {exc}") from None

    cols = {"t": dt * np.arange(n + 1)}
    cols.update((name, table[:, j]) for j, name in enumerate(_QUAD_COLUMNS))
    series = TimeSeries(cols)
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

    moment = np.zeros(3) if sc.moment is None else np.asarray(sc.moment, dtype=float)
    t_mat = np.asarray(sc.initial.T, dtype=float)
    w = np.asarray(sc.initial.omega, dtype=float)
    h_rk4 = np.empty(n + 1)
    mom_rk4 = np.empty(n + 1)
    ortho_rk4 = np.empty(n + 1)
    pi0 = t_mat @ (jj.j @ w)

    def fill(k):
        h_rk4[k] = 0.5 * w @ (jj.j @ w)
        mom_rk4[k] = np.linalg.norm(t_mat @ (jj.j @ w) - pi0)
        ortho_rk4[k] = np.linalg.norm(t_mat.T @ t_mat - _EYE3)

    fill(0)
    for k in range(n):
        t_mat, w = _attitude_rk4_core(
            t_mat, w, jj, lambda t, T, wi: moment, k * dt, dt
        )
        fill(k + 1)

    h_vi = vi_series.column("H")
    pi_vi = vi_series.vector("Pi")
    cols = {
        "t": vi_series.t.copy(),
        "H_vi": h_vi.copy(),
        "H_rk4": h_rk4,
        "mom_err_vi": np.linalg.norm(pi_vi - pi_vi[0], axis=1),
        "mom_err_rk4": mom_rk4,
        "ortho_vi": vi_series.column("ortho_defect").copy(),
        "ortho_rk4": ortho_rk4,
    }
    series = TimeSeries(cols)
    metrics = _free_body_metrics(vi_series)
    h0 = abs(h_vi[0])
    drift = np.abs(h_rk4 - h_rk4[0])
    # relative drifts are undefined for a body at rest (H0 = 0): null
    metrics.extras = {
        "rk4_energy_drift_end_rel": float(drift[-1] / h0) if h0 else None,
        "rk4_energy_drift_max_rel": float(np.max(drift) / h0) if h0 else None,
        "rk4_momentum_drift_max": float(np.max(mom_rk4)),
        "rk4_orthogonality_defect_max": float(np.max(ortho_rk4)),
    }
    return series, metrics
