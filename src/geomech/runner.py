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
from .errors import AntipodalError
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


def _attitude_loop_numpy(rd_all, wd_all, wdd_all, sc: Scenario):
    """Closed attitude loop: the shared torque kernel on the shared RK4 core.

    The reference samples sit on the half-step grid, so stage time ``t``
    reads sample ``round(2 t / dt)``.  Returns the recorded histories
    ``(R, Omega, psi, |e_R|, |e_Omega|, q, V, orthogonality defect)``.  The
    name is kept because the benchmark's tracer (``perfbench/tracer.py``)
    and its tests look the loop up as ``runner._attitude_loop_numpy``.
    """
    dt, inertia, gains = sc.dt, sc.inertia, sc.attitude_gains
    jj, p_g, f_g, s_g, k_r = inertia.j, gains.P, gains.F, gains.S, gains.k_R
    n = (rd_all.shape[0] - 1) // 2
    r_hist = np.empty((n + 1, 3, 3))
    w_hist = np.empty((n + 1, 3))
    psi_h = np.empty(n + 1)
    er_h = np.empty(n + 1)
    eom_h = np.empty(n + 1)
    q_h = np.empty((n + 1, 3))
    v_h = np.empty(n + 1)
    ortho_h = np.empty(n + 1)
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
            r_hist[k] = t_mat
            w_hist[k] = w
            psi_h[k] = psi
            er_h[k] = np.linalg.norm(e_r)
            eom_h[k] = np.linalg.norm(e_om)
            q_h[k] = q
            v_h[k] = k_r * psi + 0.5 * err @ (s_g @ err)
            ortho_h[k] = np.linalg.norm(t_mat.T @ t_mat - _EYE3)
            if k < n:
                t_mat, w = _attitude_rk4_core(t_mat, w, inertia, stage_torque, k * dt, dt)
    except AntipodalError as exc:
        raise AntipodalError(f"step {k} (t={k * dt:.6g}): {exc}") from None
    return r_hist, w_hist, psi_h, er_h, eom_h, q_h, v_h, ortho_h


def _run_attitude_track(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    dt = sc.dt
    n = int(round(sc.t_final / dt)) if sc.t_final > 0.0 else 0
    coeffs = sc.euler_coeffs

    # reference samples on the half grid cover every RK4 stage time
    t_half = 0.5 * dt * np.arange(2 * n + 1)
    r_hist, w_hist, psi_h, er_h, eom_h, q_h, v_h, ortho_h = _attitude_loop_numpy(
        *_euler_321_raw(t_half, coeffs), sc
    )

    cols: dict[str, np.ndarray] = {"t": t_half[::2].copy()}
    for i in range(3):
        for j in range(3):
            cols[f"R{i}{j}"] = r_hist[:, i, j].copy()
    for a, ax in enumerate(("x", "y", "z")):
        cols[f"w_{ax}"] = w_hist[:, a].copy()
    cols["psi"] = psi_h
    cols["e_R_norm"] = er_h
    cols["e_Omega_norm"] = eom_h
    for a, ax in enumerate(("x", "y", "z")):
        cols[f"q_{ax}"] = q_h[:, a].copy()
    cols["V_storage"] = v_h
    cols["ortho_defect"] = ortho_h
    cols["gimbal_proximity"] = gimbal_proximity(t_half[::2], coeffs).astype(float)

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
        omega_h = hover_rotor_speed(self.geom, hover, self.rho)
        nu_h = induced_velocity(
            AirState(rho=self.rho, weight_supported=hover), self.geom
        )
        lam_h = nu_h / (omega_h * self.geom.radius)
        # shaft reaction per unit thrust at the hover operating point
        self.kappa = (
            torque_coefficient(self.geom, lam_h, 0.0)
            * self.geom.radius
            / thrust_coefficient(self.geom, lam_h, 0.0)
        )
        self.thrust_floor = 1e-3

    def wrench(self, state, f_cmd: float, q_cmd: np.ndarray) -> BodyWrench:
        thrusts = rotor_thrusts(f_cmd, q_cmd, self.params.arm_length, self.kappa)
        thrusts = np.clip(thrusts, self.thrust_floor, None)
        omegas = self.calibration(thrusts)
        force = np.zeros(3)
        moment = np.zeros(3)
        for i in range(4):
            hub_inertial = state.v + state.R @ cross3(state.Omega, self.arms[i])
            v_h = float(np.hypot(hub_inertial[0], hub_inertial[1]))
            air = AirState(
                self.rho, v_h, float(hub_inertial[2]), float(omegas[i]), float(thrusts[i])
            )
            w = rotor_wrench(self.geom, air, coupled=True)
            f_i = np.array([0.0, 0.0, w.thrust])
            m_i = -ROTOR_SPIN[i] * w.torque_shaft * np.array([0.0, 0.0, 1.0])
            in_plane = state.R.T @ hub_inertial
            in_plane = np.array([in_plane[0], in_plane[1], 0.0])
            norm = np.linalg.norm(in_plane)
            if norm > 1e-9:
                direction = in_plane / norm
                f_i = f_i - w.h_force * direction
                m_i = m_i + ROTOR_SPIN[i] * w.roll_moment * direction
            force += f_i
            moment += m_i + cross3(self.arms[i], f_i)
        return BodyWrench(force, moment)


def _run_quad_track(sc: Scenario) -> tuple[TimeSeries, MetricsSummary]:
    dt = sc.dt
    n = int(round(sc.t_final / dt)) if sc.t_final > 0.0 else 0
    params, gains, att_gains = sc.vehicle, sc.position_gains, sc.attitude_gains
    coeffs = sc.circle_coeffs
    state = sc.quad_initial
    memory = ControllerMemory()
    aero = _AeroModel(sc) if sc.aero.enabled else None

    n_rec = n + 1
    cols: dict[str, np.ndarray] = {"t": dt * np.arange(n_rec)}
    vector_groups = [("r", 3), ("v", 3), ("Omega", 3), ("e_r", 3), ("q", 3)]
    for name, _ in vector_groups:
        for ax in ("x", "y", "z"):
            cols[f"{name}_{ax}"] = np.empty(n_rec)
    for i in range(3):
        for j in range(3):
            cols[f"R{i}{j}"] = np.empty(n_rec)
    for name in (
        "e_r_norm",
        "e_v_norm",
        "psi_cmd",
        "e_R_norm",
        "e_Omega_norm",
        "f",
        "V_translational",
        "thrust_negative",
        "ortho_defect",
    ):
        cols[name] = np.empty(n_rec)

    def record(k, t, f, q, diag):
        ref = circle_reference(t, coeffs)
        for vec, name in ((state.r, "r"), (state.v, "v"), (state.Omega, "Omega"),
                          (diag.e_r, "e_r"), (q, "q")):
            cols[f"{name}_x"][k], cols[f"{name}_y"][k], cols[f"{name}_z"][k] = vec
        for i in range(3):
            for j in range(3):
                cols[f"R{i}{j}"][k] = state.R[i, j]
        cols["e_r_norm"][k] = np.linalg.norm(diag.e_r)
        cols["e_v_norm"][k] = np.linalg.norm(diag.e_v)
        cols["psi_cmd"][k] = diag.psi_command
        cols["e_R_norm"][k] = np.linalg.norm(diag.e_R)
        cols["e_Omega_norm"][k] = np.linalg.norm(diag.e_Omega)
        cols["f"][k] = f
        cols["V_translational"][k] = translational_storage(state, ref, gains)
        cols["thrust_negative"][k] = float(diag.thrust_negative)
        cols["ortho_defect"][k] = np.linalg.norm(state.R.T @ state.R - _EYE3)

    for k in range(n + 1):
        t = k * dt
        ref = circle_reference(t, coeffs)
        f, q, diag = tracking_step(state, ref, params, gains, att_gains, dt, memory)
        record(k, t, f, q, diag)
        if k == n:
            break
        if aero is None:
            state = rk4_quadrotor_step(state, params, f, q, None, dt)
        else:
            extra = aero.wrench(state, f, q)
            state = rk4_quadrotor_step(state, params, 0.0, np.zeros(3), extra, dt)

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
    h0 = h_vi[0]
    metrics.extras = {
        "rk4_energy_drift_end_rel": float(abs(h_rk4[-1] - h_rk4[0]) / abs(h0)),
        "rk4_energy_drift_max_rel": float(np.max(np.abs(h_rk4 - h_rk4[0])) / abs(h0)),
        "rk4_momentum_drift_max": float(np.max(mom_rk4)),
        "rk4_orthogonality_defect_max": float(np.max(ortho_rk4)),
    }
    return series, metrics
