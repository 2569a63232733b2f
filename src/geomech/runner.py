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
from array import array

from .attitude_control import _quad_form, _torque_kernel
from .errors import _STEP_ERRORS, _TRAP_FP, GeomechError, SolverError, _step_failure
from .quadrotor import (
    ControllerMemory,
    ROTOR_SPIN,
    rotor_positions,
    rotor_thrusts,
    tracking_step,
    translational_storage,
)
from .references import _euler_321_raw, circle_reference, gimbal_proximity
from .rigid_body import _attitude_rk4_core, _energy_momentum, _floats, _rates, rk4_quadrotor_step
from .so3 import _ortho_defect
from .rotor_aero import (
    HoverCalibration,
    hover_rotor_speed,
    induced_velocity,
    rotor_wrench,
    thrust_coefficient,
    torque_coefficient,
)
from .scenario import Scenario
from .timeseries import _CSV_BLOCK_ROWS, MetricsSummary, TimeSeries
from .variational import IntegratorConfig, simulate


def settling_time(t, signal):
    """First time after which ``signal`` stays below 5% of its initial value
    for the remainder of the run; ``(None, False)`` if it never settles.  A
    signal that starts at 0 (or below) is settled at ``t[0]``, whatever follows."""
    s0 = float(signal[0])
    if s0 <= 0.0:
        return float(t[0]), True
    threshold = 0.05 * s0
    # index 0 is always above: a finite s0 > 0 is at least 0.05 * s0
    last = next(k for k in range(len(signal) - 1, -1, -1) if signal[k] >= threshold)
    if last == len(t) - 1:
        return None, False
    return float(t[last + 1]), True


def steady_state_value(signal) -> float:
    """Mean of the last 10% of the samples."""
    n = max(1, int(round(0.1 * len(signal))))
    return math.fsum(signal[-n:]) / n


def _tracking_metrics(series: TimeSeries, error: str, flag: str, extras: dict) -> MetricsSummary:
    """The summary of a tracking record: the settling time and steady state of
    its ``error`` column, its largest ``ortho_defect``, and the kind's
    ``extras`` with the count of its 0/1 ``flag`` column as ``<flag>_count``."""
    signal = series.floats(error)
    settle, settled = settling_time(series.floats("t"), signal)
    return MetricsSummary(
        orthogonality_defect_max=max(series.floats("ortho_defect")),
        settling_time_5pct=settle,
        settled=settled,
        steady_state_error=steady_state_value(signal),
        extras={**extras, f"{flag}_count": sum(series.floats(flag))},
    )


def _drifts(series: TimeSeries) -> tuple[list[float], list[float]]:
    """``|H_k - H_0|`` and ``|Pi_k - Pi_0|`` of each row of a rigid-body record."""
    h = series.floats("H")
    pi = list(zip(*(series.floats(f"Pi_{ax}") for ax in "xyz")))
    x0, y0, z0 = pi[0]
    return [abs(x - h[0]) for x in h], [math.hypot(x - x0, y - y0, z - z0) for x, y, z in pi]


def run(scenario: Scenario, sink=None) -> tuple[TimeSeries, MetricsSummary]:
    """Execute a scenario deterministically.

    The loops of ``run`` kinds hand ``sink(names, data)`` (see
    ``timeseries.csv_writer``) the record once per ``_CSV_BLOCK_ROWS`` rows.

    The step loops name the step that fails (``_step_failure``); any other
    library or arithmetic error, a math domain error (the sine of an
    overflowed reference angle) or running out of memory, in setting the
    run up or in its derived columns and metrics, becomes a ``SolverError``
    too.  So does a non-finite column of the record or metric, since float
    arithmetic overflows to ``inf`` or ``nan`` without a trap.
    """
    kinds = {
        "free_body": _run_free_body,
        "attitude_track": _run_attitude_track,
        "quad_track": _run_quad_track,
        "integrator_compare": _run_integrator_compare,
    }
    try:
        series, metrics = kinds[scenario.kind](scenario, sink)
        metrics.to_dict()  # refuses a non-finite metric
    except SolverError:
        raise
    except MemoryError:
        raise SolverError("outside the step loop: out of memory") from None
    except (ArithmeticError, ValueError, GeomechError) as exc:
        raise SolverError(f"outside the step loop: {exc}") from None
    if not math.isfinite(sum(series.data)):  # a finite sum has no inf or nan term
        bad = [name for name in series.names if not all(map(math.isfinite, series.floats(name)))]
        if bad:
            raise SolverError(f"outside the step loop: non-finite {', '.join(bad)}")
    return series, metrics


# ------------------------------------------------------------- free body


def _vi_config(sc: Scenario) -> IntegratorConfig:
    return IntegratorConfig(dt=sc.dt, newton_tol=sc.newton_tol, max_iters=sc.max_iters,
                            step_measure=sc.step_measure)


def _run_free_body(sc: Scenario, sink) -> tuple[TimeSeries, MetricsSummary]:
    series = simulate(sc.initial, sc.inertia, sc.moment, _vi_config(sc), sc.t_final, sink)
    return series, _free_body_metrics(series, *_drifts(series))


def _free_body_metrics(series: TimeSeries, energy, momentum) -> MetricsSummary:
    """The metrics of a VI record, given its drifts (see :func:`_drifts`)."""
    h0, iters = series.floats("H")[0], series.floats("newton_iters")
    # the initial row records 0 iterations and residual, so both maxima exist
    return MetricsSummary(
        energy_drift_max_rel=max(energy) / abs(h0) if h0 != 0.0 else None,
        momentum_drift_max=max(momentum),
        orthogonality_defect_max=max(series.floats("ortho_defect")),
        newton_iters_mean=sum(iters[1:]) / (len(iters) - 1) if len(iters) > 1 else 0.0,
        extras={
            "newton_iters_max": max(iters),
            "residual_max": max(series.floats("residual")),
        },
    )


# -------------------------------------------------------- attitude tracking

_ATTITUDE_COLUMNS = (
    "t", *(f"R{i}{j}" for i in range(3) for j in range(3)), "w_x", "w_y", "w_z",
    "psi", "e_R_norm", "e_Omega_norm", "q_x", "q_y", "q_z", "V_storage", "ortho_defect",
    "gimbal_proximity",
)


def _attitude_loop_numpy(sc: Scenario, sink) -> array:
    """Closed attitude loop: the float torque kernel on the float RK4 core.

    Step ``k`` draws the reference (``R_d`` row-major, ``Omega_d`` and
    ``dOmega_d``) from :func:`_euler_321_raw` on the half-step grid as it
    goes: sample ``2k+1`` for the RK4 stages at offset ``dt/2``, and ``2k+2``
    for the stage at ``dt`` and the next tick.  The torque at ``(t_k, T_k,
    Omega_k)`` is recorded, and its rates are the step's ``k1``.  Each step
    appends its row of ``_ATTITUDE_COLUMNS`` to the returned floats, and each
    finished block of rows goes to ``sink`` (see :func:`run`).  The loop is
    no longer numpy; its name is kept for the benchmark's tracer.
    """
    dt, gains, coeffs = sc.dt, sc.attitude_gains, sc.euler_coeffs
    jj, jinv = sc.inertia.j_rows, sc.inertia.j_inv_rows
    p_g, f_g = gains.p_rows, gains.f_rows
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = p_g
    n, data = sc.steps, array("d")
    t_mat, w = sc.initial.t_rows, sc.initial.omega_rows
    ref = _euler_321_raw((0.5 * dt * i for i in range(2 * n + 1)), coeffs)
    tick = next(ref)

    def rates(a, s, v):
        q = _torque_kernel(s, *(tick if a == dt else mid), v, jj, p_g, f_g)[0]
        return _rates(s, v, q, jj, jinv)

    try:
        for k in range(n + 1):
            q, e_r, e_om, one_plus_tr = _torque_kernel(t_mat, *tick, w, jj, p_g, f_g)
            (a0, a1, a2), (b0, b1, b2) = e_r, e_om
            err = (b0 + (p0 * a0 + p1 * a1 + p2 * a2), b1 + (p3 * a0 + p4 * a1 + p5 * a2),
                   b2 + (p6 * a0 + p7 * a1 + p8 * a2))  # Omega - Omega_target
            psi, t = 2.0 - math.sqrt(one_plus_tr), k * dt
            data.extend((t, *t_mat, *w, psi, math.hypot(a0, a1, a2), math.hypot(b0, b1, b2), *q,
                         gains.k_R * psi + 0.5 * _quad_form(gains.s_rows, err),
                         _ortho_defect(t_mat), float(gimbal_proximity(t, coeffs))))
            if sink is not None and k % _CSV_BLOCK_ROWS == _CSV_BLOCK_ROWS - 1:
                sink(_ATTITUDE_COLUMNS, data)
            if k < n:
                mid, tick = next(ref), next(ref)  # samples 2k+1 and 2k+2
                t_mat, w = _attitude_rk4_core(t_mat, w, rates, dt, _rates(t_mat, w, q, jj, jinv))
    except _STEP_ERRORS as exc:
        raise _step_failure(exc, k, dt) from None
    return data


def _run_attitude_track(sc: Scenario, sink) -> tuple[TimeSeries, MetricsSummary]:
    series = TimeSeries(_ATTITUDE_COLUMNS, _attitude_loop_numpy(sc, sink))
    storage = series.floats("V_storage")
    increase = max((b - a for a, b in zip(storage, storage[1:])), default=0.0)
    return series, _tracking_metrics(series, "psi", "gimbal_proximity",
                                     {"storage_max_increase": increase})


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
        # per rotor: arm x, arm y (the arms lie in the body x-y plane), spin sign
        self.rotors = [(ax, ay, spin) for (ax, ay, _), spin
                       in zip(rotor_positions(params.arm_length), ROTOR_SPIN)]
        hover = params.mass * params.g / 4.0
        self.calibration = HoverCalibration(self.geom, self.rho, hover)
        tip_h = hover_rotor_speed(self.geom, hover, self.rho) * self.geom.radius
        lam_h = induced_velocity(self.geom, self.rho, 0.0, hover) / tip_h
        # shaft reaction per unit thrust at the hover operating point
        self.kappa = (torque_coefficient(self.geom, lam_h, 0.0) * self.geom.radius
                      / thrust_coefficient(self.geom, lam_h, 0.0))

    def wrench(self, x, f_cmd: float, q_cmd) -> tuple[tuple, tuple]:
        """Body force and moment ``(f, m)`` delivered at the plant state ``x =
        (r, v, R, Omega)`` (``R`` row-major) for the command ``(f_cmd, q_cmd)``."""
        _, (vx, vy, vz), (r00, r01, r02, r10, r11, r12, r20, r21, r22), (wx, wy, wz) = x
        # in-plane body-frame velocity of the centre, R^T v
        cx = r00 * vx + r10 * vy + r20 * vz
        cy = r01 * vx + r11 * vy + r21 * vz
        thrusts = rotor_thrusts(f_cmd, q_cmd, self.params.arm_length, self.kappa)
        fx = fy = fz = mx = my = mz = 0.0
        for (ax, ay, spin), (thrust, omega) in zip(self.rotors, self.calibration(thrusts)):
            # hub velocity v + R (Omega x arm), with the arm in the body x-y plane
            ox, oy, oz = -wz * ay, wz * ax, wx * ay - wy * ax
            hx = vx + (r00 * ox + r01 * oy + r02 * oz)
            hy = vy + (r10 * ox + r11 * oy + r12 * oz)
            hz = vz + (r20 * ox + r21 * oy + r22 * oz)
            t, h, q, roll = rotor_wrench(self.geom, self.rho, math.hypot(hx, hy), hz, omega,
                                         thrust)
            # rotor force (-H dx, -H dy, T) and moment spin (R_roll dx, R_roll dy, -Q),
            # with (dx, dy) the unit in-plane hub velocity in the body frame
            f_x = f_y = m_x = m_y = 0.0
            bx, by = cx + ox, cy + oy
            norm = math.hypot(bx, by)
            if norm > 1e-9:
                dx, dy = bx / norm, by / norm
                f_x, f_y = -h * dx, -h * dy
                m_x, m_y = spin * roll * dx, spin * roll * dy
            fx += f_x
            fy += f_y
            fz += t
            # plus arm x f_i, with the arm in the body x-y plane
            mx += m_x + ay * t
            my += m_y - ax * t
            mz += -spin * q + ax * f_y - ay * f_x
        return (fx, fy, fz), (mx, my, mz)


def _run_quad_track(sc: Scenario, sink) -> tuple[TimeSeries, MetricsSummary]:
    import numpy as np  # each block's reference samples and derived columns, under the trap
    dt, n = sc.dt, sc.steps
    params, gains, att_gains = sc.vehicle, sc.position_gains, sc.attitude_gains
    # the tick's constants, as floats once per run
    mass, g, b, d = params.mass, params.g, gains.b_rows, gains.d_rows
    jj, p_g, f_g = params.inertia.j_rows, att_gains.p_rows, att_gains.f_rows
    b_1d = _floats(sc.circle_coeffs.b_1d)
    x = sc.quad_initial
    memory = ControllerMemory()
    aero = _AeroModel(sc) if sc.aero.enabled else None
    data = array("d")

    def norms(v):
        return np.sqrt(np.einsum("ni,ni->n", v, v))

    with np.errstate(**_TRAP_FP):
        for start in range(0, n + 1, _CSV_BLOCK_ROWS):
            # the block's reference, one row (r_d, v_d, a_d) per tick
            ref = circle_reference(dt * np.arange(start, min(start + _CSV_BLOCK_ROWS, n + 1)),
                                   sc.circle_coeffs)
            raw = array("d")  # t, r, v, Omega, q, R, f, ortho_defect, e_R, e_Omega, 1 + tr E
            try:
                for k, row in enumerate(np.concatenate((ref.r_d, ref.v_d, ref.a_d), axis=1),
                                        start):
                    f, q, e_R, e_Om, one_plus_tr = tracking_step(
                        x, row.tolist(), mass, g, b, d, jj, p_g, f_g, b_1d, dt, memory)
                    r, v, R, Om = x
                    raw.extend((k * dt, *r, *v, *Om, *q, *R, f, _ortho_defect(R), *e_R, *e_Om,
                                one_plus_tr))
                    if k < n:
                        wrench = ((0.0, 0.0, f), q) if aero is None else aero.wrench(x, f, q)
                        x = rk4_quadrotor_step(x, params, *wrench, dt)
            except _STEP_ERRORS as exc:
                raise _step_failure(exc, k, dt) from None

            # the block's rows in _QUAD_COLUMNS order, with their error and storage columns
            block = np.frombuffer(raw).reshape(-1, 31)
            pos, vel, thrust = block[:, 1:4], block[:, 4:7], block[:, 22]
            e_r = pos - ref.r_d
            data.frombytes(np.column_stack((
                block[:, :10], e_r, block[:, 10:22], norms(e_r), norms(vel - ref.v_d),
                2.0 - np.sqrt(block[:, 30]), norms(block[:, 24:27]), norms(block[:, 27:30]),
                thrust, translational_storage(pos, vel, ref.r_d, ref.v_d, gains), thrust < 0.0,
                block[:, 23])).tobytes())
            if sink is not None:
                sink(_QUAD_COLUMNS, data)
    series = TimeSeries(_QUAD_COLUMNS, data)
    return series, _tracking_metrics(series, "e_r_norm", "thrust_negative", {
        f"steady_abs_error_{ax}": steady_state_value(list(map(abs, series.floats(f"e_r_{ax}"))))
        for ax in "xyz"})


# ------------------------------------------------------ integrator compare


def _run_integrator_compare(sc: Scenario, sink) -> tuple[TimeSeries, MetricsSummary]:
    dt, jj, jinv, n = sc.dt, sc.inertia.j_rows, sc.inertia.j_inv_rows, sc.steps
    moment = (0.0, 0.0, 0.0) if sc.moment is None else tuple(map(float, sc.moment))

    # the VI half first, so that its failure is the one reported; then the RK4
    # half's H, Pi and orthogonality defect of each step, on floats
    vi = simulate(sc.initial, sc.inertia, sc.moment, _vi_config(sc), sc.t_final)
    rates = lambda a, s, v: _rates(s, v, moment, jj, jinv)  # noqa: E731
    rows, t_mat, w = array("d"), sc.initial.t_rows, sc.initial.omega_rows
    try:
        for k in range(n + 1):
            rows.extend((*_energy_momentum(t_mat, w, jj), _ortho_defect(t_mat)))
            if k < n:
                t_mat, w = _attitude_rk4_core(t_mat, w, rates, dt, rates(0.0, t_mat, w))
    except _STEP_ERRORS as exc:
        raise _step_failure(exc, k, dt) from None
    rk4 = TimeSeries(("H", "Pi_x", "Pi_y", "Pi_z", "ortho_defect"), rows)
    (vi_energy, vi_momentum), (rk4_energy, rk4_momentum) = _drifts(vi), _drifts(rk4)
    ortho_rk4, data = rk4.floats("ortho_defect"), array("d")
    for row in zip(vi.floats("t"), vi.floats("H"), rk4.floats("H"), vi_momentum, rk4_momentum,
                   vi.floats("ortho_defect"), ortho_rk4):
        data.extend(row)
    series = TimeSeries(
        ("t", "H_vi", "H_rk4", "mom_err_vi", "mom_err_rk4", "ortho_vi", "ortho_rk4"), data)
    metrics = _free_body_metrics(vi, vi_energy, vi_momentum)
    h0 = abs(vi.floats("H")[0])
    # relative drifts are undefined for a body at rest (H0 = 0): null
    metrics.extras.update({
        "rk4_energy_drift_end_rel": rk4_energy[-1] / h0 if h0 else None,
        "rk4_energy_drift_max_rel": max(rk4_energy) / h0 if h0 else None,
        "rk4_energy_drift_max_abs": max(rk4_energy),
        "rk4_momentum_drift_max": max(rk4_momentum),
        "rk4_orthogonality_defect_max": max(ortho_rk4),
    })
    return series, metrics
