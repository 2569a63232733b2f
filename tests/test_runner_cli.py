import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomech.attitude_control import (
    angular_velocity_error,
    attitude_error_psi,
    attitude_error_vector,
    control_torque,
)
from geomech.errors import (
    AntipodalError,
    DivergenceError,
    InvalidRotationError,
    NoConvergenceError,
    SingularInputError,
    SolverError,
)
import geomech
from geomech.cli import main
from geomech import cli, runner, timeseries
from geomech.quadrotor import ControllerMemory, _velocity_target
from geomech.references import AnglePolynomial, circle_reference, euler_321_reference
from geomech.rigid_body import rk4_attitude_step, rk4_quadrotor_step
from geomech.runner import _AeroModel, _step_failure, run, settling_time, steady_state_value
from geomech.scenario import parse_scenario
from geomech.so3 import _ortho_defect
from geomech.timeseries import (
    _CSV_BLOCK_ROWS,
    MetricsSummary,
    TimeSeries,
    csv_writer,
    metrics_to_json_bytes,
    series_to_csv_bytes,
    write_outputs,
)
from geomech.variational import IntegratorConfig, vi_step

from conftest import parse_csv_bytes, record, tick
from oracles import storage_function


def load(name, **overrides):
    sc = parse_scenario(open(f"scenarios/{name}.json", "rb").read())
    return dataclasses.replace(sc, **overrides) if overrides else sc


def test_settling_time_metric():
    t = np.arange(6.0)
    sig = np.array([10.0, 5.0, 0.4, 0.6, 0.2, 0.1])
    when, settled = settling_time(t, sig)  # threshold 0.5; last above at t=3
    assert settled and when == 4.0
    when, settled = settling_time(t, np.array([10.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    assert not settled and when is None
    when, settled = settling_time(t, np.zeros(6))
    assert settled and when == 0.0


def test_steady_state_value():
    assert steady_state_value(np.arange(10.0)) == 9.0  # last 10% = 1 sample
    assert steady_state_value(np.ones(100) * 2.0) == 2.0


def test_free_body_run_records_and_metrics():
    series, metrics = run(load("free_body", t_final=1.0))
    assert len(series) == 101
    assert metrics.energy_drift_max_rel < 1e-12
    assert metrics.momentum_drift_max < 1e-12
    assert metrics.newton_iters_mean > 0.0
    # column contract for the free-body kind
    for name in ("t", "T00", "T22", "w_x", "H", "Pi_z", "ortho_defect",
                 "newton_iters", "residual"):
        assert name in series.names


def test_free_body_determinism_byte_identical(tmp_path):
    from geomech.timeseries import metrics_to_json_bytes, series_to_csv_bytes

    a_series, a_metrics = run(load("free_body", t_final=1.0))
    b_series, b_metrics = run(load("free_body", t_final=1.0))
    assert series_to_csv_bytes(a_series) == series_to_csv_bytes(b_series)
    assert metrics_to_json_bytes(a_metrics) == metrics_to_json_bytes(b_metrics)


def test_attitude_track_columns_and_storage():
    series, metrics = run(load("attitude_track", dt=1e-3, t_final=1.0))
    for name in ("t", "R00", "w_x", "psi", "e_R_norm", "e_Omega_norm", "q_x",
                 "V_storage", "ortho_defect", "gimbal_proximity"):
        assert name in series.names
    # storage decreases from the near-antipodal start
    v = series.column("V_storage")
    assert v[-1] < v[0]
    assert metrics.orthogonality_defect_max < 1e-12


def test_attitude_run_holds_no_reference_array():
    # the loop draws the reference as it steps, so the run's peak allocation
    # is about its record; an up-front reference array (15 floats per half
    # step, 30 per row of 22) would add more than the record again
    import tracemalloc
    sc = load("attitude_track", t_final=0.1)
    tracemalloc.start()
    try:
        series, _ = run(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 1001
    assert peak < 1.5 * len(series.data) * 8


def test_attitude_run_uses_the_public_torque_law_and_rk4_step():
    # benign case (no antipodal crossing): stepping rk4_attitude_step with
    # control_torque reproduces the runner's closed loop
    doc = {
        "kind": "attitude_track",
        "dt": 1e-3,
        "t_final": 0.5,
        "inertia": [3.0, 2.0, 1.0],
        "initial": {"T": None, "omega": [0.1, 0.0, 0.0]},
        "reference": {"roll": [0.4, 0.3], "pitch": [0.1, 0.0, 0.05], "yaw": [0.0, 0.2]},
    }
    sc = parse_scenario(json.dumps(doc))
    series, _ = run(sc)
    coeffs, gains, inertia = sc.euler_coeffs, sc.attitude_gains, sc.inertia

    def torque(t, r, w):
        return control_torque(r, w, euler_321_reference(t, coeffs), inertia, gains)

    state = sc.initial
    n = len(series)
    r_hist, w_hist, q_hist = np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 3))
    for k in range(n):
        r_hist[k], w_hist[k] = state.T, state.omega
        q_hist[k] = torque(k * sc.dt, state.T, state.omega)
        if k < n - 1:
            state = rk4_attitude_step(state, inertia, torque, k * sc.dt, sc.dt)
    for i in range(3):
        for j in range(3):
            np.testing.assert_allclose(series.column(f"R{i}{j}"), r_hist[:, i, j],
                                       atol=1e-9, rtol=0.0)
    for a, ax in enumerate("xyz"):
        np.testing.assert_allclose(series.column(f"w_{ax}"), w_hist[:, a],
                                   atol=1e-9, rtol=0.0)
        np.testing.assert_allclose(series.column(f"q_{ax}"), q_hist[:, a],
                                   atol=1e-9, rtol=0.0)


def test_attitude_derived_columns_match_the_per_row_formulas():
    # the loop records state, torque, e_R, e_Omega and 1 + tr E per step and
    # forms the derived columns after it; check them row by row on 200 steps
    doc = {
        "kind": "attitude_track",
        "dt": 1e-3,
        "t_final": 0.2,
        "inertia": [3.0, 2.0, 1.0],
        "initial": {"T": None, "omega": [0.1, 0.0, 0.0]},
        "gains": {"P": [3.0, 2.0, 1.0], "F": [3.0, 2.0, 1.0], "k_R": 1.5, "S": [1.0, 2.0, 0.5]},
        "reference": {"roll": [2.5, 0.3], "pitch": [0.1, 0.0, 0.05], "yaw": [0.0, 0.2]},
    }
    sc = parse_scenario(json.dumps(doc))
    series, _ = run(sc)
    assert len(series) == 201
    expected = {name: [] for name in ("psi", "e_R_norm", "e_Omega_norm", "V_storage",
                                      "ortho_defect")}
    for k, t in enumerate(series.t):
        r = np.array([[series.column(f"R{i}{j}")[k] for j in range(3)] for i in range(3)])
        w = np.array([series.column(f"w_{ax}")[k] for ax in "xyz"])
        ref = euler_321_reference(t, sc.euler_coeffs)
        expected["psi"].append(attitude_error_psi(r, ref.R_d))
        expected["e_R_norm"].append(np.linalg.norm(attitude_error_vector(r, ref.R_d)))
        expected["e_Omega_norm"].append(np.linalg.norm(angular_velocity_error(r, w, ref)))
        expected["V_storage"].append(storage_function(r, w, ref, sc.attitude_gains))
        expected["ortho_defect"].append(_ortho_defect(r.ravel().tolist()))
    for name, values in expected.items():
        np.testing.assert_allclose(series.column(name), values, atol=1e-14, rtol=0.0,
                                   err_msg=name)


def test_quad_and_compare_derived_columns_match_the_per_row_formulas():
    sc = load("quad_track_aero", t_final=0.2)
    series, _ = run(sc)
    gains, col = sc.position_gains, series.column
    for k in range(len(series)):
        ref = circle_reference(k * sc.dt, sc.circle_coeffs)
        e_r = np.array([col(f"e_r_{ax}")[k] for ax in "xyz"])
        pos, vel = series.vector("r")[k], series.vector("v")[k]
        r = np.array([[col(f"R{i}{j}")[k] for j in range(3)] for i in range(3)])
        assert col("e_r_norm")[k] == pytest.approx(np.linalg.norm(e_r), abs=1e-14, rel=0.0)
        assert col("ortho_defect")[k] == pytest.approx(_ortho_defect(r.ravel().tolist()),
                                                       abs=1e-14, rel=0.0)
        assert col("e_v_norm")[k] == pytest.approx(np.linalg.norm(vel - ref.v_d),
                                                   abs=1e-14, rel=0.0)
        ev = vel - np.array(_velocity_target(pos.tolist(), ref.r_d.tolist(), ref.v_d.tolist(),
                                             gains.b_rows))
        assert col("V_translational")[k] == pytest.approx(
            0.5 * e_r @ (gains.A @ e_r) + 0.5 * ev @ (gains.C @ ev), abs=1e-14, rel=0.0)
        assert col("thrust_negative")[k] == float(col("f")[k] < 0.0)
    moment = np.array([0.1, -0.2, 0.05])
    for measure in ("chord", "arc"):
        sc = load("integrator_compare", t_final=1.0, moment=moment, step_measure=measure)
        series, _ = run(sc)
        jj, state = sc.inertia, sc.initial
        pi0 = state.T @ (jj.j @ state.omega)
        h, mom, ortho = [], [], []
        for k in range(len(series)):
            h.append(0.5 * state.omega @ (jj.j @ state.omega))
            mom.append(np.linalg.norm(state.T @ (jj.j @ state.omega) - pi0))
            ortho.append(_ortho_defect(state.t_rows))
            state = rk4_attitude_step(state, jj, lambda t, T, w: moment, k * sc.dt, sc.dt)
        np.testing.assert_allclose(series.column("H_rk4"), h, atol=1e-14, rtol=0.0)
        np.testing.assert_allclose(series.column("mom_err_rk4"), mom, atol=1e-13, rtol=0.0)
        np.testing.assert_allclose(series.column("ortho_rk4"), ortho, atol=1e-14, rtol=0.0)
        # the VI half steps the public vi_step with the scenario's measure
        cfg = IntegratorConfig(dt=sc.dt, step_measure=measure)
        t_mat, w = sc.initial.T, sc.initial.omega
        pi = t_mat @ (jj.j @ w)
        h_vi, mom_vi = [0.5 * w @ (jj.j @ w)], [0.0]
        for _ in range(len(series) - 1):
            r = vi_step(t_mat, w, moment, jj, cfg, pi_k=pi)
            t_mat, w, pi = r.T_next, r.omega_next, r.pi_next
            h_vi.append(0.5 * w @ (jj.j @ w))
            mom_vi.append(np.linalg.norm(pi - pi0))
        np.testing.assert_allclose(series.column("H_vi"), h_vi, atol=1e-14, rtol=0.0)
        np.testing.assert_allclose(series.column("mom_err_vi"), mom_vi, atol=1e-14, rtol=0.0)


def test_step_failure_names_the_step_and_keeps_solver_classes():
    for cause in (FloatingPointError("overflow encountered in matmul"),
                  SingularInputError("determinant -2.5e+01 is not positive")):
        exc = _step_failure(cause, 7, 0.5)
        assert type(exc) is DivergenceError
        assert str(exc) == f"step 7 (t=3.5): state diverged: {cause}"
    for cause in (AntipodalError("at 180 degrees"), NoConvergenceError("no"),
                  DivergenceError("state diverged: non-finite v")):
        exc = _step_failure(cause, 2, 0.1)
        assert type(exc) is type(cause) and str(exc) == f"step 2 (t=0.2): {cause}"
    exc = _step_failure(InvalidRotationError("not a rotation"), 0, 0.1)
    assert type(exc) is SolverError and str(exc) == "step 0 (t=0): not a rotation"


def test_cli_attitude_divergence_exits_3_without_outputs(tmp_path, capsys):
    # a 0.5 s step on the shipped loop blows up: a step rotates past pi (before
    # the polar projection meets a negative determinant), which is divergence,
    # not invalid input
    out_dir = tmp_path / "out"
    code = main(["run", "scenarios/attitude_track.json", "--out-dir", str(out_dir),
                 "--dt", "0.5", "--t-final", "25"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.strip() == ("solver failure: step 26 (t=13): state diverged: relative rotation "
                           "4.07043 rad reaches pi; reduce dt")
    assert not out_dir.exists()


def test_cli_attitude_step_past_pi_exits_3_without_outputs(tmp_path, capsys):
    # a 10 s step: step 0 from the shipped rest start is fine, and its result
    # spins so fast that step 1 would rotate far past pi; the step-angle rule
    # of every attitude integrator ends the run there instead of writing it out
    out_dir = tmp_path / "out"
    code = main(["run", "scenarios/attitude_track.json", "--out-dir", str(out_dir),
                 "--dt", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.strip() == ("solver failure: step 1 (t=10): state diverged: relative rotation "
                           "176459 rad reaches pi; reduce dt")
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["free_body", "quad_track"])
def test_cli_step_count_bound_exits_2(tmp_path, capsys, name):
    out_dir = tmp_path / "out"
    code = main(["run", f"scenarios/{name}.json", "--out-dir", str(out_dir), "--dt", "1e-300"])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "dt=1e-300" in err and "t_final=" in err and "100000000 steps" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("name, flag, value", [
    ("free_body", "dt", 200.0),
    ("attitude_track", "t_final", 5e-5),
])
def test_cli_override_meets_the_file_rules(tmp_path, capsys, name, flag, value):
    # a flag is written into the document before it is read, so a step longer
    # than the run is refused with the same line as when the file says so
    out_dir = tmp_path / "out"
    code = main(["run", f"scenarios/{name}.json", "--out-dir", str(out_dir),
                 f"--{flag.replace('_', '-')}", repr(value)])
    assert code == 2
    line = "  - t_final: >= dt (or 0 for a single record)"
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out_dir.exists()
    doc = json.loads(open(f"scenarios/{name}.json", "rb").read())
    doc[flag] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"invalid scenario {path}:", line]


def test_cli_antipodal_start_exits_3_without_outputs(tmp_path, capsys):
    doc = {
        "kind": "attitude_track",
        "dt": 1e-3,
        "t_final": 0.1,
        "inertia": [3.0, 2.0, 1.0],
        "initial": {"T": None},
        "reference": {"roll": [np.pi, 0.0, 0.0]},
    }
    path = tmp_path / "antipodal.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "step 0 (t=0)" in err
    assert not out_dir.exists()


def test_quad_track_run_and_columns():
    series, metrics = run(load("quad_track", t_final=2.0))
    for name in ("t", "r_x", "v_z", "R00", "Omega_y", "e_r_norm", "e_v_norm",
                 "psi_cmd", "e_R_norm", "e_Omega_norm", "f", "q_x",
                 "V_translational", "thrust_negative", "ortho_defect",
                 "e_r_x", "e_r_y", "e_r_z"):
        assert name in series.names
    assert series.column("e_r_norm")[0] == pytest.approx(np.sqrt(17.0))
    assert "steady_abs_error_z" in metrics.extras


@pytest.mark.parametrize("scenario", ["quad_track", "quad_track_aero"])
def test_quad_run_uses_the_public_tick_wrench_and_rk4_step(scenario):
    # 200 steps of the cascade: tracking_step -> body wrench (ideal
    # ([0, 0, f], q), or _AeroModel.wrench) -> rk4_quadrotor_step reproduces
    # the runner's closed loop
    sc = load(scenario, t_final=0.2)
    series, _ = run(sc)
    aero = _AeroModel(sc) if sc.aero.enabled else None
    x, memory = sc.quad_initial, ControllerMemory()
    names = [*(f"{v}_{ax}" for v in ("r", "v") for ax in "xyz"),
             *(f"R{i}{j}" for i in range(3) for j in range(3)),
             *(f"{v}_{ax}" for v in ("Omega", "q") for ax in "xyz")]
    n = len(series)
    assert n == 201
    rows = np.empty((n, len(names)))
    norms = np.empty((n, 3))  # the tick's e_v, e_R, e_Omega norms, one at a time
    for k in range(n):
        ref = circle_reference(k * sc.dt, sc.circle_coeffs)
        f, q, e_R, e_Omega, _ = tick(x, ref, sc.vehicle, sc.position_gains,
                                     sc.attitude_gains, sc.dt, memory)
        r, v, rot, om = x
        rows[k] = [*r, *v, *rot, *om, *q]
        norms[k] = [np.linalg.norm(e) for e in (np.subtract(v, ref.v_d), e_R, e_Omega)]
        if k < n - 1:
            if aero is None:
                f_body, m_body = (0.0, 0.0, f), q
            else:
                f_body, m_body = aero.wrench(x, f, q)
            x = rk4_quadrotor_step(x, sc.vehicle, f_body, m_body, sc.dt)
    for j, name in enumerate(names):
        np.testing.assert_allclose(series.column(name), rows[:, j], atol=1e-9, rtol=0.0,
                                   err_msg=name)
    # the runner forms these norms after the loop, in another summation order:
    # the same values to within one rounding
    for j, name in enumerate(("e_v_norm", "e_R_norm", "e_Omega_norm")):
        np.testing.assert_allclose(series.column(name), norms[:, j], rtol=2.3e-16, atol=0.0,
                                   err_msg=name)


def test_thrust_negative_counts_only_a_thrust_below_zero(monkeypatch):
    # ticks commanding 0.0 and -0.0 are not negative; the smallest negative
    # float is
    step, ticks = runner.tracking_step, []
    commanded = {3: 0.0, 5: -0.0, 7: -5e-324}

    def patched(*args):
        f, *rest = step(*args)
        ticks.append(f)
        return (commanded.get(len(ticks) - 1, f), *rest)

    monkeypatch.setattr(runner, "tracking_step", patched)
    series, metrics = run(load("quad_track", t_final=0.1))
    f, negative = series.floats("f"), series.floats("thrust_negative")
    assert min(ticks) > 0.0
    assert [f[k] for k in commanded] == list(commanded.values())
    assert [negative[k] for k in commanded] == [0.0, 0.0, 1.0]
    assert metrics.extras["thrust_negative_count"] == 1.0


def test_quad_run_carries_floats_and_forms_storage_once(monkeypatch):
    # the tick's per-run work stays per run: the loop carries the plant state
    # and the tick's constants as floats, converted once (a 512-step, a 200-step
    # and a 2-step run make the same number of _floats calls), and samples the
    # reference and forms the storage column in one call per block of rows
    floats = [0]
    for module in vars(geomech).values():
        if callable(getattr(module, "_floats", None)):
            monkeypatch.setattr(module, "_floats", lambda a, f=module._floats:
                                floats.__setitem__(0, floats[0] + 1) or f(a))
    circle_reference, translational_storage = runner.circle_reference, runner.translational_storage
    counts = {}
    for t_final, blocks in ((0.2, 1), (0.002, 1), (0.512, 3)):
        sc = load("quad_track_aero", t_final=t_final)
        floats[0], samples, storage = 0, [], []
        monkeypatch.setattr(runner, "circle_reference",
                            lambda *args: samples.append(1) or circle_reference(*args))
        monkeypatch.setattr(runner, "translational_storage",
                            lambda *args: storage.append(1) or translational_storage(*args))
        series, _ = run(sc)
        assert len(series) == round(t_final / sc.dt) + 1
        assert len(samples) == blocks and len(storage) == blocks
        counts[t_final] = floats[0]
    assert counts[0.512] == counts[0.2] == counts[0.002] > 0


def test_quad_run_holds_one_block_of_reference():
    # each block samples its own reference and forms its rows apart from the
    # record, so the run's peak allocation is about its record; a whole-run
    # reference (r_d, v_d, a_d and their concatenation: 18 floats per row of
    # 35) adds more
    import tracemalloc
    run(load("quad_track", t_final=0.01))  # numpy and the run's modules are loaded
    sc = load("quad_track", t_final=2.0)
    tracemalloc.start()
    try:
        series, _ = run(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 2001
    assert peak < 1.6 * len(series.data) * 8


def test_quad_error_columns_formed_per_block_equal_the_whole_run_formulas():
    # the error and storage columns are formed block by block; on a run of
    # three blocks they keep the bits of the same expressions on all rows
    sc = load("quad_track_aero", t_final=2 * _CSV_BLOCK_ROWS * 1e-3)
    series, _ = run(sc)
    assert len(series) == 2 * _CSV_BLOCK_ROWS + 1
    ref = circle_reference(sc.dt * np.arange(len(series)), sc.circle_coeffs)
    r, v = series.vector("r"), series.vector("v")
    e_v = v - ref.v_d
    np.testing.assert_array_equal(series.vector("e_r"), r - ref.r_d)
    np.testing.assert_array_equal(series.column("e_v_norm"),
                                  np.sqrt(np.einsum("ni,ni->n", e_v, e_v)))
    np.testing.assert_array_equal(series.column("V_translational"), runner.translational_storage(
        r, v, ref.r_d, ref.v_d, sc.position_gains))


def test_quad_tick_1_has_no_torque_spike():
    # tick 1 has the first commanded-rate estimate and none before it to
    # difference against: zero acceleration feedforward, as at tick 0
    series, _ = run(load("quad_track", t_final=0.002))
    q = np.linalg.norm(series.vector("q"), axis=1)
    assert q[1] <= 2.0 * max(q[0], q[2])


def test_cli_quad_aero_rerun_byte_identical(tmp_path):
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["run", "scenarios/quad_track_aero.json", "--t-final", "0.2",
                     "--out-dir", str(out)]) == 0
        outs.append([(out / name).read_bytes()
                     for name in ("quad_track_aero.csv", "quad_track_aero.metrics.json")])
    assert outs[0] == outs[1]


def test_quad_translational_storage_decreases_once_inner_loop_converged():
    # 0.5 e_r.A e_r + 0.5 ev.C ev is non-increasing per tick whenever the
    # commanded-attitude error is small at both tick endpoints
    series, _ = run(load("quad_track", t_final=6.0))
    v = series.column("V_translational")
    psi = series.column("psi_cmd")
    dv = np.diff(v)
    qualifying = (psi[:-1] < 0.01) & (psi[1:] < 0.01)
    assert qualifying.sum() > 1000
    assert float(np.max(dv[qualifying])) <= 1e-9


def test_integrator_compare_pairs_identical_inputs():
    series, metrics = run(load("integrator_compare", t_final=1.0))
    for name in ("H_vi", "H_rk4", "mom_err_vi", "mom_err_rk4", "ortho_vi", "ortho_rk4"):
        assert name in series.names
    assert series.column("H_vi")[0] == series.column("H_rk4")[0]
    assert "rk4_energy_drift_end_rel" in metrics.extras


def test_cli_validate_ok_and_invalid(tmp_path, capsys):
    assert main(["validate", "scenarios/free_body.json"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "free_body", "dt": -1}')
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "dt" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    assert main(["validate", str(garbled)]) == 2


def test_cli_run_writes_outputs(tmp_path):
    code = main([
        "run", "scenarios/free_body.json", "--out-dir", str(tmp_path),
        "--t-final", "1.0",
    ])
    assert code == 0
    csv_path = tmp_path / "free_body.csv"
    metrics_path = tmp_path / "free_body.metrics.json"
    assert csv_path.exists() and metrics_path.exists()
    series = parse_csv_bytes(csv_path.read_bytes())
    assert len(series) == 101
    doc = json.loads(metrics_path.read_bytes())
    assert doc["energy_drift_max_rel"] < 1e-10


def test_cli_overrides_and_compare(tmp_path):
    code = main([
        "compare", "scenarios/free_body.json", "--out-dir", str(tmp_path),
        "--t-final", "0.5", "--dt", "0.005",
    ])
    assert code == 0
    series = parse_csv_bytes((tmp_path / "free_body_compare.csv").read_bytes())
    assert len(series) == 101  # 0.5 / 0.005 + 1
    assert "H_rk4" in series.names


def test_cli_aero_override(tmp_path):
    code = main([
        "run", "scenarios/quad_track.json", "--out-dir", str(tmp_path),
        "--t-final", "0.1", "--aero", "on",
    ])
    assert code == 0


@pytest.mark.parametrize("argv, line", [
    (["run", "scenarios/free_body.json", "--aero", "on"],
     "  - aero.enabled: kind 'free_body' has no rotors; only quad_track reads aero"),
    (["run", "scenarios/attitude_track.json", "--aero", "off"],
     "  - aero.enabled: kind 'attitude_track' has no rotors; only quad_track reads aero"),
])
def test_cli_aero_flag_on_a_kind_without_rotors_exits_2(tmp_path, capsys, argv, line):
    out_dir = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out_dir), "--t-final", "0.1"]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out_dir.exists()


def test_cli_compare_refuses_an_aero_section(tmp_path, capsys):
    doc = json.loads(open("scenarios/integrator_compare.json", "rb").read())
    doc["aero"] = {"enabled": False, "rho": 1.0}
    path = tmp_path / "with_aero.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["compare", str(path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"invalid scenario {path}:",
        "  - aero: kind 'integrator_compare' has no rotors; only quad_track reads aero",
    ]
    assert not out_dir.exists()


def test_cli_attitude_gain_overflow_exits_3_naming_a_step(tmp_path, capsys):
    # F = 1e200 I overflows the float kernels' stage arithmetic, which has no
    # floating-point trap: the run still ends as divergence at a named step
    doc = json.loads(open("scenarios/attitude_track.json", "rb").read())
    doc["gains"]["F"] = 1e200
    path = tmp_path / "big_gain.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.match(r"solver failure: step \d+ \(t=[0-9.e+-]+\): state diverged: \S", err[0])
    assert not out_dir.exists()


_VI_BLOWUPS = [
    ([1e200, 0.0, 0.0], "state diverged: overflow"),  # |omega|^2 overflows
    ([1e155, 1e155, 0.0], "relative rotation 1.41421e+153 rad"),  # finite, far past pi
]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("omega, message, kind", [
    # the chord free step under its first ids, then the arc and the forced step
    *(pytest.param(*row, {}, id=f"omega{i}-{row[1]}") for i, row in enumerate(_VI_BLOWUPS)),
    *(pytest.param(*row, {"integrator": {"step_measure": "arc"}}, id=f"arc-omega{i}-{row[1]}")
      for i, row in enumerate(_VI_BLOWUPS)),
    *(pytest.param(*row, {"moment": [0.5, -0.2, 0.1]}, id=f"forced-omega{i}-{row[1]}")
      for i, row in enumerate(_VI_BLOWUPS)),
])
def test_cli_vi_blowup_exits_3_with_one_line(tmp_path, capsys, command, omega, message, kind):
    # every step kind maps its failures alike: the VI steps run under the
    # same floating-point trap and step-naming error map as the other loops;
    # warnings are errors, so nothing but the one failure line can reach stderr
    doc = json.loads(open("scenarios/free_body.json", "rb").read())
    # a rate of `omega` lies outside the initial.omega envelope, so the step
    # grows instead: the first increment dt omega is the one `omega` makes at
    # the shipped dt, bit for bit
    scale = max(map(abs, omega))
    doc["initial"]["omega"] = [w / scale for w in omega]
    doc["dt"] = doc["t_final"] = doc["dt"] * scale
    doc.update(kind)
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path), "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"solver failure: step 0 (t=0): {message}")
    assert not out_dir.exists()


def _fail_rk4_at_step_3(monkeypatch):
    # compare forks its RK4 half after the patch, so each child counts its own
    # calls from 0 and fails at step 3
    core, calls = runner._attitude_rk4_core, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 4:
            raise DivergenceError("state diverged: injected")
        return core(*args)

    monkeypatch.setattr(runner, "_attitude_rk4_core", failing)


def test_cli_compare_rk4_failure_in_the_child_exits_3_with_one_line(tmp_path, capsys,
                                                                    monkeypatch):
    # the VI half succeeds; the RK4 half's step failure reaches the parent
    # with its class and the step it names, and no output is written
    _fail_rk4_at_step_3(monkeypatch)
    with pytest.raises(DivergenceError, match=r"^step 3 \(t=0\.03\): state diverged: injected$"):
        run(load("integrator_compare", t_final=0.1))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "scenarios/integrator_compare.json",
                     "--out-dir", str(out_dir)]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line == "solver failure: step 3 (t=0.03): state diverged: injected"
    assert not out_dir.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_compare_leaves_no_child_process(tmp_path, monkeypatch):
    # a success, a VI failure (the parent kills the running child) and an RK4
    # failure (the child's error is sent back): each reaps its child
    omega, _ = _VI_BLOWUPS[0]
    doc = json.loads(open("scenarios/free_body.json", "rb").read())
    scale = max(map(abs, omega))
    doc["initial"]["omega"] = [w / scale for w in omega]
    doc["dt"] = doc["t_final"] = doc["dt"] * scale
    blowup = tmp_path / "blowup.json"
    blowup.write_text(json.dumps(doc))

    def compare(*argv):
        code = main(["compare", *argv, "--out-dir", str(tmp_path / "out")])
        with pytest.raises(ChildProcessError):  # no child of this process is left
            os.waitpid(-1, os.WNOHANG)
        return code

    assert compare("scenarios/integrator_compare.json", "--t-final", "1") == 0
    assert compare(str(blowup)) == 3
    _fail_rk4_at_step_3(monkeypatch)
    assert compare("scenarios/integrator_compare.json", "--t-final", "1") == 3


def _nothing_left(out_dir):
    # no output or temporary file, no directory the run made, and no child
    assert not out_dir.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# runs of two blocks and more, which stream their rows to a writer child
_STREAMED = {"attitude_track": 0.04, "quad_track": 0.4, "quad_track_aero": 1.0}


@pytest.mark.parametrize("name, patched, line", [
    ("attitude_track", "_attitude_rk4_core", "step 300 (t=0.03)"),
    ("quad_track", "rk4_quadrotor_step", "step 300 (t=0.3)"),
])
def test_streamed_run_step_failure_after_the_first_block_exits_3(tmp_path, capsys, monkeypatch,
                                                                 name, patched, line):
    # step 300 fails after the writer child has had the first block of rows
    assert _CSV_BLOCK_ROWS < 300 < round(_STREAMED[name] / load(name).dt)
    step, calls = getattr(runner, patched), []

    def failing(*args):
        calls.append(args)
        if len(calls) == 301:
            raise DivergenceError("state diverged: injected")
        return step(*args)

    monkeypatch.setattr(runner, patched, failing)
    out_dir = tmp_path / "new" / "out"
    assert main(["run", f"scenarios/{name}.json", "--t-final", str(_STREAMED[name]),
                 "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"solver failure: {line}: state diverged: injected"]
    assert list(tmp_path.iterdir()) == []
    _nothing_left(out_dir)


@pytest.mark.parametrize("name", ["attitude_track", "quad_track_aero"])
def test_streamed_run_encode_failure_in_the_child_exits_2(tmp_path, capsys, monkeypatch, name):
    # the child's disk fills after its first block; it still reads every later
    # block (more than a pipe holds), so the run ends and the failure reaches
    # it as the child's error
    chunks = timeseries._csv_chunks

    def failing(names, blocks):
        encoded = chunks(names, blocks)
        yield next(encoded)  # the header
        yield next(encoded)  # the first block
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(timeseries, "_csv_chunks", failing)
    out_dir = tmp_path / "out"
    assert main(["run", f"scenarios/{name}.json", "--t-final", str(_STREAMED[name]),
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot write outputs: [Errno 28] No space left on device"]
    _nothing_left(out_dir)


def _killed_in_a_child(parent):
    # the SIGKILL of the OOM killer, sent only in a forked child of ``parent``
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


def test_writer_child_killed_before_its_result_exits_2(tmp_path, capsys, monkeypatch):
    # the writer child encodes every row, then dies before it sends its result
    chunks, parent = timeseries._csv_chunks, os.getpid()

    def killed(names, blocks):
        yield from chunks(names, blocks)
        _killed_in_a_child(parent)

    monkeypatch.setattr(timeseries, "_csv_chunks", killed)
    out_dir = tmp_path / "new" / "out"
    assert main(["run", "scenarios/attitude_track.json", "--t-final",
                 str(_STREAMED["attitude_track"]), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot write outputs: the child process ended without its result"]
    assert list(tmp_path.iterdir()) == []
    _nothing_left(out_dir)


def test_cli_compare_rk4_child_killed_before_its_result_exits_3(tmp_path, capsys, monkeypatch):
    # the RK4 child dies in its first step; the VI half in the parent succeeds
    core, parent = runner._attitude_rk4_core, os.getpid()

    def killed(*args):
        _killed_in_a_child(parent)
        return core(*args)

    monkeypatch.setattr(runner, "_attitude_rk4_core", killed)
    out_dir = tmp_path / "new" / "out"
    assert main(["compare", "scenarios/integrator_compare.json", "--t-final", "0.1",
                 "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "solver failure: outside the step loop: the child process ended without its result"]
    assert list(tmp_path.iterdir()) == []
    _nothing_left(out_dir)


def _raise_memory_error(*args):
    raise MemoryError


@pytest.mark.parametrize("t_final", [0.01, 0.04], ids=["one_block", "streamed"])
@pytest.mark.parametrize("target, line", [
    ((runner, "_attitude_rk4_core"), "solver failure: step 0 (t=0): out of memory"),
    ((runner, "settling_time"), "solver failure: outside the step loop: out of memory"),
    ((timeseries, "_csv_chunks"), "error: out of memory"),
], ids=["loop", "post_pass", "encode"])
def test_running_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, target,
                                                     line, t_final):
    # in the step loop, the metrics after it, or the CSV encode (the writer
    # child's, for a streamed run): one line, and nothing left behind
    monkeypatch.setattr(*target, _raise_memory_error)
    out_dir = tmp_path / "new" / "out"
    assert main(["run", "scenarios/attitude_track.json", "--t-final", str(t_final),
                 "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err.splitlines() == [line]
    assert list(tmp_path.iterdir()) == []
    _nothing_left(out_dir)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak from /proc")
@pytest.mark.parametrize("margin_mib", [2, 4])
def test_cli_under_an_address_space_limit_exits_3_with_one_line(tmp_path, margin_mib):
    # a 100,000-step free_body run capped at a few MiB above the address space
    # that a short run of the same CLI peaks at runs out of memory within
    # about 25,000 steps (under a second), in its loop or in the metrics pass
    import resource

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    args = ["run", "scenarios/free_body.json", "--t-final"]
    peak = (
        "import sys\n"
        "from geomech.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print([line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmPeak:')][0])\n"
    )
    out = subprocess.run([sys.executable, "-c", peak, *args, "3", "--out-dir",
                          str(tmp_path / "short")], env=env, capture_output=True, text=True,
                         check=True)
    limit = (int(out.stdout.split()[-1]) + 1024 * margin_mib) * 1024
    out_dir = tmp_path / "new" / "out"
    out = subprocess.run(
        [sys.executable, "-m", "geomech.cli", *args, "1000", "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert out.returncode == 3, out.stderr
    assert re.fullmatch(r"solver failure: (step \d+ \(t=[0-9.e+]+\)|outside the step loop): "
                        r"out of memory\n", out.stderr)
    assert out.stdout == ""
    assert not (tmp_path / "new").exists()


def test_streamed_run_into_an_unusable_out_dir_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("kept")
    assert main(["run", "scenarios/attitude_track.json", "--t-final", "0.04",
                 "--out-dir", str(tmp_path / "file")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write outputs: ")
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("file", "kept")]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [_CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", ["attitude_track", "quad_track_aero", "free_body"])
def test_streamed_run_writes_the_bytes_of_an_unstreamed_one(tmp_path, name, rows):
    # each loop hands the writer child its blocks; the files hold the bytes
    # of the run without a child, and the record is the same
    sc = load(name)
    sc = dataclasses.replace(sc, t_final=(rows - 1) * sc.dt)
    csv_path, metrics_path = tmp_path / "run.csv", tmp_path / "run.metrics.json"
    with csv_writer(csv_path) as stream:
        series, metrics = run(sc, stream)
        write_outputs(series, metrics, csv_path, metrics_path, stream)
    plain, plain_metrics = run(sc)
    assert len(series) == rows and series == plain
    assert csv_path.read_bytes() == series_to_csv_bytes(plain)
    assert metrics_path.read_bytes() == metrics_to_json_bytes(plain_metrics)
    assert sorted(tmp_path.iterdir()) == [csv_path, metrics_path]


def test_writer_forks_before_numpy_loads_and_a_streamed_quad_run_is_quiet(tmp_path):
    # the quad run loads numpy (and its BLAS threads) only after the writer
    # child is forked, and nothing reaches stderr
    script = (
        "import json, sys\n"
        "from geomech import cli, timeseries\n"
        "forked, at_fork = timeseries._forked, []\n"
        "timeseries._forked = lambda fn: at_fork.append('numpy' in sys.modules) or forked(fn)\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, at_fork, 'numpy' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, "run", "scenarios/quad_track_aero.json",
                          "--t-final", "0.3", "--out-dir", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.stderr == ""
    assert json.loads(out.stdout.splitlines()[-1]) == [0, [False], True]


def test_run_of_an_integrator_compare_forks_only_its_rk4_child(tmp_path):
    # integrator_compare's rows exist only once its two halves join, so `run`
    # on such a document streams nothing: it forks the RK4 child and no writer,
    # and writes the bytes that `compare` writes
    script = (
        "import json, os, sys\n"
        "from geomech import cli\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, len(forks)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    args = ["scenarios/integrator_compare.json", "--t-final", "5", "--out-dir", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", script, "run", *args],
                         env=env, capture_output=True, text=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, 1]
    assert main(["compare", *args]) == 0
    for ext in ("csv", "metrics.json"):
        assert ((tmp_path / f"integrator_compare.{ext}").read_bytes()
                == (tmp_path / f"integrator_compare_compare.{ext}").read_bytes())


def _replaced(obj, path: str, value):
    """``obj`` with the attribute at the dotted ``path`` replaced by ``value``;
    each dataclass on the way is rebuilt, so it checks its fields again."""
    head, _, rest = path.partition(".")
    return dataclasses.replace(
        obj, **{head: _replaced(getattr(obj, head), rest, value) if rest else value})


@pytest.mark.parametrize("name, section, key, value", [
    ("quad_track_aero", "aero.geometry", "radius", 1e200),  # the hover calibration overflows
    # the reference samples overflow
    ("attitude_track", "euler_coeffs", "roll", AnglePolynomial(0.0, 0.0, 1e308)),
    ("attitude_track", "initial", "omega", [1e200, 0.0, 0.0]),  # einsum columns go inf untrapped
])
def test_cli_overflow_outside_the_steps_exits_3(tmp_path, capsys, monkeypatch, name, section,
                                                key, value):
    # valid but absurd values whose arithmetic overflows while the run is
    # set up or summarised: a solver failure of the run, never a traceback.
    # validate refuses each of them (their fields have envelopes), so each
    # value replaces its field of the parsed scenario that the CLI runs
    scenario = _replaced(load(name, t_final=0.0), f"{section}.{key}", value)
    monkeypatch.setattr(cli, "parse_scenario", lambda text, overrides: scenario)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", f"scenarios/{name}.json", "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("solver failure: outside the step loop: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("out_dir", ["file", "file/x"])
def test_cli_unusable_out_dir_exits_2(tmp_path, capsys, out_dir):
    # an existing file where the directory should be, or a directory under one
    (tmp_path / "file").write_text("")
    assert main(["run", "scenarios/free_body.json", "--t-final", "0.1",
                 "--out-dir", str(tmp_path / out_dir)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write outputs: ")


def test_cli_solver_failure_exit_code(tmp_path):
    doc = {
        "kind": "free_body",
        "dt": 0.01,
        "t_final": 1.0,
        "inertia": [3.0, 2.0, 1.0],
        "initial": {"omega": [0.0, 0.0, 400.0]},  # one step spans > pi
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 3


def test_cli_compare_rejects_quad_scenario(tmp_path, capsys):
    code = main(["compare", "scenarios/quad_track.json", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "quad_track" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["run", "scenarios/free_body.json", "--dt", "abc"],
     "error: argument --dt: invalid float value: 'abc'"),
    (["compare", "scenarios/integrator_compare.json", "--aero", "on"],
     "error: unrecognized arguments: --aero on"),
])
def test_cli_bad_flag_prints_one_line_and_exits_2(tmp_path, capsys, args, message):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--out-dir", str(out_dir)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out_dir.exists()


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert "--out-dir" in capsys.readouterr().out


def test_cli_compare_at_rest_reports_null_relative_drifts(tmp_path, capsys):
    # the shipped attitude scenario starts at rest, so H0 = 0
    code = main(["compare", "scenarios/attitude_track.json", "--out-dir", str(tmp_path),
                 "--t-final", "0.1"])
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "attitude_track_compare.metrics.json").read_bytes())
    assert doc["rk4_energy_drift_end_rel"] is None
    assert doc["rk4_energy_drift_max_rel"] is None
    assert doc["rk4_momentum_drift_max"] == 0.0


@pytest.mark.parametrize("moment", [None, [0.3, -0.2, 0.1]], ids=["free", "forced"])
def test_vi_relative_energy_drift_is_null_for_a_body_at_rest(moment):
    doc = json.loads(open("scenarios/free_body.json").read())
    doc.update(t_final=1.0, initial={"T": None, "omega": [0.0, 0.0, 0.0]})
    if moment is not None:
        doc["moment"] = moment
    sc = parse_scenario(json.dumps(doc).encode())
    for kind in ("free_body", "integrator_compare"):
        metrics = run(dataclasses.replace(sc, kind=kind))[1]
        assert metrics.energy_drift_max_rel is None
        assert json.loads(metrics_to_json_bytes(metrics))["energy_drift_max_rel"] is None
    # the forced body gains energy from H_0 = 0, which no relative drift can state
    assert (metrics.extras["rk4_energy_drift_max_abs"] > 0.0) == (moment is not None)


_SUMMARY_KEYS = {"energy_drift_max_rel", "momentum_drift_max", "orthogonality_defect_max",
                 "settling_time_5pct", "settled", "steady_state_error", "newton_iters_mean"}
_QUAD_KEYS = {"steady_abs_error_x", "steady_abs_error_y", "steady_abs_error_z",
              "thrust_negative_count"}


@pytest.mark.parametrize("command, name, flags, extras", [
    ("run", "free_body", [], {"newton_iters_max", "residual_max"}),
    ("run", "attitude_track", ["--dt", "1e-3"], {"storage_max_increase", "gimbal_proximity_count"}),
    ("run", "quad_track", [], _QUAD_KEYS),
    ("run", "quad_track", ["--aero", "on"], _QUAD_KEYS),
    ("compare", "integrator_compare", [], {
        "newton_iters_max", "residual_max", "rk4_energy_drift_end_rel", "rk4_energy_drift_max_rel",
        "rk4_energy_drift_max_abs", "rk4_momentum_drift_max", "rk4_orthogonality_defect_max"}),
], ids=["free_body", "attitude_track", "quad_track", "quad_track_aero_on", "integrator_compare"])
def test_metrics_json_keys_are_fixed_per_kind(tmp_path, command, name, flags, extras):
    assert main([command, f"scenarios/{name}.json", "--out-dir", str(tmp_path),
                 "--t-final", "0.02", *flags]) == 0
    suffix = "_compare" if command == "compare" else ""
    doc = json.loads((tmp_path / f"{name}{suffix}.metrics.json").read_bytes())
    assert set(doc) == _SUMMARY_KEYS | extras


def test_gimbal_proximity_count_counts_every_row_at_constant_pitch_pi_over_2():
    doc = json.loads(open("scenarios/attitude_track.json").read())
    doc["reference"]["pitch"] = [math.pi / 2, 0.0, 0.0]
    series, metrics = run(parse_scenario(json.dumps(doc).encode(),
                                         {"dt": 1e-3, "t_final": 0.01}))
    assert len(series) == 11
    assert series.floats("gimbal_proximity").tolist() == [1.0] * 11
    assert metrics.extras["gimbal_proximity_count"] == 11.0


def test_vi_metrics_carry_solver_health_and_absolute_rk4_drift(tmp_path):
    vi, free = run(load("free_body", t_final=1.0))
    series, metrics = run(load("integrator_compare", t_final=1.0))
    for m in (free, metrics):
        assert m.extras["newton_iters_max"] == np.max(vi.column("newton_iters")) > 0
        assert m.extras["residual_max"] == np.max(vi.column("residual")) <= 1e-12
    drift = np.abs(series.column("H_rk4") - series.column("H_rk4")[0])
    assert metrics.extras["rk4_energy_drift_max_abs"] == np.max(drift) > 0.0
    # at rest the relative drifts are null and the absolute one is a number
    assert main(["compare", "scenarios/attitude_track.json", "--out-dir", str(tmp_path),
                 "--t-final", "0.1"]) == 0
    doc = json.loads((tmp_path / "attitude_track_compare.metrics.json").read_bytes())
    assert doc["rk4_energy_drift_max_rel"] is None
    assert doc["rk4_energy_drift_max_abs"] == 0.0
    assert doc["newton_iters_max"] == 0.0 and doc["residual_max"] >= 0.0
    zero = run(load("free_body", t_final=0.0))[1]
    assert zero.extras == {"newton_iters_max": 0.0, "residual_max": 0.0}


def test_cli_forced_arc_free_body_reruns_byte_identical(tmp_path):
    doc = json.loads(open("scenarios/free_body.json").read())
    doc.update(t_final=2.0, moment=[0.1, -0.2, 0.05], integrator={"step_measure": "arc"})
    path = tmp_path / "forced_arc.json"
    path.write_text(json.dumps(doc))
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        outs.append([(out / name).read_bytes()
                     for name in ("forced_arc.csv", "forced_arc.metrics.json")])
    assert outs[0] == outs[1]
    series = parse_csv_bytes(outs[0][0])
    assert len(series) == 201
    assert np.all(series.column("residual")[1:] <= 1e-12)
    metrics = json.loads(outs[0][1])
    assert 0.0 < metrics["newton_iters_mean"] <= metrics["newton_iters_max"] <= 3.0


def test_write_outputs_failed_encode_leaves_no_file(tmp_path):
    series = record(("t", "x"), np.column_stack((np.arange(3.0), np.ones(3))))
    csv_path, metrics_path = tmp_path / "run.csv", tmp_path / "run.metrics.json"
    with pytest.raises(ValueError, match="not finite"):
        write_outputs(series, MetricsSummary(extras={"bad": float("nan")}),
                      csv_path, metrics_path)
    assert list(tmp_path.iterdir()) == []
    # an earlier output stays as it was
    csv_path.write_bytes(b"old\n")
    bad_series = TimeSeries(("t", "é"), series.data)
    with pytest.raises(UnicodeEncodeError):
        write_outputs(bad_series, MetricsSummary(), csv_path, metrics_path)
    assert list(tmp_path.iterdir()) == [csv_path]
    assert csv_path.read_bytes() == b"old\n"
    write_outputs(series, MetricsSummary(), csv_path, metrics_path)
    assert sorted(tmp_path.iterdir()) == [csv_path, metrics_path]
    assert csv_path.read_bytes() == series_to_csv_bytes(series)


@pytest.mark.parametrize("aero", ["off", "on"])
def test_cli_quad_divergence_exits_3_without_outputs(tmp_path, capsys, aero):
    # with the rotor model on, the float wrench runs outside numpy's trap; a
    # blow-up there must still end as a step failure
    out_dir = tmp_path / "out"
    code = main(["run", "scenarios/quad_track.json", "--out-dir", str(out_dir),
                 "--dt", "0.5", "--t-final", "5", "--aero", aero])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert re.match(r"solver failure: step \d+ \(t=[0-9.e+-]+\): \S", err)
    if aero == "off":
        assert "state diverged" in err
    assert not out_dir.exists()


def test_quad_trap_turns_an_overflow_after_the_steps_into_one_line(tmp_path):
    # validate accepts this document and its steps finish, but its error and
    # storage columns overflow.  The quad run's floating-point trap makes
    # that an exception; without it numpy would print a RuntimeWarning to
    # stderr before the one line
    doc = {"kind": "quad_track", "dt": 1e152, "t_final": 1e152, "initial": {"v": [0, 0, 1000]},
           "position_gains": {"B": 1e-300, "D": 1e-300},
           "reference": {"amplitude": 0.0, "omega": 0.0}}
    path, out_dir = tmp_path / "huge_step.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "geomech.cli", "run", str(path), "--out-dir",
                          str(out_dir)], env=env, capture_output=True, text=True)
    assert out.returncode == 3
    assert out.stderr == "solver failure: outside the step loop: overflow encountered in matmul\n"
    assert not out_dir.exists()


def test_aero_run_keeps_scipy_unimported(tmp_path):
    script = (
        "import sys\n"
        "from geomech.cli import main\n"
        f"code = main(['run', 'scenarios/quad_track_aero.json', '--t-final', '0.01',"
        f" '--out-dir', {str(tmp_path)!r}])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


# each invalid override (one flag at a time) against sixteen valid draws
_BAD_OVERRIDES = [("dt", v) for v in (0.0, -0.5, math.inf, math.nan)] + [
    ("t_final", v) for v in (-1.0, math.inf, math.nan)]
_SHIPPED = ["attitude_track", "free_body", "integrator_compare", "quad_track",
            "quad_track_aero"]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    dt=st.floats(-3.0, 0.3).map(lambda e: 10.0**e),  # 1e-3 .. 2 s, log-uniform
    steps=st.integers(0, 300),
    bad=st.sampled_from([None] * 16 + _BAD_OVERRIDES),
    aero=st.sampled_from(["on", "off"]),
    name=st.sampled_from(_SHIPPED),
)
def test_cli_quad_overrides_end_cleanly(dt, steps, bad, aero, name):
    # any --dt / --t-final (and, for the quadrotor, --aero) override of any
    # shipped scenario ends with a documented exit code, one stderr line on
    # failure and either both outputs or none; warnings are errors so nothing
    # but that line could reach stderr
    values = {"dt": dt, "t_final": steps * dt}
    if bad is not None:
        values[bad[0]] = bad[1]
    argv = ["run", f"scenarios/{name}.json", f"--dt={values['dt']!r}",
            f"--t-final={values['t_final']!r}"]
    if name.startswith("quad_track"):
        argv += ["--aero", aero]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out-dir", str(out)])
        files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        assert files == [f"{name}.csv", f"{name}.metrics.json"]
    else:
        assert len(err.getvalue().strip().splitlines()) == 1
        assert files == []


@pytest.mark.parametrize("argvs, loads_numpy", [
    ([], False),
    ([["validate", f"scenarios/{name}.json"] for name in _SHIPPED], False),
    ([["run", "scenarios/free_body.json", "--t-final", "0.1"]], False),
    ([["run", "scenarios/attitude_track.json", "--t-final", "0.01"]], False),
    ([["compare", "scenarios/integrator_compare.json", "--t-final", "0.1"]], False),
    ([["run", "scenarios/quad_track_aero.json", "--t-final", "0.01"]], True),
    ([["run", "FAST_SPIN"]], False),
], ids=["import", "validate", "free_body", "attitude_track", "compare", "quad_track_aero",
        "attitude_track_far_polar"])
def test_rigid_body_runs_load_no_numpy(tmp_path, argvs, loads_numpy):
    # `import geomech`, then geomech.cli.main on each command line, in a fresh
    # interpreter: validate and the rigid-body kinds never load numpy; the
    # quadrotor tick's one numpy product still does.  FAST_SPIN is
    # attitude_track at dt 0.01 from omega (3, 3, 3): 40 of its polar factors
    # start outside the Newton-Schulz range (scaled Newton steps first)
    doc = json.loads(Path("scenarios/attitude_track.json").read_text())
    doc.update(dt=0.01, t_final=0.2)
    doc["initial"]["omega"] = [3.0, 3.0, 3.0]
    fast_spin = tmp_path / "fast_spin.json"
    fast_spin.write_text(json.dumps(doc))
    argvs = [[str(fast_spin) if arg == "FAST_SPIN" else arg for arg in argv] for argv in argvs]
    argvs = [argv if argv[0] == "validate" else [*argv, "--out-dir", str(tmp_path)]
             for argv in argvs]
    script = (
        "import json, sys\n"
        "import geomech\n"
        f"codes = [__import__('geomech.cli').cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    codes, numpy_loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert numpy_loaded is loads_numpy
