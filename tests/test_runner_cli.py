import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from geomech.attitude_control import control_torque
from geomech.cli import main
from geomech.references import euler_321_reference
from geomech.rigid_body import rk4_attitude_step
from geomech.runner import run, settling_time, steady_state_value
from geomech.scenario import parse_scenario
from geomech.timeseries import (
    MetricsSummary,
    TimeSeries,
    parse_csv_bytes,
    series_to_csv_bytes,
    write_outputs,
)


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
        assert name in series.columns


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
        assert name in series.columns
    # storage decreases from the near-antipodal start
    v = series.column("V_storage")
    assert v[-1] < v[0]
    assert metrics.orthogonality_defect_max < 1e-12


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
        assert name in series.columns
    assert series.column("e_r_norm")[0] == pytest.approx(np.sqrt(17.0))
    assert "steady_abs_error_z" in metrics.extras


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
        assert name in series.columns
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
    assert "H_rk4" in series.columns


def test_cli_aero_override(tmp_path):
    code = main([
        "run", "scenarios/quad_track.json", "--out-dir", str(tmp_path),
        "--t-final", "0.1", "--aero", "on",
    ])
    assert code == 0


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


def test_write_outputs_failed_encode_leaves_no_file(tmp_path):
    series = TimeSeries({"t": np.arange(3.0), "x": np.ones(3)})
    csv_path, metrics_path = tmp_path / "run.csv", tmp_path / "run.metrics.json"
    with pytest.raises(ValueError, match="not finite"):
        write_outputs(series, MetricsSummary(extras={"bad": float("nan")}),
                      csv_path, metrics_path)
    assert list(tmp_path.iterdir()) == []
    # an earlier output stays as it was
    csv_path.write_bytes(b"old\n")
    bad_series = TimeSeries({"t": np.arange(3.0), "é": np.ones(3)})
    with pytest.raises(UnicodeEncodeError):
        write_outputs(bad_series, MetricsSummary(), csv_path, metrics_path)
    assert list(tmp_path.iterdir()) == [csv_path]
    assert csv_path.read_bytes() == b"old\n"
    write_outputs(series, MetricsSummary(), csv_path, metrics_path)
    assert sorted(tmp_path.iterdir()) == [csv_path, metrics_path]
    assert csv_path.read_bytes() == series_to_csv_bytes(series)


def test_cli_quad_divergence_exits_3_without_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["run", "scenarios/quad_track.json", "--out-dir", str(out_dir),
                 "--dt", "0.5", "--t-final", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert re.match(r"solver failure: step \d+ \(t=[0-9.e+-]+\): \S", err)
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
