"""Tests of the benchmark itself, at a few simulated steps per run.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS, OutputError, check_outputs, gate_violations

ROOT = Path(__file__).resolve().parents[1]
TINY_STEPS = 5


def tiny(name: str) -> run.Workload:
    """The workload at ``TINY_STEPS`` steps, same generator otherwise."""
    w = WORKLOADS[name]
    dt = w.scenario(0)["dt"]
    return dataclasses.replace(
        w, steps=TINY_STEPS, make=lambda rng: {**w.make(rng), "t_final": TINY_STEPS * dt}
    )


@pytest.fixture
def bench_factory(tmp_path):
    def make(name, seed=3, cls=run.Bench):
        work = tmp_path / f"{name}-{seed}"
        work.mkdir()
        return cls(tiny(name), seed, ROOT, work)

    return make


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    assert w.scenario_bytes(7, 1) == w.scenario_bytes(7, 1)
    # the aero cascade is a fixed scenario (see workloads._quad_aero_doc)
    varies = name != "quad_track_aero"
    assert (w.scenario_bytes(7, 1) != w.scenario_bytes(8, 1)) == varies
    assert (w.scenario_bytes(7, 0) != w.scenario_bytes(7, 1)) == varies
    assert round(w.scenario(7)["t_final"] / w.scenario(7)["dt"]) == w.steps


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_run_passes_every_gate(bench_factory, name):
    bench = bench_factory(name)
    for draw in range(run.DRAWS):
        bench.run("setup", draw, full=False)
        bench.run("full", draw, full=True)
    bench.run("full", 0, full=True)
    assert bench.failures == []
    assert bench.attempted == 2 * run.DRAWS + 1


def test_truncated_or_corrupted_output_counts_as_failure(bench_factory, tmp_path):
    class Truncating(run.Bench):
        def _launch(self, cmd, out):
            result = super()._launch(cmd, out)
            csv_path = next(out.glob("*.csv"))
            csv_path.write_bytes(csv_path.read_bytes()[:-30])
            return result

    bench = bench_factory("attitude_track", cls=Truncating)
    bench.run("full", 0, full=True)
    assert bench.attempted == 1 and len(bench.failures) == 1
    assert "CSV" in bench.failures[0]

    w = tiny("attitude_track")
    good = bench_factory("attitude_track", seed=4)
    out = tmp_path / "kept"
    out.mkdir()
    scenario = good.scenarios[0]
    subprocess.run([sys.executable, "-m", "geomech.cli", "run", str(scenario),
                    "--out-dir", str(out)], check=True, env=good.env, capture_output=True)
    csv_path, metrics_path = (out / n for n in w.output_names(scenario.stem))
    check_outputs(w, csv_path, metrics_path, TINY_STEPS + 1)
    metrics_path.write_text(metrics_path.read_text().replace("0.0", "NaN", 1))
    with pytest.raises(OutputError):
        check_outputs(w, csv_path, metrics_path, TINY_STEPS + 1)
    metrics_path.unlink()
    with pytest.raises(OutputError, match="missing"):
        check_outputs(w, csv_path, metrics_path, TINY_STEPS + 1)


def test_gates_reject_out_of_bound_missing_or_null_metrics():
    gates = WORKLOADS["attitude_track"].gates
    assert gate_violations(gates, {"storage_max_increase": 0.0}) == []
    for bad in ({"storage_max_increase": 1e-6}, {"storage_max_increase": None}, {}):
        assert gate_violations(gates, bad)


def test_outputs_differing_between_repeats_count_as_failure(bench_factory):
    bench = bench_factory("integrator_compare")
    bench.run("full", 0, full=True)
    bench.scenarios[0].write_bytes(tiny("integrator_compare").scenario_bytes(99))
    bench.run("full", 0, full=True)
    assert len(bench.failures) == 1 and "differ" in bench.failures[0]


def test_traced_run_is_byte_identical_and_self_times_sum_to_run_span(bench_factory):
    bench = bench_factory("quad_track_aero")
    bench.run("full", 1, full=True)
    sample = bench.run("traced", 1, full=True, traced=True)
    assert bench.failures == []  # includes the byte-identity check
    trace = sample.trace
    assert trace["restored"] and trace["missing"] == []

    rows = trace["aggregate"]
    inside, frontier = set(), {"runner.run"}
    while frontier:
        inside |= frontier
        frontier = {r["name"] for r in rows if r["parent"] in frontier} - inside
    run_total = sum(r["total_s"] for r in rows if r["name"] == "runner.run")
    self_sum = sum(r["self_s"] for r in rows if r["name"] in inside)
    assert self_sum == pytest.approx(run_total, rel=1e-9)

    layers = run.layer_metrics(trace, sample.metrics, TINY_STEPS)
    assert layers["runner.aero_wrench.calls"] == TINY_STEPS
    assert layers["rotor_aero.rotor_wrench.calls"] == 4 * TINY_STEPS
    assert layers["quadrotor.tracking_step.calls"] == TINY_STEPS + 1
    assert layers["timeseries.bytes_written"] > 0
    assert layers["runner.attitude_loop.self_us_per_step"] == 0.0  # not reached


def test_missing_call_target_is_skipped_and_its_metrics_absent():
    import geomech.runner

    original = geomech.runner._attitude_loop_numpy
    t = tracer.Tracer("test")
    patched, missing = tracer.install(t, [
        ("gone.kernel", "geomech.runner", "_no_such_kernel", True),
        ("gone.module", "geomech._no_such_module", "f", True),
        ("runner.attitude_loop", "geomech.runner", "_attitude_loop_numpy", False),
    ])
    assert missing == ["gone.kernel", "gone.module"]
    assert geomech.runner._attitude_loop_numpy is not original
    assert tracer.restore(patched)
    assert geomech.runner._attitude_loop_numpy is original

    trace = {"aggregate": [], "counters": {}, "missing": ["runner.attitude_loop"]}
    layers = run.layer_metrics(trace, {}, 10)
    assert "runner.attitude_loop.self_us_per_step" not in layers
    assert layers["rigid_body.polar.calls"] == 0
    assert "variational.newton_iters_mean" not in layers


def test_benchmark_json_describes_this_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert f"{WORKLOADS[w['name']].steps} steps" in w["why"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "steps_per_s", "setup_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "attitude_track", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
