"""The benchmark's tracer finds every span it times in the library.

``perfbench/tracer.py`` skips a target it cannot resolve, and a span none of
whose targets resolves is listed under ``missing``, so a renamed or moved
function would silently drop a span from the traced benchmark runs.  This
test loads the tracer without changing it.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span", sorted({target[0] for target in tracer.TARGETS}))
def test_tracer_span_resolves(span):
    # a span may be looked up in more than one namespace; as in
    # ``tracer.install``, one target that resolves is enough
    targets = [(module, path) for name, module, path, _ in tracer.TARGETS if name == span]
    assert any(tracer._resolve(module, path) for module, path in targets), targets


@pytest.mark.parametrize("argv", [
    ["run", "scenarios/attitude_track.json", "--t-final", "0.01"],
    ["run", "scenarios/quad_track_aero.json", "--t-final", "0.05"],
    ["compare", "scenarios/integrator_compare.json", "--t-final", "0.1"],
], ids=["attitude_track", "quad_track_aero", "compare"])
def test_spans_timed_once_per_run_stay_once_per_run(tmp_path, capsys, argv):
    # the tracer keeps a full record of each call to a target that is not
    # marked per step; a target called once per step or per sample instead
    # would grow the trace with the run length
    from geomech import cli

    trace = tracer.Tracer("once-per-run")
    patched, _ = tracer.install(trace)
    try:
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
    finally:
        assert tracer.restore(patched)
    once = {name for name, _, _, per_step in tracer.TARGETS if not per_step}
    counts = Counter(span["name"] for span in trace.spans)
    assert set(counts) <= once
    assert {name: count for name, count in counts.items() if count > 1} == {}


def _traced_counts(tmp_path, name: str, steps: int) -> Counter:
    """Calls per span of a traced ``steps``-step ``run`` of a shipped scenario."""
    from geomech import cli
    from geomech.scenario import parse_scenario

    scenario = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"
    t_final = steps * parse_scenario(scenario.read_bytes()).dt
    trace = tracer.Tracer("per-step")
    patched, _ = tracer.install(trace)
    try:
        assert cli.main(["run", str(scenario), "--t-final", repr(t_final),
                         "--out-dir", str(tmp_path)]) == 0
    finally:
        assert tracer.restore(patched)
    counts = Counter()
    for (span, _), (count, _, _) in trace.aggregate.items():
        counts[span] += count
    return counts


@pytest.mark.parametrize("name, per_step", [
    ("attitude_track", {"rigid_body.attitude_rk4": 1, "rigid_body.polar": 4}),
    ("quad_track", {"rigid_body.quad_rk4": 1}),
])
def test_traced_rk4_steps_count_once_per_step(tmp_path, name, per_step):
    # the tracer patches the module names the loops look up, so a step reached
    # by another name (bound at import, or imported inside the loop's
    # function) would read 0 here.  Each attitude step projects its three
    # later stages and its result
    steps = 50
    counts = _traced_counts(tmp_path, name, steps)
    assert {span: counts[span] for span in per_step} == {
        span: k * steps for span, k in per_step.items()}


def test_traced_aero_layers_count_per_step_and_per_run(tmp_path):
    # each quad tick assembles one aero wrench from four rotors and maps the
    # four commanded thrusts through the calibration once; the calibration
    # itself is built once per run
    steps = 50
    counts = _traced_counts(tmp_path, "quad_track_aero", steps)
    assert {span: counts[span] for span in (
        "runner.aero_wrench", "rotor_aero.rotor_wrench", "rotor_aero.hover_calibration.lookup",
        "rotor_aero.hover_calibration.build")} == {
        "runner.aero_wrench": steps, "rotor_aero.rotor_wrench": 4 * steps,
        "rotor_aero.hover_calibration.lookup": steps, "rotor_aero.hover_calibration.build": 1}
