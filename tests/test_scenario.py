import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomech.cli import main
from geomech.errors import ScenarioParseError, ScenarioValidationError
from geomech.scenario import parse_scenario


def test_minimal_free_body_defaults():
    sc = parse_scenario(b'{"kind": "free_body"}')
    assert sc.kind == "free_body"
    assert sc.dt == 0.01
    assert sc.t_final == 10.0
    np.testing.assert_array_equal(sc.initial.T, np.eye(3))
    np.testing.assert_array_equal(sc.initial.omega, np.zeros(3))
    np.testing.assert_array_equal(sc.inertia.j, np.eye(3))
    assert sc.step_measure == "chord"
    assert sc.moment is None


def test_parse_error_reports_position():
    with pytest.raises(ScenarioParseError, match="line"):
        parse_scenario(b'{"kind": "free_body",\n  broken}')
    with pytest.raises(ScenarioParseError, match="object"):
        parse_scenario(b"[1, 2, 3]")


def test_dt_must_be_positive():
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(b'{"kind": "free_body", "dt": 0}')
    assert any(field == "dt" and "> 0" in msg for field, msg in err.value.violations)


def test_all_violations_reported_at_once():
    doc = {
        "kind": "free_body",
        "dt": -1.0,
        "inertia": [1.0, 1.0, 5.0],
        "initial": {"omega": [1.0, "bad", 0.0]},
    }
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    fields = [field for field, _ in err.value.violations]
    assert "dt" in fields
    assert "inertia" in fields
    assert "initial.omega" in fields


def test_unknown_kind():
    with pytest.raises(ScenarioValidationError, match="kind"):
        parse_scenario(b'{"kind": "warp_drive"}')


def test_attitude_scenario_file_round_trip():
    sc = parse_scenario(open("scenarios/attitude_track.json", "rb").read())
    np.testing.assert_array_equal(sc.inertia.j, np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_array_equal(sc.attitude_gains.P, np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_array_equal(sc.attitude_gains.F, np.diag([3.0, 2.0, 1.0]))
    assert sc.euler_coeffs.roll.a0 == pytest.approx(0.999 * np.pi)
    assert sc.euler_coeffs.roll.a1 == 0.5
    assert sc.euler_coeffs.pitch.a2 == 0.1
    assert sc.euler_coeffs.yaw.a1 == -0.5
    assert sc.euler_coeffs.yaw.a2 == 0.2


def test_attitude_gains_default_to_inertia():
    doc = {"kind": "attitude_track", "inertia": [3.0, 2.0, 1.0],
           "reference": {"roll": [0.1]}}
    sc = parse_scenario(json.dumps(doc))
    np.testing.assert_array_equal(sc.attitude_gains.P, np.diag([3.0, 2.0, 1.0]))


def test_quad_scenario_file():
    sc = parse_scenario(open("scenarios/quad_track.json", "rb").read())
    assert sc.vehicle.mass == 4.34
    assert sc.vehicle.arm_length == 0.315
    np.testing.assert_array_equal(sc.vehicle.inertia.j, np.diag([0.084, 0.085, 0.12]))
    np.testing.assert_array_equal(sc.quad_initial[0], [0.0, 3.0, -4.0])
    assert sc.circle_coeffs.amplitude == 4.0
    assert sc.circle_coeffs.omega == 0.5
    assert not sc.aero.enabled


def test_quad_aero_scenario_file():
    sc = parse_scenario(open("scenarios/quad_track_aero.json", "rb").read())
    assert sc.aero.enabled
    assert sc.aero.geometry.radius == 0.15
    assert sc.aero.rho == 1.225


def test_gain_spd_violations_collected():
    doc = {
        "kind": "quad_track",
        "position_gains": {"B": -2.0},
        "attitude_gains": {"P": 0.0},
    }
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    fields = [field for field, _ in err.value.violations]
    assert any("position_gains" in f for f in fields)
    assert any("attitude_gains" in f for f in fields)


def test_matrix_forms():
    doc = {"kind": "free_body", "inertia": [[2.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 1.5]]}
    sc = parse_scenario(json.dumps(doc))
    assert sc.inertia.j[0, 1] == 0.1
    doc = {"kind": "free_body", "inertia": 2.5}
    sc = parse_scenario(json.dumps(doc))
    np.testing.assert_array_equal(sc.inertia.j, 2.5 * np.eye(3))


def test_rotor_geometry_without_hover_thrust_is_a_violation(tmp_path):
    # theta0/6 - theta_tw/8 <= 0 is refused even with aero disabled, because
    # `--aero on` can enable the rotor model after validation
    doc = json.loads(open("scenarios/quad_track.json", "rb").read())
    assert not doc["aero"]["enabled"]
    doc["aero"]["geometry"] = {"theta0": 0.02, "theta_tw": 0.04}
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert [field for field, _ in err.value.violations] == ["aero.geometry"]
    path = tmp_path / "no_hover.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("field", ["dt", "t_final"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_timing_is_a_violation(field, value):
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(f'{{"kind": "quad_track", "{field}": {value}}}')
    assert (field, "must be finite") in err.value.violations


def test_step_count_is_bounded(tmp_path):
    # the run loops allocate one table row per step up front
    doc = {"kind": "free_body", "dt": 1e-300, "t_final": 1.0, "inertia": 1.0}
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    [(field, msg)] = err.value.violations
    assert field == "t_final" and "1e-300" in msg and "1.0" in msg
    doc.update(t_final=1e10)  # t_final / dt overflows to inf
    with pytest.raises(ScenarioValidationError, match="more than 100000000 steps"):
        parse_scenario(json.dumps(doc))
    doc.update(dt=1e-8, t_final=1.0)  # exactly MAX_STEPS steps
    assert parse_scenario(json.dumps(doc)).dt == 1e-8
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0


def _set(doc, path, value):
    *head, last = path.split(".")
    for key in head:
        doc = doc.setdefault(key, {})
    doc[last] = value


@pytest.mark.parametrize("name, path, value, message", [
    ("free_body", "integrator.newton_tol", "abc", "must be a number"),
    ("free_body", "integrator.max_iters", 1.5, "must be an integer"),
    ("free_body", "dt", True, "must be a number"),
    ("free_body", "t_final", "10", "must be a number"),
    ("attitude_track", "gains.k_R", "abc", "must be a number"),
    ("attitude_track", "gains.k_R", math.inf, "must be finite"),
    ("attitude_track", "reference.roll", [math.inf], "finite coefficients"),
    ("quad_track", "vehicle.mass", "abc", "must be a number"),
    ("quad_track", "position_gains.A", math.nan, "finite scalar, 3-list or 3x3"),
    ("quad_track", "position_gains.D", [1, math.inf, 1], "finite scalar, 3-list or 3x3"),
    ("quad_track", "reference.amplitude", math.inf, "must be finite"),
    ("quad_track", "reference.omega", math.nan, "must be finite"),
    ("quad_track", "aero.enabled", "no", "must be false or true"),
    ("quad_track_aero", "aero.rho", "abc", "must be a number"),
    ("quad_track_aero", "aero.rho", 1e-300, "must be >= 0.001"),
    ("quad_track_aero", "aero.rho", 1e300, "must be <= 100"),
    ("quad_track_aero", "aero.geometry.n_blades", "abc", "must be a number"),
    ("quad_track_aero", "aero.geometry.n_blades", 2.0, "must be an integer"),
    ("quad_track_aero", "aero.geometry.chord", math.inf, "must be finite"),
    ("quad_track_aero", "aero.geometry.chord", 10**400, "must be finite"),
    ("quad_track_aero", "aero.geometry.pitch", 0.1, "unknown field"),
    # finite values whose run would overflow while it is set up or summarised
    ("quad_track_aero", "vehicle.mass", 1e154, "must be <= 10000"),
    ("quad_track_aero", "vehicle.g", 1e300, "must be <= 1000"),
    ("quad_track_aero", "aero.geometry.lift_slope", 1e200, "must be <= 100"),
    ("attitude_track", "gains.k_R", 1e308, "must be <= 1e+06"),
    ("quad_track", "vehicle.mass", 1e-300, "must be >= 0.001"),
    ("attitude_track", "gains.P", [[3, 1, 0], [0, 2, 0], [0, 0, 1]], "must be symmetric"),
    ("quad_track", "vehicle.arm_length", 0, "must be > 0"),
    ("quad_track_aero", "aero.geometry.theta0", -0.1, "must be >= 0"),
    ("quad_track", "reference.b_1d", [2, 0, 0], "must be a unit vector"),
    ("quad_track_aero", "aero.geometry.radius", 1e200, "must be <= 100"),
    ("quad_track_aero", "aero.geometry.theta0", 1e308, "must be <= 1.5"),
    ("quad_track_aero", "aero.geometry.chord", 5e-324, "must be >= 0.0001"),
    ("attitude_track", "reference.roll", [0, 0, 1e308], "must lie in [-1000, 1000]"),
    ("attitude_track", "reference.pitch", [0, 0, 1e308], "must lie in [-1000, 1000]"),
    ("attitude_track", "reference.yaw", [0, 0, 1e308], "must lie in [-1000, 1000]"),
    ("quad_track", "reference.amplitude", 1e308, "must be <= 1000"),
    ("quad_track", "reference.omega", 1e200, "must be <= 100"),
    ("quad_track_aero", "initial.r", [1e300, 0, 0], "must lie in [-10000, 10000]"),
    ("quad_track_aero", "initial.v", [1e300, 0, 0], "must lie in [-1000, 1000]"),
    ("quad_track_aero", "initial.Omega", [1e300, 0, 0], "must lie in [-1000, 1000]"),
    ("quad_track_aero", "position_gains.B", 1e300, "must lie in [-1e+06, 1e+06]"),
    ("quad_track_aero", "position_gains.D", 1e300, "must lie in [-1e+06, 1e+06]"),
    ("free_body", "initial.omega", [1e300, 0, 0], "must lie in [-1000, 1000]"),
    ("attitude_track", "initial.omega", [1e300, 0, 0], "must lie in [-1000, 1000]"),
    ("integrator_compare", "initial.omega", [1e300, 0, 0], "must lie in [-1000, 1000]"),
    ("attitude_track", "gains.P", 1e300, "must lie in [-1e+06, 1e+06]"),
])
def test_cli_validate_names_the_bad_field(tmp_path, capsys, name, path, value, message):
    # one mutated field of a shipped scenario: exit 2 and exactly one
    # violation line, naming that field
    doc = json.loads(open(f"scenarios/{name}.json", "rb").read())
    _set(doc, path, value)
    target = tmp_path / f"{name}.json"
    target.write_text(json.dumps(doc))
    assert main(["validate", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"invalid scenario {target}:"
    [line] = err[1:]
    assert line.startswith(f"  - {path}: ") and message in line


@pytest.mark.parametrize("data", [
    b'{"kind": "free_body"\xff}',  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder's recursion limit
], ids=["bad-byte", "deep-nesting"])
def test_cli_unreadable_text_is_one_parse_error_line(tmp_path, capsys, data):
    target = tmp_path / "bad.json"
    target.write_bytes(data)
    assert main(["validate", str(target)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"parse error in {target}: ")


def test_cli_missing_file_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "missing.json"
    assert main(["validate", str(target)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot read {target}: ")


def _key_paths(node, prefix=""):
    """Every dotted key path of a document but ``kind``, at any depth."""
    for key, value in node.items():
        if key != "kind":
            yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")


@pytest.mark.parametrize("name", ["attitude_track", "free_body", "integrator_compare",
                                  "quad_track", "quad_track_aero"])
def test_null_means_the_default_for_every_field(name):
    # a shipped scenario with any one field or section set to null parses
    # exactly as with that key left out
    doc = json.loads(open(f"scenarios/{name}.json", "rb").read())
    for path in _key_paths(doc):
        *head, last = path.split(".")
        nulled, dropped = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
        _set(nulled, path, None)
        node = dropped
        for key in head:
            node = node[key]
        del node[last]
        assert repr(parse_scenario(json.dumps(nulled))) == repr(
            parse_scenario(json.dumps(dropped))), path


def test_outputs_are_always_named_after_the_stem(tmp_path, capsys):
    # former `csv_name` / `metrics_name` keys are unknown keys, refused like any other
    doc = json.loads(open("scenarios/free_body.json", "rb").read())
    doc.update(t_final=0.0, csv_name="../escaped.csv", metrics_name=5)
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [
        "  - csv_name: unknown field", "  - metrics_name: unknown field"]
    del doc["csv_name"], doc["metrics_name"]
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "named.csv", "named.json", "named.metrics.json"]


_SHIPPED = ["attitude_track", "free_body", "integrator_compare", "quad_track", "quad_track_aero"]
_ROOT = Path(__file__).resolve().parents[1]
_DELETE = object()
# ill-typed, non-finite, wrong-shape, nested and out-of-range replacements
_MUTANTS = [_DELETE, "abc", "1.0", "", True, False, None, math.nan, math.inf, -math.inf,
            [], [1.0, 2.0], [0.5, 0.5, 0.5, 0.5], [[1.0, 0.0, 0.0]], [1.0, "x", 0.0],
            [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], {}, {"a": {"b": 1.0}},
            0, -1.0, 1.5, 1e154, -1e308, 1e308, 10**400, 1e-300, 5e-324]


def _validate_then_run(name: str, doc: dict) -> int:
    """``validate`` on ``doc``, a mutated shipped scenario ``name``; if it is
    accepted, ``run --t-final 0`` must set the run up and write its one
    record (exit 0).  Returns the exit code, 0 or 2.  Warnings are errors, so
    nothing but the documented lines reach stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        target = Path(tmp) / f"{name}.json"
        target.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", str(target)])
            assert code in (0, 2)
            if code == 0:
                code = main(["run", str(target), "--t-final", "0", "--out-dir", str(out)])
                assert code == 0, err.getvalue()
        files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    lines = err.getvalue().splitlines()
    if code == 2:
        assert lines[0].startswith(("invalid scenario", "parse error"))
        assert lines[1:] and all(line.startswith("  - ") for line in lines[1:])
    else:
        assert lines == [] and files == [f"{name}.csv", f"{name}.metrics.json"]
    return code


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_validate_fuzzed_documents_end_cleanly(data):
    # one leaf or section of a shipped scenario replaced or deleted: validate
    # exits 0 or 2 and never raises; a document it accepts runs one record
    name = data.draw(st.sampled_from(_SHIPPED))
    doc = json.loads(open(f"scenarios/{name}.json", "rb").read())
    paths = []
    stack = [(doc, "")]
    while stack:
        node, prefix = stack.pop()
        for key, value in node.items():
            paths.append(prefix + key)
            if isinstance(value, dict):
                stack.append((value, f"{prefix}{key}."))
    path = data.draw(st.sampled_from(sorted(paths)))
    value = data.draw(st.sampled_from(_MUTANTS))
    *head, last = path.split(".")
    node = doc
    for key in head:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    _validate_then_run(name, doc)


def _numeric_leaves(node, path=()):
    """The path (keys and list indices) of every number in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, (*path, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*path, key)


@pytest.mark.parametrize("name", _SHIPPED)
def test_validate_accepts_only_runnable_magnitudes(name):
    # every number of a shipped scenario but t_final set to an extreme
    # magnitude, a signed zero or a subnormal: a document that validate
    # accepts sets its run up, so run --t-final 0 exits 0
    shipped = open(f"scenarios/{name}.json", "rb").read()
    for path in _numeric_leaves(json.loads(shipped)):
        if path == ("t_final",):
            continue
        for value in (1e300, -1e300, 1e-300, 0.0, -0.0, 5e-324):
            doc = json.loads(shipped)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            _validate_then_run(name, doc)


@pytest.mark.parametrize("doc, typos", [
    ({"kind": "free_body", "t_finall": 5, "initial": {"omega": [1, 0, 0], "omgea": [9, 9, 9]},
      "integrator": {"newton_toll": 1e-3}}, ["t_finall", "initial.omgea", "integrator.newton_toll"]),
    ({"kind": "quad_track", "vehicle": {"mas": 2.0}, "reference": {"amplitud": 1.0}},
     ["vehicle.mas", "reference.amplitud"]),
    ({"kind": "attitude_track", "gains": {"kr": 2.0}, "refrence": {"roll": [0.1]}},
     ["refrence", "gains.kr"]),
], ids=["free_body", "quad_track", "attitude_track"])
def test_cli_validate_refuses_each_misspelled_key(tmp_path, capsys, doc, typos):
    # each typo, at any depth, is one line; before, these ran on the defaults
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"invalid scenario {path}:", *(f"  - {typo}: unknown field" for typo in typos)]


@pytest.mark.parametrize("name, path", [
    (name, path) for name in _SHIPPED
    for path in _key_paths(json.loads((_ROOT / f"scenarios/{name}.json").read_bytes()))
])
def test_every_misspelled_key_of_a_shipped_scenario_is_refused(tmp_path, capsys, name, path):
    # one character appended to one key: exit 2, naming the misspelled path
    doc = json.loads(open(f"scenarios/{name}.json", "rb").read())
    *head, last = path.split(".")
    node = doc
    for key in head:
        node = node[key]
    node[last + "x"] = node.pop(last)
    target = tmp_path / f"{name}.json"
    target.write_text(json.dumps(doc))
    assert main(["validate", str(target)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [f"  - {path}x: unknown field"]
