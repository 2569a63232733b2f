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
    np.testing.assert_array_equal(sc.quad_initial.r, [0.0, 3.0, -4.0])
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


@pytest.mark.parametrize("name", ["attitude_track", "free_body", "integrator_compare",
                                  "quad_track", "quad_track_aero"])
def test_null_means_the_default_for_every_field(name):
    # a shipped scenario with any one field or section set to null parses
    # exactly as with that key left out
    doc = json.loads(open(f"scenarios/{name}.json", "rb").read())

    def paths(node, prefix=""):
        for key, value in node.items():
            if key != "kind":
                yield prefix + key
            if isinstance(value, dict):
                yield from paths(value, f"{prefix}{key}.")

    for path in paths(doc):
        *head, last = path.split(".")
        nulled, dropped = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
        _set(nulled, path, None)
        node = dropped
        for key in head:
            node = node[key]
        del node[last]
        assert repr(parse_scenario(json.dumps(nulled))) == repr(
            parse_scenario(json.dumps(dropped))), path


def test_outputs_are_always_named_after_the_stem(tmp_path):
    # former `csv_name` / `metrics_name` keys are unknown keys, ignored like any other
    doc = json.loads(open("scenarios/free_body.json", "rb").read())
    doc.update(t_final=0.0, csv_name="../escaped.csv", metrics_name=5)
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "named.csv", "named.json", "named.metrics.json"]


_DELETE = object()
# ill-typed, non-finite, wrong-shape, nested and out-of-range replacements
_MUTANTS = [_DELETE, "abc", "1.0", "", True, False, None, math.nan, math.inf, -math.inf,
            [], [1.0, 2.0], [0.5, 0.5, 0.5, 0.5], [[1.0, 0.0, 0.0]], [1.0, "x", 0.0],
            [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], {}, {"a": {"b": 1.0}},
            0, -1.0, 1.5, 1e154, -1e308, 1e308, 10**400, 1e-300, 5e-324]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_validate_fuzzed_documents_end_cleanly(data):
    # one leaf or section of a shipped scenario replaced or deleted: validate
    # exits 0 or 2 and never raises; a document it accepts runs one record
    # (exit 0) or fails as a run (exit 3), never as invalid input.  Warnings
    # are errors, so nothing but the documented lines reach stderr.
    name = data.draw(st.sampled_from(["attitude_track", "free_body", "integrator_compare",
                                      "quad_track", "quad_track_aero"]))
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
                assert code in (0, 3)
        files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    lines = err.getvalue().splitlines()
    if code == 2:
        assert lines[0].startswith(("invalid scenario", "parse error"))
        assert lines[1:] and all(line.startswith("  - ") for line in lines[1:])
    elif code == 3:
        assert len(lines) == 1 and lines[0].startswith("solver failure: ")
        assert files == []
    else:
        assert lines == [] and files == [f"{name}.csv", f"{name}.metrics.json"]
