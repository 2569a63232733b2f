import json

import numpy as np
import pytest

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
