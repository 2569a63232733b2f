import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from geomech.attitude_control import (
    AttitudeGains,
    AttitudeReference,
    angular_velocity_error,
    attitude_error_psi,
    attitude_error_vector,
    control_torque,
)
from geomech.errors import (
    DegenerateHeadingError,
    DivergenceError,
    ScenarioValidationError,
    ZeroForceError,
)
from geomech.quadrotor import (
    _attitude_kernel,
    _force_kernel,
    _thrust,
    _velocity_target,
    ControllerMemory,
    PositionGains,
    ROTOR_SPIN,
    rotor_positions,
    rotor_thrusts,
    translational_storage,
)
from geomech.references import CircleCoeffs, TrajectoryReference, circle_reference
from geomech.rigid_body import InertiaTensor, QuadrotorParams
from geomech.runner import run
from geomech.scenario import parse_scenario
from geomech.so3 import log_so3, require_rotation

from conftest import quad_x, random_rotation, rot_x, rot_y, tick


def params():
    return QuadrotorParams(4.34, InertiaTensor.from_diag(0.084, 0.085, 0.12), 0.315)


def hover_ref(r):
    return TrajectoryReference(r, np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0]))


def force_command(r, v, ref, p, gains) -> tuple:
    """``_force_kernel`` at the position ``r`` and velocity ``v`` (arrays)."""
    return _force_kernel(r.tolist(), v.tolist(), ref.r_d.tolist(), ref.v_d.tolist(),
                         ref.a_d.tolist(), p.mass, p.g, gains.b_rows, gains.d_rows)


def test_position_gains_validation():
    PositionGains()
    with pytest.raises(ScenarioValidationError):
        PositionGains(B=np.zeros((3, 3)))


@pytest.mark.parametrize("field, value", [("mass", 0.0), ("g", -1.0)])
def test_vehicle_params_refuse_a_non_positive_mass_or_gravity(field, value):
    with pytest.raises(ScenarioValidationError) as info:
        dataclasses.replace(params(), **{field: value})
    assert info.value.violations == [(field, "must be > 0")]


def test_attitude_kernel_overflow_raises_divergence():
    with pytest.raises(DivergenceError, match="^state diverged: overflow in the force command$"):
        _attitude_kernel((1e308,) * 3, (1.0, 0.0, 0.0))


def test_velocity_target():
    gains = PositionGains()
    ref = circle_reference(0.0, CircleCoeffs())
    r_d, v_d = ref.r_d.tolist(), ref.v_d.tolist()
    np.testing.assert_allclose(_velocity_target(r_d, r_d, v_d, gains.b_rows), ref.v_d)
    b_i, zero = PositionGains(B=np.eye(3)).b_rows, [0.0, 0.0, 0.0]
    np.testing.assert_allclose(_velocity_target([1.0, 0.0, 0.0], zero, zero, b_i), [-1.0, 0.0, 0.0])
    # circle reference at t = 0 with an offset position
    r = np.array([0.0, 3.0, -4.0])
    expected = ref.v_d - gains.B @ (r - ref.r_d)
    np.testing.assert_allclose(_velocity_target(r.tolist(), r_d, v_d, gains.b_rows), expected)


def test_force_command_hover():
    p = params()
    ref = hover_ref(np.array([0.5, -0.2, 1.0]))
    cmd = force_command(ref.r_d, np.zeros(3), ref, p, PositionGains())
    np.testing.assert_allclose(cmd, [0.0, 0.0, p.mass * p.g], atol=1e-12)
    assert cmd[2] == pytest.approx(42.5754, abs=1e-4)


def test_force_command_zero_error_on_circle():
    # with no tracking error the command is m a_d - m G
    p = params()
    ref = circle_reference(0.0, CircleCoeffs())
    cmd = force_command(ref.r_d, ref.v_d, ref, p, PositionGains())
    gravity = np.array([0.0, 0.0, -p.g])
    np.testing.assert_allclose(cmd, p.mass * ref.a_d - p.mass * gravity, atol=1e-12)


def test_thrust_scalar_projections():
    p = params()
    mg = p.mass * p.g
    cmd = [0.0, 0.0, mg]
    assert _thrust(cmd, np.eye(3).ravel().tolist()) == pytest.approx(mg)
    # body z pitched to inertial x: aligned component vanishes
    assert _thrust(cmd, rot_y(np.pi / 2).ravel().tolist()) == pytest.approx(0.0, abs=1e-12)
    assert _thrust(cmd, rot_x(np.pi / 3).ravel().tolist()) == pytest.approx(mg / 2.0, rel=1e-12)
    # unclamped: opposed attitude reports negative thrust
    assert _thrust(cmd, rot_x(np.pi).ravel().tolist()) == pytest.approx(-mg, rel=1e-12)


def test_commanded_attitude_aligned():
    r_c = _attitude_kernel([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(r_c, np.eye(3).ravel(), atol=1e-15)


def test_commanded_attitude_degenerate_and_zero():
    with pytest.raises(DegenerateHeadingError):
        _attitude_kernel([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(ZeroForceError):
        _attitude_kernel([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_commanded_attitude_tilted():
    cmd = np.array([1.0, 0.0, 1.0])
    r_c = np.reshape(_attitude_kernel(cmd.tolist(), [1.0, 0.0, 0.0]), (3, 3))
    require_rotation(r_c, tol=1e-10)
    np.testing.assert_allclose(r_c[:, 2], cmd / np.sqrt(2.0), atol=1e-12)
    # Gram-Schmidt oracle: third axis, then the hint orthogonalised against it
    b3 = cmd / np.linalg.norm(cmd)
    b1 = np.array([1.0, 0.0, 0.0]) - (b3 @ [1.0, 0.0, 0.0]) * b3
    b1 /= np.linalg.norm(b1)
    np.testing.assert_allclose(r_c[:, 0], b1, atol=1e-12)
    np.testing.assert_allclose(np.cross(r_c[:, 0], r_c[:, 1]), r_c[:, 2], atol=1e-12)


def test_commanded_attitude_invariants(rng):
    for _ in range(50):
        cmd = rng.normal(size=3)
        if np.linalg.norm(cmd) < 1e-6:
            continue
        hint = rng.normal(size=3)
        hint /= np.linalg.norm(hint)
        if np.linalg.norm(np.cross(cmd / np.linalg.norm(cmd), hint)) < 1e-3:
            continue
        r_c = np.reshape(_attitude_kernel(cmd.tolist(), hint.tolist()), (3, 3))
        require_rotation(r_c, tol=1e-10)
        np.testing.assert_allclose(r_c[:, 2], cmd / np.linalg.norm(cmd), atol=1e-12)
        assert abs(r_c[:, 0] @ r_c[:, 2]) < 1e-12
        assert r_c[:, 0] @ hint > 0.0
        # thrust consistency: aligned attitude recovers the full magnitude
        assert _thrust(cmd.tolist(), r_c.ravel().tolist()) == pytest.approx(
            np.linalg.norm(cmd), rel=1e-10)


def test_rotor_mixer_roundtrip(rng):
    d, kappa = 0.315, 0.011
    arms = np.array(rotor_positions(d))
    for _ in range(20):
        f = rng.uniform(10.0, 60.0)
        m = rng.normal(size=3) * np.array([1.0, 1.0, 0.1])
        thrusts = rotor_thrusts(f, m, d, kappa)
        assert len(thrusts) == 4
        assert sum(thrusts) == pytest.approx(f, rel=1e-12)
        moment = np.zeros(3)
        for i in range(4):
            moment += np.cross(arms[i], np.array([0.0, 0.0, thrusts[i]]))
            moment += -ROTOR_SPIN[i] * kappa * thrusts[i] * np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(moment, m, atol=1e-10)


def test_tracking_step_perfect_hover():
    p = params()
    r = np.array([1.0, 2.0, 3.0])
    x = quad_x(r, np.zeros(3), np.eye(3), np.zeros(3))
    ref = hover_ref(r)
    att_gains = AttitudeGains(P=16.0 * np.eye(3), F=8.0 * p.inertia.j)
    memory = ControllerMemory()
    for _ in range(3):
        f, q, _, _, one_plus_tr = tick(x, ref, p, PositionGains(), att_gains, 1e-3, memory)
    assert f == pytest.approx(p.mass * p.g, rel=1e-12)
    np.testing.assert_allclose(q, np.zeros(3), atol=1e-10)
    assert not f < 0.0  # the run's thrust_negative
    assert 2.0 - np.sqrt(one_plus_tr) == pytest.approx(0.0, abs=1e-12)  # psi_cmd


def test_tracking_step_initial_errors_match_scenario():
    # the stock full-tracking scenario at t = 0
    p = params()
    x = quad_x([0.0, 3.0, -4.0], np.zeros(3), np.eye(3), np.zeros(3))
    ref = circle_reference(0.0, CircleCoeffs())
    att_gains = AttitudeGains(P=16.0 * np.eye(3), F=8.0 * p.inertia.j)
    f, q, *_ = tick(x, ref, p, PositionGains(), att_gains, 1e-3, ControllerMemory())
    assert f > 0.0
    assert np.all(np.isfinite(q))
    # the run forms the position and velocity errors after its loop: row 0
    sc = parse_scenario(open("scenarios/quad_track.json", "rb").read())
    series, _ = run(dataclasses.replace(sc, t_final=0.0))
    np.testing.assert_allclose(series.vector("e_r")[0], [0.0, -1.0, -4.0], atol=1e-12)
    np.testing.assert_allclose(series.vector("v")[0] - ref.v_d, -ref.v_d, atol=1e-12)
    assert series.column("e_v_norm")[0] == pytest.approx(np.linalg.norm(ref.v_d), abs=1e-12)


def test_tracking_step_matches_the_public_attitude_laws(rng):
    # the tick takes q, psi, e_R and e_Omega from one error matrix; the
    # public per-law functions, each forming its own, are the oracle
    p = params()
    gains = PositionGains()
    att_gains = AttitudeGains(P=16.0 * np.eye(3), F=8.0 * p.inertia.j)
    memory, dt, r_c_prev, omega_c_prev = ControllerMemory(), 0.01, None, None
    for k in range(6):
        state = SimpleNamespace(r=rng.normal(size=3), v=rng.normal(size=3),
                                R=random_rotation(rng), Omega=rng.normal(size=3))
        ref = circle_reference(k * dt, CircleCoeffs())
        f, q, e_R, e_Omega, one_plus_tr = tick(
            quad_x(state.r, state.v, state.R, state.Omega), ref, p, gains, att_gains, dt,
            memory)
        r_c = np.reshape(_attitude_kernel(force_command(state.r, state.v, ref, p, gains),
                                          ref.b_1d.tolist()), (3, 3))
        omega_c = np.zeros(3) if k == 0 else log_so3(r_c_prev.T @ r_c) / dt
        omega_c_dot = np.zeros(3) if k <= 1 else (omega_c - omega_c_prev) / dt
        r_c_prev, omega_c_prev = r_c, omega_c
        att_ref = AttitudeReference(r_c, omega_c, omega_c_dot)
        np.testing.assert_array_equal(
            q, control_torque(state.R, state.Omega, att_ref, p.inertia, att_gains))
        assert 2.0 - np.sqrt(one_plus_tr) == attitude_error_psi(state.R, r_c)
        np.testing.assert_array_equal(e_R, attitude_error_vector(state.R, r_c))
        np.testing.assert_allclose(e_Omega,
                                   angular_velocity_error(state.R, state.Omega, att_ref),
                                   atol=1e-14, rtol=0.0)


def test_translational_storage_zero_at_perfect_tracking():
    ref = circle_reference(1.3, CircleCoeffs())
    r, v = ref.r_d[None], ref.v_d[None]  # one row
    assert translational_storage(r, v, r, v, PositionGains()) == pytest.approx([0.0], abs=1e-12)
