import numpy as np
import pytest

from geomech.attitude_control import (
    AttitudeGains,
    AttitudeReference,
    angular_velocity_error,
    attitude_error_psi,
    attitude_error_vector,
    beta_matrix,
    control_torque,
)
from geomech.errors import AntipodalError, ScenarioValidationError
from geomech.rigid_body import InertiaTensor, rk4_attitude_step, RigidBodyState
from geomech.references import AnglePolynomial, Euler321Coeffs, euler_321_reference
from geomech.so3 import exp_so3

from conftest import random_rotation, rot_z
from oracles import omega_target, storage_function


J321 = InertiaTensor.from_diag(3.0, 2.0, 1.0)


def static_ref(r_d):
    return AttitudeReference(r_d, np.zeros(3), np.zeros(3))


def test_gains_validation():
    AttitudeGains.from_inertia(J321)
    with pytest.raises(ScenarioValidationError):
        AttitudeGains(P=-np.eye(3), F=np.eye(3))
    with pytest.raises(ScenarioValidationError):
        AttitudeGains(P=np.eye(3), F=np.eye(3), k_R=0.0)


def test_psi_basics(rng):
    r = random_rotation(rng)
    assert attitude_error_psi(r, r) == pytest.approx(0.0, abs=1e-12)
    # quarter turn: tr E = 1, psi = 2 - sqrt(2) = 4 sin^2(pi/8)
    got = attitude_error_psi(r @ rot_z(np.pi / 2), r)
    assert got == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    assert got == pytest.approx(4.0 * np.sin(np.pi / 8) ** 2, abs=1e-12)


def test_psi_approaches_two_near_antipode():
    angle = np.pi - 1e-4
    psi = attitude_error_psi(rot_z(angle), np.eye(3))
    assert psi == pytest.approx(4.0 * np.sin(angle / 4.0) ** 2, abs=1e-10)
    assert psi > 1.999


def test_antipodal_raises():
    with pytest.raises(AntipodalError):
        attitude_error_psi(rot_z(np.pi), np.eye(3))
    with pytest.raises(AntipodalError):
        attitude_error_vector(rot_z(np.pi), np.eye(3))
    with pytest.raises(AntipodalError):
        beta_matrix(rot_z(np.pi), np.eye(3))


def test_error_vector_same_axis():
    theta = 0.7
    e_r = attitude_error_vector(rot_z(theta), np.eye(3))
    np.testing.assert_allclose(e_r, [0.0, 0.0, np.sin(theta / 2)], atol=1e-12)
    np.testing.assert_allclose(
        attitude_error_vector(np.eye(3), np.eye(3)), np.zeros(3), atol=1e-15
    )


def test_error_identities_random(rng):
    # |e_R| = sin(theta/2) and psi = 4 sin^2(theta/4) over random errors
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0.0, np.pi - 1e-3)
        r_d = random_rotation(rng)
        r = r_d @ exp_so3(theta * axis)
        assert abs(
            np.linalg.norm(attitude_error_vector(r, r_d)) - np.sin(theta / 2)
        ) < 1e-10
        assert abs(attitude_error_psi(r, r_d) - 4.0 * np.sin(theta / 4) ** 2) < 1e-10


def test_psi_left_invariance_and_positivity(rng):
    for _ in range(20):
        r, r_d, q = random_rotation(rng), random_rotation(rng), random_rotation(rng)
        psi = attitude_error_psi(r, r_d)
        assert psi >= 0.0
        assert attitude_error_psi(q @ r, q @ r_d) == pytest.approx(psi, abs=1e-12)


def test_error_vector_antisymmetry(rng):
    # swapping arguments transposes E, flipping the sign of the vector
    for _ in range(10):
        r, r_d = random_rotation(rng), random_rotation(rng)
        a = attitude_error_vector(r, r_d)
        b = attitude_error_vector(r_d, r)
        np.testing.assert_allclose(a, -b, atol=1e-12)


def test_angular_velocity_error():
    ref = AttitudeReference(np.eye(3), np.array([1.0, 0.0, 0.0]), np.zeros(3))
    om = np.array([0.2, 0.3, -0.1])
    np.testing.assert_allclose(
        angular_velocity_error(np.eye(3), om, ref), om - np.array([1.0, 0.0, 0.0])
    )
    # zero desired rate: error equals the rate itself
    np.testing.assert_allclose(
        angular_velocity_error(rot_z(1.0), om, static_ref(random_rotation(np.random.default_rng(3)))),
        om,
    )
    # R = R_d rot_z(pi/2), Omega_d = e_x: transported rate is -e_y
    r_d = np.eye(3)
    r = r_d @ rot_z(np.pi / 2)
    ref = AttitudeReference(r_d, np.array([1.0, 0.0, 0.0]), np.zeros(3))
    np.testing.assert_allclose(
        angular_velocity_error(r, om, ref), om - np.array([0.0, -1.0, 0.0]), atol=1e-12
    )


def test_omega_target(rng):
    gains = AttitudeGains.from_inertia(J321)
    r_d = random_rotation(rng)
    ref = AttitudeReference(r_d, np.array([0.1, 0.2, 0.3]), np.zeros(3))
    # zero error: transported desired rate passes straight through
    np.testing.assert_allclose(omega_target(r_d, ref, gains), ref.Omega_d, atol=1e-12)
    # P = I, R_d = I, Omega_d = 0: target is -e_R
    gains_i = AttitudeGains(P=np.eye(3), F=np.eye(3))
    r = rot_z(0.5)
    np.testing.assert_allclose(
        omega_target(r, static_ref(np.eye(3)), gains_i),
        -attitude_error_vector(r, np.eye(3)),
        atol=1e-12,
    )
    # inertia-weighted gains
    got = omega_target(r, AttitudeReference(r_d, np.array([0.1, 0.2, 0.3]), np.zeros(3)), gains)
    expected = -J321.j @ attitude_error_vector(r, r_d) + r.T @ r_d @ np.array([0.1, 0.2, 0.3])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_beta_at_zero_error(rng):
    r = random_rotation(rng)
    np.testing.assert_allclose(beta_matrix(r, r), np.eye(3) / 2.0, atol=1e-12)


def test_beta_skew_part_tracks_error_matrix(rng):
    # beta - beta^T = (E - E^T) / (2 sqrt(1 + tr E)); in particular beta is
    # symmetric exactly when the error matrix is (error angle 0)
    for _ in range(10):
        r, r_d = random_rotation(rng), random_rotation(rng)
        e = r_d.T @ r
        b = beta_matrix(r, r_d)
        expected = (e - e.T) / (2.0 * np.sqrt(1.0 + np.trace(e)))
        np.testing.assert_allclose(b - b.T, expected, atol=1e-12)
    r = random_rotation(rng)
    b = beta_matrix(r, r)
    np.testing.assert_allclose(b, b.T, atol=1e-14)


def test_beta_finite_difference_oracle(rng):
    # d(e_R)/dt == beta e_Omega along arbitrary motions of R and R_d
    h = 1e-7
    for _ in range(10):
        r, r_d = random_rotation(rng), random_rotation(rng)
        om = rng.normal(size=3)
        om_d = rng.normal(size=3)
        r2 = r @ exp_so3(h * om)
        r_d2 = r_d @ exp_so3(h * om_d)
        ref = AttitudeReference(r_d, om_d, np.zeros(3))
        fd = (attitude_error_vector(r2, r_d2) - attitude_error_vector(r, r_d)) / h
        predicted = beta_matrix(r, r_d) @ angular_velocity_error(r, om, ref)
        np.testing.assert_allclose(fd, predicted, atol=1e-5)


def test_control_torque_equilibrium():
    gains = AttitudeGains.from_inertia(J321)
    q = control_torque(np.eye(3), np.zeros(3), static_ref(np.eye(3)), J321, gains)
    np.testing.assert_allclose(q, np.zeros(3), atol=1e-12)


def test_control_torque_perfect_tracking_feedforward():
    gains = AttitudeGains.from_inertia(J321)
    # principal-axis spin: gyroscopic term vanishes, q = 0
    om_d = np.array([0.0, 0.0, 1.0])
    ref = AttitudeReference(np.eye(3), om_d, np.zeros(3))
    q = control_torque(np.eye(3), om_d, ref, J321, gains)
    np.testing.assert_allclose(q, np.zeros(3), atol=1e-12)
    # generic rate: q reduces to Omega x J Omega + J dOmega_d
    om_d = np.array([0.4, -0.2, 0.7])
    dom_d = np.array([0.1, 0.0, -0.3])
    r = random_rotation(np.random.default_rng(11))
    ref = AttitudeReference(r, om_d, dom_d)
    q = control_torque(r, om_d, ref, J321, gains)
    np.testing.assert_allclose(
        q, np.cross(om_d, J321.j @ om_d) + J321.j @ dom_d, atol=1e-12
    )


def aggressive_roll_coeffs():
    return Euler321Coeffs(
        roll=AnglePolynomial(0.999 * np.pi, 0.5, 0.0),
        pitch=AnglePolynomial(0.0, 0.0, 0.1),
        yaw=AnglePolynomial(0.0, -0.5, 0.2),
    )


def closed_loop_run(t_final=2.0, dt=1e-3):
    gains = AttitudeGains.from_inertia(J321)
    coeffs = aggressive_roll_coeffs()

    def torque(t, T, w):
        return control_torque(T, w, euler_321_reference(t, coeffs), J321, gains)

    state = RigidBodyState(np.eye(3), np.zeros(3))
    out = [(0.0, state)]
    n = int(round(t_final / dt))
    for k in range(n):
        state = rk4_attitude_step(state, J321, torque, k * dt, dt)
        out.append(((k + 1) * dt, state))
    return out, gains, coeffs


def test_closed_loop_storage_decreases():
    traj, gains, coeffs = closed_loop_run(t_final=2.0, dt=1e-3)
    values = [
        storage_function(s.T, s.omega, euler_321_reference(t, coeffs), gains)
        for t, s in traj
    ]
    diffs = np.diff(values)
    assert np.max(diffs) <= 1e-9
    assert values[-1] < 0.1 * values[0]


def test_zero_error_manifold_invariant():
    # start exactly on the reference: tracking error stays at numerical zero
    gains = AttitudeGains.from_inertia(J321)
    coeffs = Euler321Coeffs(
        roll=AnglePolynomial(0.3, 0.2, 0.0),
        pitch=AnglePolynomial(0.1, 0.0, 0.05),
        yaw=AnglePolynomial(0.0, 0.4, 0.0),
    )
    ref0 = euler_321_reference(0.0, coeffs)
    state = RigidBodyState(ref0.R_d, ref0.Omega_d)

    def torque(t, T, w):
        return control_torque(T, w, euler_321_reference(t, coeffs), J321, gains)

    dt = 1e-3
    for k in range(int(round(10.0 / dt))):
        state = rk4_attitude_step(state, J321, torque, k * dt, dt)
    ref = euler_321_reference(10.0, coeffs)
    assert attitude_error_psi(state.T, ref.R_d) < 1e-8
    assert np.linalg.norm(angular_velocity_error(state.T, state.omega, ref)) < 1e-6
