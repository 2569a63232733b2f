import numpy as np
import pytest

from geomech.errors import ScenarioValidationError
from geomech.references import (
    AnglePolynomial,
    CircleCoeffs,
    Euler321Coeffs,
    TrajectoryReference,
    circle_reference,
    euler_321_reference,
    gimbal_proximity,
)
from geomech.so3 import hat


def stock_coeffs():
    return Euler321Coeffs(
        roll=AnglePolynomial(0.999 * np.pi, 0.5, 0.0),
        pitch=AnglePolynomial(0.0, 0.0, 0.1),
        yaw=AnglePolynomial(0.0, -0.5, 0.2),
    )


def test_zero_coefficients_give_identity():
    for t in (0.0, 1.0, 7.3):
        ref = euler_321_reference(t, Euler321Coeffs())
        np.testing.assert_array_equal(ref.R_d, np.eye(3))
        np.testing.assert_array_equal(ref.Omega_d, np.zeros(3))
        np.testing.assert_array_equal(ref.Omega_d_dot, np.zeros(3))


def test_initial_attitude_is_roll_only():
    ref = euler_321_reference(0.0, stock_coeffs())
    # roll = 0.999 pi, pitch = yaw = 0: pure x-axis rotation
    a = 0.999 * np.pi
    expected = np.array(
        [[1.0, 0.0, 0.0], [0.0, np.cos(a), -np.sin(a)], [0.0, np.sin(a), np.cos(a)]]
    )
    np.testing.assert_allclose(ref.R_d, expected, atol=1e-12)


def test_kinematic_consistency_fd():
    # dR_d/dt == R_d hat(Omega_d), and dOmega_d/dt == Omega_d_dot
    coeffs = stock_coeffs()
    h = 1e-7
    for t in (0.0, 0.013, 1.7, 4.0, 9.99):
        ref = euler_321_reference(t, coeffs)
        ref_p = euler_321_reference(t + h, coeffs)
        ref_m = euler_321_reference(t - h, coeffs)
        fd_r = (ref_p.R_d - ref_m.R_d) / (2 * h)
        np.testing.assert_allclose(fd_r, ref.R_d @ hat(ref.Omega_d), atol=1e-6)
        fd_w = (ref_p.Omega_d - ref_m.Omega_d) / (2 * h)
        np.testing.assert_allclose(fd_w, ref.Omega_d_dot, atol=1e-6)


def test_gimbal_proximity_flag():
    coeffs = stock_coeffs()  # pitch = 0.1 t^2 passes pi/2 at t = sqrt(5 pi)
    t_star = np.sqrt(5.0 * np.pi)
    assert gimbal_proximity(t_star, coeffs, tol=1e-3)
    assert not gimbal_proximity(0.0, coeffs)
    assert not gimbal_proximity(t_star + 1.0, coeffs)
    # reference generation stays finite at the crossing
    ref = euler_321_reference(t_star, coeffs)
    assert np.all(np.isfinite(ref.Omega_d_dot))


def test_circle_reference_at_zero():
    ref = circle_reference(0.0, CircleCoeffs())
    np.testing.assert_allclose(ref.r_d, [0.0, 4.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(ref.v_d, [2.0, 0.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(ref.a_d, [0.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(ref.b_1d, [1.0, 0.0, 0.0])


def test_circle_reference_derivative_chain():
    coeffs = CircleCoeffs()
    h = 1e-6
    for t in (0.0, 0.4, 2.9, 11.0):
        ref = circle_reference(t, coeffs)
        fd_v = (circle_reference(t + h, coeffs).r_d - circle_reference(t - h, coeffs).r_d) / (2 * h)
        fd_a = (circle_reference(t + h, coeffs).v_d - circle_reference(t - h, coeffs).v_d) / (2 * h)
        np.testing.assert_allclose(fd_v, ref.v_d, atol=1e-8)
        np.testing.assert_allclose(fd_a, ref.a_d, atol=1e-8)


def test_trajectory_reference_validates_heading():
    with pytest.raises(ScenarioValidationError):
        TrajectoryReference(np.zeros(3), np.zeros(3), np.zeros(3), np.array([2.0, 0.0, 0.0]))


def test_trajectory_reference_refuses_a_nan_position():
    with pytest.raises(ScenarioValidationError) as info:
        TrajectoryReference(np.array([np.nan, 0.0, 0.0]), np.zeros(3), np.zeros(3),
                            np.array([1.0, 0.0, 0.0]))
    assert info.value.violations == [("r_d", "must be a finite 3-vector")]
