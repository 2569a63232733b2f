import numpy as np
import pytest

from geomech.errors import (
    InvalidRotationError,
    NotSkewError,
    SingularInputError,
)
from geomech.so3 import (
    exp_so3,
    hat,
    log_so3,
    polar_project,
    require_rotation,
    tilde,
    vee,
)

from conftest import mexp_series, polar_newton, random_rotation, rot_x, rot_z


def test_hat_matches_cross_product_matrix():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    np.testing.assert_array_equal(hat(np.array([1.0, 2.0, 3.0])), expected)
    np.testing.assert_array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_of_v_applied_to_v_is_zero():
    v = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(hat(v) @ v, np.zeros(3), atol=1e-15)


def test_hat_is_exactly_skew(rng):
    for _ in range(20):
        v = rng.normal(size=3)
        m = hat(v)
        assert np.array_equal(m, -m.T)


def test_hat_cross_agreement(rng):
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(hat(v) @ w, np.cross(v, w), atol=1e-14)


def test_vee_inverts_hat_exactly(rng):
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vee(hat(v)), v)
    for _ in range(10):
        v = rng.normal(size=3)
        assert np.array_equal(vee(hat(v)), v)


def test_vee_zero():
    np.testing.assert_array_equal(vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_of_e_minus_et_for_z_rotation():
    theta = 0.7
    e = rot_z(theta)
    np.testing.assert_allclose(
        vee(e - e.T), np.array([0.0, 0.0, 2.0 * np.sin(theta)]), atol=1e-14
    )


def test_vee_rejects_non_skew():
    with pytest.raises(NotSkewError):
        vee(np.diag([1.0, 2.0, 3.0]))


def test_exp_identity_and_quarter_turn():
    np.testing.assert_array_equal(exp_so3(np.zeros(3)), np.eye(3))
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(exp_so3(np.array([np.pi / 2, 0, 0])), expected, atol=1e-12)


def test_exp_against_series_oracle(rng):
    for _ in range(30):
        v = rng.normal(size=3)
        np.testing.assert_allclose(exp_so3(v), mexp_series(hat(v)), atol=1e-12)


def test_exp_inverse_rotation():
    v = np.array([0.1, 0.2, 0.3])
    np.testing.assert_allclose(exp_so3(v) @ exp_so3(-v), np.eye(3), atol=1e-14)


def test_exp_small_angle_branch(rng):
    # small angles, where the closed form (1 - cos x)/x^2 would lose its
    # digits to cancellation, against the series oracle
    for scale in (1e-9, 1e-6, 9e-5, 1.1e-4, 1e-3):
        v = scale * np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])
        np.testing.assert_allclose(exp_so3(v), mexp_series(hat(v)), atol=1e-15)


def test_log_identity_and_quarter_turn():
    np.testing.assert_array_equal(log_so3(np.eye(3)), np.zeros(3))
    np.testing.assert_allclose(
        log_so3(rot_x(np.pi / 2)), np.array([np.pi / 2, 0.0, 0.0]), atol=1e-12
    )


def test_log_near_pi_branch():
    v = 0.999 * np.pi * np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(log_so3(exp_so3(v)), v, atol=1e-9)


def test_log_exp_roundtrip(rng):
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, np.pi - 2e-6)
        v = angle * axis
        np.testing.assert_allclose(log_so3(exp_so3(v)), v, atol=1e-8)


def test_exp_log_roundtrip_includes_near_pi(rng):
    angles = list(rng.uniform(0.0, np.pi, size=100)) + [np.pi - 1e-9, np.pi]
    for angle in angles:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = exp_so3(angle * axis)
        np.testing.assert_allclose(exp_so3(log_so3(r)), r, atol=1e-9)


def test_log_against_scipy(rng):
    from scipy.spatial.transform import Rotation

    for _ in range(50):
        r = random_rotation(rng)
        expected = Rotation.from_matrix(r).as_rotvec()
        got = log_so3(r)
        if np.linalg.norm(expected) > np.pi - 1e-6:
            # both +-pi*n are valid at the branch point
            assert min(
                np.linalg.norm(got - expected), np.linalg.norm(got + expected)
            ) < 1e-8
        else:
            np.testing.assert_allclose(got, expected, atol=1e-10)


def test_log_magnitude_bounded(rng):
    for _ in range(50):
        assert np.linalg.norm(log_so3(random_rotation(rng))) <= np.pi + 1e-12


def test_tilde_basics():
    np.testing.assert_array_equal(tilde(np.eye(3)), 2.0 * np.eye(3))
    np.testing.assert_array_equal(tilde(np.zeros((3, 3))), np.zeros((3, 3)))
    np.testing.assert_array_equal(
        tilde(np.diag([1.0, 2.0, 3.0])), np.diag([5.0, 4.0, 3.0])
    )


def test_tilde_linearity(rng):
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    x, y = 1.7, -0.3
    np.testing.assert_allclose(
        tilde(x * a + y * b), x * tilde(a) + y * tilde(b), atol=1e-13
    )


def test_tilde_skew_product_identity(rng):
    # vee(hat(a) B + B^T hat(a)) == tilde(B) a -- the identity the discrete
    # derivation rests on, checked for arbitrary (non-symmetric) B.
    for _ in range(20):
        a = rng.normal(size=3)
        b = rng.normal(size=(3, 3))
        m = hat(a) @ b + b.T @ hat(a)
        np.testing.assert_allclose(vee(m, tol=1e-9), tilde(b) @ a, atol=1e-12)


def test_polar_project_fixes_rotation(rng):
    r = random_rotation(rng)
    np.testing.assert_allclose(polar_project(r), r, atol=1e-12)
    np.testing.assert_allclose(polar_project(1.1 * np.eye(3)), np.eye(3), atol=1e-14)


def test_polar_project_small_perturbation(rng):
    r = random_rotation(rng)
    m = r + 1e-6 * rng.normal(size=(3, 3))
    projected = polar_project(m)
    require_rotation(projected, tol=1e-12)
    assert np.linalg.norm(projected - r) < 1e-5
    np.testing.assert_allclose(projected, polar_newton(m), atol=1e-12)


def test_polar_project_rejects_singular():
    with pytest.raises(SingularInputError):
        polar_project(np.zeros((3, 3)))
    with pytest.raises(SingularInputError):
        polar_project(-np.eye(3))


def test_require_rotation_accepts_and_refuses(rng):
    r = random_rotation(rng)
    np.testing.assert_array_equal(require_rotation(r), r)
    with pytest.raises(InvalidRotationError):
        require_rotation(1.001 * r)
    with pytest.raises(InvalidRotationError):
        require_rotation(-r)  # determinant -1
    with pytest.raises(InvalidRotationError):
        require_rotation(np.full((3, 3), np.nan))

