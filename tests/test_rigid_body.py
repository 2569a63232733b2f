import numpy as np
import pytest

from geomech.errors import DivergenceError, ScenarioValidationError
from geomech.rigid_body import (
    _attitude_rk4_core,
    _energy_momentum,
    _rates,
    InertiaTensor,
    QuadrotorParams,
    RigidBodyState,
    rk4_attitude_step,
    rk4_quadrotor_step,
)
from geomech.so3 import _fast_polar

from conftest import polar_newton, quad_x, random_rotation
from oracles import rk4_step


@pytest.fixture
def j321():
    return InertiaTensor.from_diag(3.0, 2.0, 1.0)


def test_inertia_validation():
    InertiaTensor.from_diag(3.0, 2.0, 1.0)  # boundary of the triangle inequality
    with pytest.raises(ScenarioValidationError):
        InertiaTensor.from_diag(-1.0, 2.0, 3.0)
    with pytest.raises(ScenarioValidationError):
        InertiaTensor.from_diag(1.0, 1.0, 5.0)  # unphysical: 1 + 1 < 5
    with pytest.raises(ScenarioValidationError):
        InertiaTensor(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_inertia_inverse_cached(j321):
    np.testing.assert_allclose(j321.j @ j321.j_inv, np.eye(3), atol=1e-14)


def test_state_validation(rng):
    with pytest.raises(Exception):
        RigidBodyState(1.1 * np.eye(3), np.zeros(3))
    s = RigidBodyState(random_rotation(rng), np.array([1.0, 2.0, 3.0]))
    assert s.omega.dtype == np.float64


def rates(s, inertia, moment):  # the plants' rotational law at the state s
    return _rates(s.t_rows, s.omega_rows, moment, inertia.j_rows, inertia.j_inv_rows)


def test_attitude_rhs_equilibrium(j321):
    s = RigidBodyState(np.eye(3), np.zeros(3))
    t_dot, w_dot = rates(s, j321, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(t_dot, np.zeros(9))
    np.testing.assert_array_equal(w_dot, np.zeros(3))


def test_attitude_rhs_principal_axis_spin(j321):
    s = RigidBodyState(np.eye(3), np.array([0.0, 0.0, 1.0]))
    _, w_dot = rates(s, j321, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(w_dot, np.zeros(3), atol=1e-15)


def test_attitude_rhs_gyroscopic_term(j321):
    # omega x J omega = (1,1,0) x (3,2,0) = (0,0,-1)  ->  omega_dot = (0,0,1)
    s = RigidBodyState(np.eye(3), np.array([1.0, 1.0, 0.0]))
    _, w_dot = rates(s, j321, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(w_dot, np.array([0.0, 0.0, 1.0]), atol=1e-14)


def test_attitude_rhs_moment_input(j321):
    # at rest, J omega_dot = M: M = (3, 0, 0) about the J = 3 axis gives (1, 0, 0)
    s = RigidBodyState(np.eye(3), np.zeros(3))
    _, w_dot = rates(s, j321, [3.0, 0.0, 0.0])
    np.testing.assert_allclose(w_dot, np.array([1.0, 0.0, 0.0]), atol=1e-15)


def test_continuous_momentum_conservation_identity(rng, j321):
    # d/dt (T J omega) = T (hat(omega) J omega + J omega_dot) == 0 when M = 0
    for _ in range(20):
        s = RigidBodyState(random_rotation(rng), rng.normal(size=3))
        _, w_dot = rates(s, j321, [0.0, 0.0, 0.0])
        residual = s.T @ (np.cross(s.omega, j321.j @ s.omega) + j321.j @ np.array(w_dot))
        assert np.linalg.norm(residual) < 1e-12


def quad_params():
    return QuadrotorParams(4.34, InertiaTensor.from_diag(0.084, 0.085, 0.12), 0.315)


def rates_from_rest(p, f_body, m_body, dt=1e-3):
    """One ``rk4_quadrotor_step`` from rest at the identity: increments / dt."""
    s = quad_x(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    return [(np.array(new) - old) / dt
            for new, old in zip(rk4_quadrotor_step(s, p, f_body, m_body, dt), s)]


def test_quadrotor_hover_fixed_point():
    p = quad_params()
    r_dot, v_dot, R_dot, O_dot = rates_from_rest(p, [0.0, 0.0, p.mass * p.g], [0.0, 0.0, 0.0])
    for out in (r_dot, v_dot, O_dot):
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-12)
    np.testing.assert_array_equal(R_dot, np.zeros(9))


def test_quadrotor_free_fall_and_double_thrust():
    p = quad_params()
    _, v_dot, _, _ = rates_from_rest(p, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(v_dot, np.array([0.0, 0.0, -9.81]), atol=1e-12)
    _, v_dot, _, _ = rates_from_rest(p, [0.0, 0.0, 2.0 * p.mass * p.g], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(v_dot, np.array([0.0, 0.0, 9.81]), atol=1e-12)


def test_quadrotor_extra_wrench():
    p = quad_params()
    _, v_dot, _, O_dot = rates_from_rest(p, [1.0, 0.0, 0.0], [0.0, 0.0, 0.012])
    np.testing.assert_allclose(v_dot[0], 1.0 / p.mass, atol=1e-14)
    np.testing.assert_allclose(O_dot[2], 0.012 / 0.12, atol=1e-12)


def test_kinetic_energy_and_momentum(j321, rng):
    def em(s):  # (H, Pi_x, Pi_y, Pi_z) of the state s
        return _energy_momentum(s.t_rows, s.omega_rows, j321.j_rows)

    s = RigidBodyState(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert em(s)[0] == pytest.approx(1.5)
    assert em(RigidBodyState(np.eye(3), np.zeros(3)))[0] == 0.0

    s = RigidBodyState(np.eye(3), np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(em(s)[1:], np.array([3.0, 2.0, 1.0]))

    # energy independent of attitude, |momentum| preserved by attitude
    q = random_rotation(rng)
    s2 = RigidBodyState(s.T @ q, s.omega)
    assert em(s2)[0] == em(s)[0]
    assert np.linalg.norm(em(s2)[1:]) == pytest.approx(np.linalg.norm(em(s)[1:]), abs=1e-12)


def test_rk4_zero_rhs():
    y = np.array([1.0, 2.0])
    np.testing.assert_array_equal(rk4_step(lambda t, x: np.zeros(2), y, 0.0, 0.1), y)


def test_rk4_scalar_exponential():
    # single step reproduces the exact RK4 amplification factor,
    # 1 + h + h^2/2 + h^3/6 + h^4/24, whose defect vs e^h is h^5/120
    h = 0.1
    y1 = rk4_step(lambda t, x: x, np.array([1.0]), 0.0, h)
    factor = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert y1[0] == pytest.approx(factor, rel=1e-15)
    assert abs(y1[0] - np.exp(h)) < 1e-7

    # integrating to t = 0.1 with dt = 0.01 hits e^0.1 to 1e-8 relative
    y = np.array([1.0])
    for k in range(10):
        y = rk4_step(lambda t, x: x, y, 0.01 * k, 0.01)
    assert abs(y[0] - np.exp(0.1)) / np.exp(0.1) < 1e-8


def test_rk4_richardson_order(j321):
    # one step vs two half steps differ at O(dt^5) on the free rigid body
    def step(state, dt, n):
        for k in range(n):
            state = rk4_attitude_step(
                state, j321, lambda t, T, w: np.zeros(3), k * dt, dt
            )
        return state

    s0 = RigidBodyState(np.eye(3), np.array([1.0, 1.0, 1.0]))
    errs = []
    for dt in (0.1, 0.05):
        full = step(s0, dt, 1)
        half = step(s0, dt / 2.0, 2)
        errs.append(np.linalg.norm(full.T - half.T) + np.linalg.norm(full.omega - half.omega))
    ratio = errs[0] / errs[1]
    assert 20.0 < ratio < 45.0  # ~2^5


def test_rk4_attitude_stays_on_so3(j321):
    s = RigidBodyState(np.eye(3), np.array([1.0, 1.0, 1.0]))
    for k in range(200):
        s = rk4_attitude_step(s, j321, lambda t, T, w: np.zeros(3), 0.01 * k, 0.01)
    assert np.linalg.norm(s.T.T @ s.T - np.eye(3)) < 1e-13


@pytest.mark.parametrize("omega", [[0.0, 0.0, 0.0], [0.5, -1.0, 2.0]])
@pytest.mark.parametrize("dt", [1e-4, 1e-2, 0.5])
def test_rk4_attitude_step_overflow_raises_divergence(j321, omega, dt):
    # plain float arithmetic overflows to inf/nan without a trap; the step
    # must refuse, never return a state holding inf or nan
    s = RigidBodyState(np.eye(3), np.array(omega))
    with pytest.raises(DivergenceError, match="^state diverged: "):
        rk4_attitude_step(s, j321, lambda t, T, w: np.full(3, 1e308), 0.0, dt)


def test_attitude_rk4_core_reuses_a_given_stage_one_torque(rng, j321):
    # k1 from the start attitude as it is skips the stage-1 projection; on a
    # rotation (as the previous step's result is) the step is unchanged, and
    # the core asks ``rates`` for the later stages only
    gain = np.diag([2.0, 1.5, 1.0])

    def torque(t, r, w):  # the core's torque law takes and returns Python floats
        r, w = np.reshape(r, (3, 3)), np.array(w)
        return (-gain @ w + np.sin(t) * (r[:, 2] - r[2])).tolist()

    calls = []
    jj, jinv = j321.j.ravel().tolist(), j321.j_inv.ravel().tolist()
    for _ in range(20):
        t_mat = polar_newton(random_rotation(rng)).ravel().tolist()
        w = rng.normal(size=3).tolist()
        t, dt = rng.uniform(0.0, 10.0), rng.uniform(1e-3, 0.05)

        def rates(a, s, v):
            return _rates(s, v, torque(t + a, s, v), jj, jinv)

        def counted(a, s, v):
            calls.append(a)
            return rates(a, s, v)

        ref = _attitude_rk4_core(t_mat, w, rates, dt, rates(0.0, _fast_polar(t_mat), w))
        calls.clear()
        out = _attitude_rk4_core(t_mat, w, counted, dt, rates(0.0, t_mat, w))
        assert calls == [0.5 * dt, 0.5 * dt, dt]
        np.testing.assert_allclose(out[0], ref[0], atol=1e-15, rtol=0.0)
        np.testing.assert_allclose(out[1], ref[1], atol=1e-15, rtol=0.0)


def test_rk4_quadrotor_step_matches_flat_rk4(rng):
    # oracle: generic rk4_step on the flat 18-vector (r, v, R, Omega) with a
    # test-local right-hand side, then the polar factor of the attitude
    p = quad_params()
    f_body, m_body = np.array([0.3, -0.2, 50.0]), np.array([0.4, -0.1, 0.05])
    jj, jinv = p.inertia.j, p.inertia.j_inv

    def rhs(t, y):
        v, rot, om = y[3:6], y[6:15].reshape(3, 3), y[15:]
        hat_om = np.array([[0.0, -om[2], om[1]], [om[2], 0.0, -om[0]], [-om[1], om[0], 0.0]])
        return np.concatenate([
            v, np.array([0.0, 0.0, -p.g]) + rot @ f_body / p.mass, (rot @ hat_om).ravel(),
            jinv @ (m_body - np.cross(om, jj @ om)),
        ])

    for _ in range(10):
        s = quad_x(rng.normal(size=3), rng.normal(size=3), random_rotation(rng),
                   rng.normal(size=3))
        dt = rng.uniform(1e-3, 0.05)
        r, v, rot, om = rk4_quadrotor_step(s, p, f_body.tolist(), m_body.tolist(), dt)
        y = rk4_step(rhs, np.concatenate(s), 0.0, dt)
        np.testing.assert_allclose(r, y[:3], atol=1e-14, rtol=0.0)
        np.testing.assert_allclose(v, y[3:6], atol=1e-14, rtol=0.0)
        np.testing.assert_allclose(np.reshape(rot, (3, 3)), polar_newton(y[6:15].reshape(3, 3)),
                                   atol=1e-14, rtol=0.0)
        np.testing.assert_allclose(om, y[15:], atol=1e-14, rtol=0.0)


def test_rk4_quadrotor_step_divergence_raises():
    p = quad_params()
    # a 10 rad/s roll under a 5 N m yaw moment, one 1 s step: the RK4 attitude
    # update reverses orientation (for constant Omega its determinant stays > 0)
    spin = quad_x(np.zeros(3), np.zeros(3), np.eye(3), [10.0, 0.0, 0.0])
    with pytest.raises(DivergenceError, match="state diverged: attitude determinant -"):
        rk4_quadrotor_step(spin, p, [0.0, 0.0, 0.0], [0.0, 0.0, 5.0], 1.0)
    fast = quad_x(np.zeros(3), [1e308, 0.0, 0.0], np.eye(3), np.zeros(3))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite r$"):
        rk4_quadrotor_step(fast, p, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 10.0)
