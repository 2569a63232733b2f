import math
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from scipy.special import ellipj, ellipkinc

from geomech.errors import DegenerateMeanError, NoConvergenceError
from geomech.rigid_body import (
    InertiaTensor,
    RigidBodyState,
    rk4_attitude_step,
)
from geomech import variational
from geomech.so3 import _sinc, exp_so3, log_so3
from geomech.variational import (
    IntegratorConfig,
    _momentum_covector,
    discrete_forces,
    midpoint_quantities,
    simulate,
    theta_minus,
    theta_plus,
    vi_step,
)

from conftest import random_rotation, rot_z


J321 = InertiaTensor.from_diag(3.0, 2.0, 1.0)


def random_pair(rng, step_scale=0.3):
    t0 = random_rotation(rng)
    t1 = exp_so3(step_scale * rng.normal(size=3)) @ t0
    return t0, t1


# ---------------------------------------------------------------- midpoints


def test_midpoint_static_interval(rng):
    t0 = random_rotation(rng)
    mids = midpoint_quantities(t0, t0, 0.01)
    np.testing.assert_allclose(mids.T_mid, t0, atol=1e-12)
    np.testing.assert_allclose(mids.psi, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(mids.omega_mid, np.zeros(3), atol=1e-10)
    np.testing.assert_allclose(mids.F_mat, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(mids.V, 2.0 * np.eye(3), atol=1e-12)


def test_midpoint_same_axis_closed_form():
    theta, dt = 0.02, 0.01
    mids = midpoint_quantities(np.eye(3), rot_z(theta), dt)
    np.testing.assert_allclose(mids.psi, [0.0, 0.0, theta], atol=1e-14)
    np.testing.assert_allclose(mids.omega_mid, [0.0, 0.0, theta / dt], atol=1e-12)
    np.testing.assert_allclose(mids.T_mid, rot_z(theta / 2), atol=1e-14)
    # V is 2cos(theta/2) on the plane orthogonal to z and 2 along z
    c = 2.0 * np.cos(theta / 2)
    np.testing.assert_allclose(mids.V, np.diag([c, c, 2.0]), atol=1e-14)


def test_midpoint_invariants(rng):
    dt = 0.01
    for _ in range(20):
        t0, t1 = random_pair(rng, step_scale=0.8)
        mids = midpoint_quantities(t0, t1, dt)
        assert np.max(np.abs(mids.V - mids.V.T)) < 1e-10
        np.testing.assert_allclose(mids.V @ mids.T_mid, t0 + t1, atol=1e-9)
        np.testing.assert_allclose(exp_so3(mids.psi), mids.R_rel, atol=1e-9)
        np.testing.assert_allclose(
            mids.omega_mid, (mids.T_mid.T @ mids.psi) / dt, atol=1e-12
        )
        np.testing.assert_allclose(mids.Y_k, t0 @ mids.T_mid.T, atol=1e-12)
        np.testing.assert_allclose(mids.Y_k1, t1 @ mids.T_mid.T, atol=1e-12)


def test_midpoint_degenerate():
    with pytest.raises(DegenerateMeanError):
        midpoint_quantities(np.eye(3), rot_z(np.pi - 1e-10), 0.01)


# -------------------------------------------------------- momentum covectors


def test_theta_static_pair_is_zero(rng):
    t0 = random_rotation(rng)
    np.testing.assert_allclose(theta_minus(t0, t0, 0.01, J321), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(theta_plus(t0, t0, 0.01, J321), np.zeros(3), atol=1e-12)


def test_theta_z_spin_closed_form():
    # uniform spin about the z principal axis carries momentum (0, 0, J3*w)
    w, dt = 0.7, 0.01
    t0, t1 = rot_z(0.3), rot_z(0.3 + w * dt)
    np.testing.assert_allclose(theta_minus(t0, t1, dt, J321), [0, 0, w], atol=1e-12)
    np.testing.assert_allclose(theta_plus(t0, t1, dt, J321), [0, 0, w], atol=1e-12)


def test_theta_small_step_continuum_limit(rng):
    # theta_minus -> T J omega + O(dt) for a small step at body rate omega
    w = np.array([0.4, -0.3, 0.5])
    t0 = rot_z(0.2)
    for dt in (1e-2, 1e-3):
        t1 = t0 @ exp_so3(dt * w)
        got = theta_minus(t0, t1, dt, J321)
        expected = t0 @ (J321.j @ w)
        assert np.linalg.norm(got - expected) < 2.0 * dt


def test_theta_plus_equals_theta_minus_same_interval(rng):
    # left-invariance of the step energy: both one-sided momenta agree on any
    # interval, for both step measures
    for _ in range(20):
        t0, t1 = random_pair(rng)
        dt = 0.01
        mids = midpoint_quantities(t0, t1, dt)
        for measure in ("arc", "chord"):
            tm = _momentum_covector(mids, J321, upper=False, measure=measure)
            tp = _momentum_covector(mids, J321, upper=True, measure=measure)
            np.testing.assert_allclose(tm, tp, atol=1e-11)


def _step_energy(t0, t1, dt, inertia, measure):
    psi = log_so3(t1 @ t0.T)
    if measure == "chord":
        theta = np.linalg.norm(psi)
        if theta > 0:
            psi = (2.0 * np.sin(theta / 2) / theta) * psi
    w = (t0.T @ psi) / dt
    return 0.5 * w @ (inertia.j @ w)


@pytest.mark.parametrize("measure", ["arc", "chord"])
def test_theta_matches_fd_derivative_of_step_energy(rng, measure):
    # independent oracle: the covectors are the exact derivatives of the
    # step energy with respect to space-frame endpoint increments
    dt, eps = 0.01, 1e-6
    for _ in range(5):
        t0, t1 = random_pair(rng)
        mids = midpoint_quantities(t0, t1, dt)
        tm = _momentum_covector(mids, J321, upper=False, measure=measure)
        tp = _momentum_covector(mids, J321, upper=True, measure=measure)
        fd_m, fd_p = np.zeros(3), np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd_m[i] = (
                -(dt / (2 * eps))
                * (
                    _step_energy(exp_so3(e) @ t0, t1, dt, J321, measure)
                    - _step_energy(exp_so3(-e) @ t0, t1, dt, J321, measure)
                )
            )
            fd_p[i] = (dt / (2 * eps)) * (
                _step_energy(t0, exp_so3(e) @ t1, dt, J321, measure)
                - _step_energy(t0, exp_so3(-e) @ t1, dt, J321, measure)
            )
        scale = max(1.0, np.max(np.abs(tm)))
        np.testing.assert_allclose(tm, fd_m, atol=5e-7 * scale)
        np.testing.assert_allclose(tp, fd_p, atol=5e-7 * scale)


# ------------------------------------------------------------------- forces


def test_discrete_forces_zero_moments(rng):
    t0, t1 = random_pair(rng)
    mids = midpoint_quantities(t0, t1, 0.01)
    f_plus, f_minus = discrete_forces(np.zeros(3), np.zeros(3), mids, mids)
    np.testing.assert_array_equal(f_plus, np.zeros(3))
    np.testing.assert_array_equal(f_minus, np.zeros(3))


def test_discrete_forces_static_split(rng):
    # constant attitude: tilde(V)^-1 tilde(Y) = I/2, so each side carries M/2
    t0 = random_rotation(rng)
    mids = midpoint_quantities(t0, t0, 0.01)
    m = np.array([0.3, -1.0, 0.5])
    f_plus, f_minus = discrete_forces(m, m, mids, mids)
    np.testing.assert_allclose(f_plus, m / 2, atol=1e-12)
    np.testing.assert_allclose(f_minus, m / 2, atol=1e-12)
    np.testing.assert_allclose(f_plus + f_minus, m, atol=1e-12)


def test_discrete_forces_linearity(rng):
    t0, t1 = random_pair(rng)
    mids_a = midpoint_quantities(t0, t1, 0.01)
    mids_b = midpoint_quantities(t1, random_pair(rng)[1], 0.01)
    m1, m2 = rng.normal(size=3), rng.normal(size=3)
    fp1, fm1 = discrete_forces(m1, m2, mids_a, mids_b)
    fp2, fm2 = discrete_forces(2 * m1, 2 * m2, mids_a, mids_b)
    np.testing.assert_allclose(fp2, 2 * fp1, atol=1e-13)
    np.testing.assert_allclose(fm2, 2 * fm1, atol=1e-13)


# ------------------------------------------------------------------ vi_step


def test_vi_step_rest_is_fixed_point(rng):
    t0 = random_rotation(rng)
    res = vi_step(t0, np.zeros(3), None, J321, IntegratorConfig(dt=0.01))
    np.testing.assert_allclose(res.T_next, t0, atol=1e-12)
    np.testing.assert_allclose(res.omega_next, np.zeros(3), atol=1e-12)


def test_vi_step_principal_axis_relative_equilibrium_arc():
    w, dt = 1.0, 0.01
    cfg = IntegratorConfig(dt=dt, step_measure="arc")
    res = vi_step(np.eye(3), np.array([0.0, 0.0, w]), None, J321, cfg)
    np.testing.assert_allclose(res.T_next, rot_z(w * dt), atol=1e-10)
    np.testing.assert_allclose(res.omega_next, [0.0, 0.0, w], atol=1e-10)


def test_vi_step_principal_axis_relative_equilibrium_chord():
    # chord measure advances the angle by arcsin(w*dt) per step while the
    # rate and momentum stay exactly on the principal axis
    w, dt = 1.0, 0.01
    res = vi_step(np.eye(3), np.array([0.0, 0.0, w]), None, J321, IntegratorConfig(dt=dt))
    np.testing.assert_allclose(res.T_next, rot_z(np.arcsin(w * dt)), atol=1e-10)
    np.testing.assert_allclose(res.omega_next, [0.0, 0.0, w], atol=1e-10)


def test_vi_step_residual_below_tolerance(rng):
    cfg = IntegratorConfig(dt=0.01)
    res = vi_step(random_rotation(rng), rng.normal(size=3), None, J321, cfg)
    assert res.residual < cfg.newton_tol
    assert res.newton_iters <= cfg.max_iters


def test_vi_step_rejects_giant_step():
    with pytest.raises(DegenerateMeanError):
        vi_step(np.eye(3), np.array([0.0, 0.0, 400.0]), None, J321, IntegratorConfig(dt=0.01))


def test_vi_step_no_convergence_when_starved():
    cfg = IntegratorConfig(dt=0.01, newton_tol=1e-15, max_iters=1)
    with pytest.raises(NoConvergenceError):
        vi_step(np.eye(3), np.array([1.0, 1.0, 1.0]), lambda t: np.array([5.0, 0.0, 0.0]), J321, cfg)


def test_free_chord_step_matches_covector_route(rng):
    # an identically zero moment_fn takes the same Newton solve as None and
    # adds an exact zero force, so both give bit-identical steps
    zero = lambda t: np.zeros(3)  # noqa: E731
    for _ in range(200):
        inertia = InertiaTensor.from_diag(*rng.uniform(1.5, 3.0, size=3))
        t0 = random_rotation(rng)
        w = rng.uniform(0.1, 3.0) * rng.normal(size=3)
        cfg = IntegratorConfig(dt=rng.uniform(0.001, 0.05))
        free = vi_step(t0, w, None, inertia, cfg)
        ref = vi_step(t0, w, zero, inertia, cfg)
        np.testing.assert_array_equal(free.T_next, ref.T_next)
        np.testing.assert_array_equal(free.omega_next, ref.omega_next)
        np.testing.assert_array_equal(free.pi_next, ref.pi_next)


def _exact_sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor sums of sin and cos at ``x`` to the context precision."""
    sin = cos = Decimal(0)
    term, n, tiny = Decimal(1), 0, Decimal(10) ** -(getcontext().prec + 5)
    while abs(term) > tiny:
        if n % 2:
            sin += term if n % 4 == 1 else -term
        else:
            cos += term if n % 4 == 0 else -term
        n += 1
        term = term * x / n
    return sin, cos


def _exact_coefficients(theta: float) -> dict[str, Decimal]:
    """Every step coefficient at ``theta`` from its defining closed form, in
    120-digit decimal arithmetic, which outlasts their cancellation."""
    with localcontext() as ctx:
        ctx.prec = 120
        x = Decimal(theta)
        s, c = _exact_sin_cos(x)
        s2, c2 = _exact_sin_cos(x / 2)
        s4, c4 = _exact_sin_cos(x / 4)
        return {
            "a": s / x,
            "d": (x * c - s) / x**3,
            "b": (1 - c) / x**2,
            "db": (x * s - 2 * (1 - c)) / x**4,
            "c": 1 / x**2 - (1 + c) / (2 * x * s),
            "chord": 2 * s2 / x,
            "dchord": (x * c2 - 2 * s2) / x**3,
            "tau": s4 / (c4 * x),
            "log": x / (2 * s),
        }


def _scheme_coefficients(theta: float) -> dict[str, float]:
    """Every step coefficient at ``theta`` as the scheme builds it from
    ``_sinc`` by half-angle identities; ``tan(theta/4)/theta`` is read off
    the lower force covector."""
    a, d = _sinc(theta)
    half_a, half_d = _sinc(0.5 * theta)
    f_dir, moment = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    force = variational._body_force_minus(theta * f_dir, theta, moment)
    return {
        "a": a, "d": d,
        "b": 0.5 * half_a * half_a, "db": 0.25 * half_a * half_d,
        "c": -0.25 * half_d / half_a,
        "chord": half_a, "dchord": 0.25 * half_d,
        "tau": -2.0 * force[1] / theta,
        "log": 0.5 / a,
    }


def _float_closed_forms(theta: float) -> dict[str, float]:
    """The defining closed forms of the step coefficients in double precision."""
    x, s, c = theta, math.sin(theta), math.cos(theta)
    s2, c2 = math.sin(0.5 * x), math.cos(0.5 * x)
    return {
        "a": s / x,
        "d": (x * c - s) / x**3,
        "b": (1 - c) / x**2,
        "db": (x * s - 2 * (1 - c)) / x**4,
        "c": 1 / x**2 - (1 + c) / (2 * x * s),
        "chord": 2 * s2 / x,
        "dchord": (x * c2 - 2 * s2) / x**3,
        "tau": math.tan(0.25 * x) / x,
        "log": x / (2 * s),
    }


@pytest.mark.parametrize("theta", [1e-2, 2e-2, 3e-2])
def test_small_angle_series_values_match_closed_forms(theta):
    # below 1 rad d comes from its series; at 1e-2 the double-precision
    # closed forms of the values still keep ten digits, so a wrong series
    # term or half-angle identity shows against them
    got, closed = _scheme_coefficients(theta), _float_closed_forms(theta)
    for name in ("a", "b", "c", "chord", "tau", "log"):
        assert got[name] == pytest.approx(closed[name], rel=1e-10, abs=0.0), name


def test_small_angle_series_derivatives_match_closed_forms():
    # the closed-form derivative terms lose their digits to cancellation at
    # small angles, so these are compared at 0.2, where they keep eight
    got, closed = _scheme_coefficients(0.2), _float_closed_forms(0.2)
    for name in ("d", "db", "dchord"):
        assert got[name] == pytest.approx(closed[name], rel=1e-8, abs=0.0), name


def test_sinc_coefficients_match_exact_reference():
    # a(x) = sin x/x and d(x) = a'(x)/x, and every coefficient the scheme
    # builds from them by half-angle identities, against exact arithmetic on
    # a log grid that straddles the series switch of d at 1 rad (and at
    # 2 rad for the half-angle ones)
    assert _sinc(0.0) == (1.0, -1.0 / 3.0)  # the limits at the identity
    for theta in np.concatenate([np.geomspace(1e-8, 3.0, 120), [0.99, 1.01, 1.99, 2.01]]):
        theta = float(theta)
        got = _scheme_coefficients(theta)
        for name, exact in _exact_coefficients(theta).items():
            rel = abs(Decimal(got[name]) / exact - 1)
            assert rel <= Decimal("1e-14"), (name, theta, float(rel))


def test_free_chord_step_no_convergence_when_starved():
    cfg = IntegratorConfig(dt=0.01, newton_tol=1e-15, max_iters=1)
    with pytest.raises(NoConvergenceError):
        vi_step(np.eye(3), np.array([1.0, 1.0, 1.0]), None, J321, cfg)


def test_free_body_exactness_along_trajectory():
    # the discrete momentum-matching equation itself, checked across steps
    cfg = IntegratorConfig(dt=0.01, step_measure="arc")
    t_mat, w = np.eye(3), np.array([1.0, 1.0, 1.0])
    states = [(t_mat, w)]
    for k in range(5):
        r = vi_step(states[-1][0], states[-1][1], None, J321, cfg, t=k * cfg.dt)
        states.append((r.T_next, r.omega_next))
    for k in range(1, 5):
        tp = theta_plus(states[k - 1][0], states[k][0], cfg.dt, J321)
        tm = theta_minus(states[k][0], states[k + 1][0], cfg.dt, J321)
        np.testing.assert_allclose(tp, tm, atol=1e-10)


@pytest.mark.parametrize("measure", ["arc", "chord"])
@pytest.mark.parametrize("forced", [False, True])
def test_vi_step_solves_its_momentum_matching_equation(rng, measure, forced):
    # per-step oracle: the returned pair satisfies theta_minus - dt f_minus = pi_k
    # with the public covector and force operations, and the new momentum adds
    # both force covectors of the interval
    for _ in range(50):
        inertia = InertiaTensor.from_diag(*rng.uniform(1.5, 3.0, size=3))
        t0 = random_rotation(rng)
        w = rng.uniform(0.1, 3.0) * rng.normal(size=3)
        dt = rng.uniform(0.001, 0.05)
        m = rng.uniform(-5.0, 5.0, size=3) if forced else np.zeros(3)
        pi0 = t0 @ (inertia.j @ w)
        cfg = IntegratorConfig(dt=dt, step_measure=measure)
        r = vi_step(t0, w, (lambda t: m) if forced else None, inertia, cfg)
        mids = midpoint_quantities(t0, r.T_next, dt)
        m_space = mids.T_mid @ m
        f_plus, f_minus = discrete_forces(m_space, m_space, mids, mids)
        if measure == "arc":
            lower = theta_minus(t0, r.T_next, dt, inertia)
        else:
            lower = _momentum_covector(mids, inertia, upper=False, measure="chord")
        np.testing.assert_allclose(lower - dt * f_minus, pi0, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(r.pi_next, pi0 + dt * (f_plus + f_minus),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(r.omega_next, inertia.j_inv @ (r.T_next.T @ r.pi_next),
                                   rtol=0.0, atol=1e-13)


def _exact_free_rates(principal, w0, t):
    """Body rates of the free rigid body with ``J = diag(principal)``,
    ``J1 > J2 > J3`` and ``|L|^2 > 2 E J2``, through Jacobi elliptic functions:
    ``w = (A dn(u), B sn(u), C cn(u))`` with ``u = u0 + lam t``."""
    i1, i2, i3 = principal
    e2 = float(np.dot(principal, w0 * w0))  # 2E
    l2 = float(np.dot(principal * principal, w0 * w0))  # |L|^2
    assert i1 > i2 > i3 and l2 > e2 * i2
    a = np.sign(w0[0]) * np.sqrt((l2 - e2 * i3) / (i1 * (i1 - i3)))
    b = np.sqrt((e2 * i1 - l2) / (i2 * (i1 - i2)))
    c = np.sqrt((e2 * i1 - l2) / (i3 * (i1 - i3)))
    m = (i2 - i3) * (e2 * i1 - l2) / ((i1 - i2) * (l2 - e2 * i3))
    lam = -np.sign(a) * np.sqrt((l2 - e2 * i3) * (i1 - i2) / (i1 * i2 * i3))
    u0 = ellipkinc(np.arctan2(w0[1] / b, w0[2] / c), m)
    sn, cn, dn, _ = ellipj(u0 + lam * t, m)
    return np.column_stack([a * dn, b * sn, c * cn])


def test_exact_free_rates_solve_euler_equations():
    principal, w0 = np.array([3.0, 2.0, 1.0]), np.array([-0.7, 0.4, -1.2])
    t = np.linspace(0.0, 2.0, 401)
    w = _exact_free_rates(principal, w0, t)
    np.testing.assert_allclose(w[0], w0, atol=1e-14)
    # central differences against Euler's equations J w' = (J w) x w
    h = 1e-5
    dw = (_exact_free_rates(principal, w0, t + h) - _exact_free_rates(principal, w0, t - h))
    rhs = np.cross(w * principal, w) / principal
    np.testing.assert_allclose(dw / (2 * h), rhs, atol=1e-8)


@pytest.mark.parametrize("measure", ["arc", "chord"])
def test_vi_rates_second_order_against_exact_free_body(measure):
    principal, w0 = np.array([3.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0])
    errs = []
    for dt in (0.02, 0.01):
        series = simulate(RigidBodyState(np.eye(3), w0), J321, None,
                          IntegratorConfig(dt=dt, step_measure=measure), 2.0)
        exact = _exact_free_rates(principal, w0, series.t)
        errs.append(np.max(np.abs(series.vector("w") - exact)))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_vi_step_second_order_against_fine_rk4():
    t_final = 1.0
    ref = RigidBodyState(np.eye(3), np.array([1.0, 1.0, 1.0]))
    dt_ref = 1e-4
    for k in range(int(round(t_final / dt_ref))):
        ref = rk4_attitude_step(ref, J321, lambda t, T, w: np.zeros(3), k * dt_ref, dt_ref)
    errs = []
    for dt in (0.02, 0.01):
        series = simulate(
            RigidBodyState(np.eye(3), np.array([1.0, 1.0, 1.0])),
            J321,
            None,
            IntegratorConfig(dt=dt),
            t_final,
        )
        n = len(series) - 1
        t_end = np.array(
            [[series.column(f"T{i}{j}")[n] for j in range(3)] for i in range(3)]
        )
        errs.append(np.linalg.norm(log_so3(t_end @ ref.T.T)))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


# ----------------------------------------------------------------- simulate


def test_simulate_zero_duration(rng):
    s0 = RigidBodyState(random_rotation(rng), rng.normal(size=3))
    series = simulate(s0, J321, None, IntegratorConfig(dt=0.01), 0.0)
    assert len(series) == 1
    assert series.t[0] == 0.0


def test_simulate_structure_and_noether():
    s0 = RigidBodyState(np.eye(3), np.array([1.0, 1.0, 1.0]))
    cfg = IntegratorConfig(dt=0.01)
    series = simulate(s0, J321, None, cfg, 10.0)
    assert np.max(series.column("ortho_defect")) < 1e-10
    pi = series.vector("Pi")
    assert np.max(np.linalg.norm(pi - pi[0], axis=1)) < 10 * cfg.newton_tol
    assert np.all(series.column("residual")[1:] < cfg.newton_tol)


def test_simulate_determinism():
    s0 = RigidBodyState(np.eye(3), np.array([1.0, 1.0, 1.0]))
    cfg = IntegratorConfig(dt=0.01)
    a = simulate(s0, J321, None, cfg, 2.0)
    b = simulate(s0, J321, None, cfg, 2.0)
    for name in a.names:
        assert np.array_equal(a.column(name), b.column(name)), name


def test_simulate_time_reversibility():
    cfg = IntegratorConfig(dt=0.01)
    t_mat, w = np.eye(3), np.array([1.0, 1.0, 1.0])
    pi = t_mat @ (J321.j @ w)
    n = 100
    for k in range(n):
        r = vi_step(t_mat, w, None, J321, cfg, pi_k=pi)
        t_mat, w, pi = r.T_next, r.omega_next, r.pi_next
    w = -w
    pi = t_mat @ (J321.j @ w)
    for k in range(n):
        r = vi_step(t_mat, w, None, J321, cfg, pi_k=pi)
        t_mat, w, pi = r.T_next, r.omega_next, r.pi_next
    np.testing.assert_allclose(t_mat, np.eye(3), atol=100 * cfg.newton_tol)
    np.testing.assert_allclose(-w, np.array([1.0, 1.0, 1.0]), atol=100 * cfg.newton_tol)


def test_simulate_error_reports_step_index():
    s0 = RigidBodyState(np.eye(3), np.array([0.0, 0.0, 1.0]))
    # a moment that blows the step size up mid-run
    def moment(t):
        return np.array([0.0, 0.0, 1e8]) if t > 0.05 else np.zeros(3)

    with pytest.raises(DegenerateMeanError, match="step"):
        simulate(s0, J321, moment, IntegratorConfig(dt=0.01), 1.0)


def test_forced_step_matches_fine_rk4_second_order():
    # fixes the sign convention of the force covectors via the continuous limit
    m = np.array([0.1, -0.05, 0.2])
    ref = RigidBodyState(np.eye(3), np.array([0.3, -0.2, 0.4]))
    dt_ref = 1e-4
    for k in range(int(round(2.0 / dt_ref))):
        ref = rk4_attitude_step(ref, J321, lambda t, T, w: m, k * dt_ref, dt_ref)
    errs = []
    for dt in (0.02, 0.01):
        cfg = IntegratorConfig(dt=dt)
        t_mat, w = np.eye(3), np.array([0.3, -0.2, 0.4])
        pi = t_mat @ (J321.j @ w)
        for k in range(int(round(2.0 / dt))):
            r = vi_step(t_mat, w, lambda t: m, J321, cfg, t=k * dt, pi_k=pi)
            t_mat, w, pi = r.T_next, r.omega_next, r.pi_next
        errs.append(np.linalg.norm(t_mat - ref.T) + np.linalg.norm(w - ref.omega))
    assert 3.0 < errs[0] / errs[1] < 5.0
