import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from geomech.errors import NoConvergenceError, ScenarioValidationError, ZeroRotorSpeedError
from geomech.rotor_aero import (
    HOVER_THRUST_MAX_FRAC,
    HOVER_THRUST_MIN_FRAC,
    AirState,
    HoverCalibration,
    RotorGeometry,
    advance_ratio,
    hover_rotor_speed,
    hub_force_coefficient,
    induced_velocity,
    inflow_ratio,
    roll_moment_coefficient,
    rotor_wrench,
    thrust_coefficient,
    torque_coefficient,
)


GEOM = RotorGeometry()


# ---------------------------------------------------------------- the oracle


def blade_element_quadrature(geom, lam, mu, which, n_x=8, n_psi=64):
    """Numerical double integral of the sectional loads over the disk.

    Uses Gauss-Legendre in the radial fraction (the integrands are
    polynomials of degree <= 4 there) and a uniform azimuth rule (trig
    polynomials of harmonic <= 3), so the quadrature itself is exact to
    machine precision.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_x)
    x = 0.5 * (nodes + 1.0)
    wx = 0.5 * weights
    psi = (np.arange(n_psi) + 0.5) * (2.0 * np.pi / n_psi)
    wpsi = 2.0 * np.pi / n_psi
    xg, pg = np.meshgrid(x, psi, indexing="ij")
    s, c = np.sin(pg), np.cos(pg)
    ut = xg + mu * s  # tangential velocity / (Omega R)
    incidence = geom.theta0 - geom.theta_tw * xg
    lift = ut * ut * incidence - lam * ut
    inplane = (geom.cd_bar / geom.lift_slope) * ut * ut + lam * ut * incidence - lam * lam
    if which == "thrust":
        integrand = lift
    elif which == "hub":
        integrand = inplane * s
    elif which == "lateral":
        integrand = -inplane * c
    elif which == "torque":
        integrand = inplane * xg
    elif which == "roll":
        integrand = -lift * xg * s
    elif which == "pitch":
        integrand = -lift * xg * c
    else:
        raise ValueError(which)
    value = np.einsum("i,ij->", wx, integrand) * wpsi
    return geom.solidity * geom.lift_slope / (4.0 * np.pi) * value


@pytest.mark.parametrize(
    "which,closed_form",
    [
        ("thrust", thrust_coefficient),
        ("hub", hub_force_coefficient),
        ("torque", torque_coefficient),
        ("roll", roll_moment_coefficient),
    ],
)
def test_coefficients_match_quadrature(which, closed_form):
    for lam in (0.0, 0.05, 0.12):
        for mu in (0.0, 0.1, 0.3):
            oracle = blade_element_quadrature(GEOM, lam, mu, which)
            got = closed_form(GEOM, lam, mu)
            assert got == pytest.approx(oracle, abs=1e-14, rel=1e-10)


def test_lateral_and_pitch_integrals_vanish():
    for lam in (0.0, 0.07, 0.15):
        for mu in (0.0, 0.2, 0.3):
            assert abs(blade_element_quadrature(GEOM, lam, mu, "lateral")) < 1e-12
            assert abs(blade_element_quadrature(GEOM, lam, mu, "pitch")) < 1e-12


# ------------------------------------------------------------ simple checks


def test_geometry_validation():
    with pytest.raises(ScenarioValidationError):
        RotorGeometry(chord=-0.01)
    with pytest.raises(ScenarioValidationError):
        RotorGeometry(n_blades=40, chord=0.1, radius=0.15)  # solidity > 1


def test_induced_velocity_limits():
    # static: nu1 = sqrt(W / (2 rho A))
    air = AirState(rho=1.225, v_horiz=0.0, weight_supported=10.645)
    expected = np.sqrt(10.645 / (2.0 * 1.225 * GEOM.disk_area))
    assert induced_velocity(air, GEOM) == pytest.approx(expected, rel=1e-12)
    # unloaded: the closed form collapses to the horizontal speed
    air = AirState(v_horiz=3.0, weight_supported=0.0)
    assert induced_velocity(air, GEOM) == pytest.approx(3.0, rel=1e-12)
    # plug-in value for the quarter-weight load at the stock radius
    geom = RotorGeometry(radius=0.315, chord=0.03)
    air = AirState(rho=1.225, weight_supported=4.34 * 9.81 / 4.0)
    loading = 10.64485 / (2.0 * 1.225 * np.pi * 0.315**2)
    assert induced_velocity(air, geom) == pytest.approx(np.sqrt(loading), rel=1e-4)


def test_inflow_and_advance_ratios():
    air = AirState(v_horiz=0.0, z_dot=5.0, omega_rotor=100.0)
    geom = RotorGeometry(radius=0.5, chord=0.05)
    assert inflow_ratio(air, geom, nu1=5.0) == pytest.approx(0.0)
    air = AirState(v_horiz=0.0, z_dot=0.0, omega_rotor=100.0)
    assert inflow_ratio(air, geom, nu1=5.0) == pytest.approx(0.1)
    # climbing faster than the induced flow flips the sign
    air = AirState(z_dot=8.0, omega_rotor=100.0)
    assert inflow_ratio(air, geom, nu1=5.0) < 0.0
    assert advance_ratio(AirState(v_horiz=0.0, omega_rotor=100.0), geom) == 0.0
    assert advance_ratio(AirState(v_horiz=10.0, omega_rotor=100.0), geom) == pytest.approx(0.2)
    with pytest.raises(ZeroRotorSpeedError):
        advance_ratio(AirState(omega_rotor=0.0), geom)


def test_coefficient_trivial_values():
    geom = RotorGeometry(theta0=0.2, theta_tw=0.04)
    sa = geom.solidity * geom.lift_slope
    # hover thrust formula at mu = 0
    assert thrust_coefficient(geom, 0.05, 0.0) == pytest.approx(
        sa * (0.2 / 6.0 - 0.04 / 8.0 - 0.05 / 4.0), rel=1e-14
    )
    flat = RotorGeometry(theta0=0.0, theta_tw=0.0)
    assert thrust_coefficient(flat, 0.0, 0.17) == 0.0
    # hub force: mu = 0 kills it; lam = 0 leaves the profile-drag term
    assert hub_force_coefficient(geom, 0.3, 0.0) == 0.0
    assert hub_force_coefficient(geom, 0.0, 0.1) == pytest.approx(
        0.1 * geom.cd_bar * geom.solidity / 4.0, rel=1e-14
    )
    # torque: static profile drag only
    assert torque_coefficient(geom, 0.0, 0.0) == pytest.approx(
        geom.solidity * geom.cd_bar / 8.0, rel=1e-14
    )
    # torque is affine in cd_bar at fixed lam, mu
    g2 = RotorGeometry(theta0=0.2, theta_tw=0.04, cd_bar=0.02)
    delta = torque_coefficient(g2, 0.05, 0.1) - torque_coefficient(geom, 0.05, 0.1)
    assert delta == pytest.approx(geom.solidity * (1.01) * 0.01 / 8.0, rel=1e-12)
    # roll moment: zero at mu = 0, negative when pitch dominates
    assert roll_moment_coefficient(geom, 0.0, 0.0) == 0.0
    assert roll_moment_coefficient(geom, 0.05, 0.2) < 0.0


def test_sigma_consistency_identity(rng):
    # dimensional blade-element thrust equals the coefficient form identically
    for _ in range(20):
        geom = RotorGeometry(
            n_blades=int(rng.integers(2, 5)),
            chord=rng.uniform(0.01, 0.04),
            radius=rng.uniform(0.1, 0.4),
            lift_slope=rng.uniform(4.0, 7.0),
            theta0=rng.uniform(0.05, 0.3),
            theta_tw=rng.uniform(0.0, 0.1),
        )
        lam, mu = rng.uniform(0.0, 0.15), rng.uniform(0.0, 0.3)
        rho, omega = rng.uniform(0.8, 1.4), rng.uniform(300.0, 1500.0)
        bracket = (
            (1.0 / 6.0 + mu**2 / 4.0) * geom.theta0
            - (1.0 + mu**2) * geom.theta_tw / 8.0
            - lam / 4.0
        )
        dimensional = (
            geom.n_blades * rho * geom.lift_slope * geom.chord
            * (omega * geom.radius) ** 2 * geom.radius * bracket
        )
        coefficient_form = (
            thrust_coefficient(geom, lam, mu)
            * rho * geom.disk_area * (omega * geom.radius) ** 2
        )
        assert dimensional == pytest.approx(coefficient_form, rel=1e-12)


def test_wrench_scaling_laws():
    # at fixed (lam, mu): forces scale with rho, and with Omega^2
    lam_target, mu_target = 0.06, 0.12
    def build(rho, omega):
        geom = GEOM
        v = mu_target * omega * geom.radius
        w_load = 8.0
        nu1 = induced_velocity(AirState(rho=rho, v_horiz=v, weight_supported=w_load), geom)
        z_dot = nu1 - lam_target * omega * geom.radius
        return AirState(rho, v, z_dot, omega, w_load)

    base = rotor_wrench(GEOM, build(1.0, 800.0), coupled=False)
    rho_scaled = rotor_wrench(GEOM, build(2.0, 800.0), coupled=False)
    # nu1 changes with rho at fixed load, so rebuild z_dot keeps lam pinned
    assert rho_scaled.thrust == pytest.approx(2.0 * base.thrust, rel=1e-12)
    assert rho_scaled.torque_shaft == pytest.approx(2.0 * base.torque_shaft, rel=1e-12)
    om_scaled = rotor_wrench(GEOM, build(1.0, 1600.0), coupled=False)
    assert om_scaled.thrust == pytest.approx(4.0 * base.thrust, rel=1e-12)
    assert om_scaled.h_force == pytest.approx(4.0 * base.h_force, rel=1e-12)
    assert om_scaled.roll_moment == pytest.approx(4.0 * base.roll_moment, rel=1e-12)


def test_wrench_lateral_components_zero():
    wrench = rotor_wrench(GEOM, AirState(v_horiz=2.0, z_dot=-1.0, omega_rotor=900.0,
                                         weight_supported=10.0))
    assert wrench.y_force == 0.0
    assert wrench.pitch_moment == 0.0


def test_wrench_profile_drag_only():
    # no pitch, no twist, no inflow: the only load is profile-drag torque
    geom = RotorGeometry(theta0=1e-12, theta_tw=1e-15, cd_bar=0.01)
    air = AirState(v_horiz=0.0, z_dot=0.0, omega_rotor=800.0, weight_supported=0.0)
    wrench = rotor_wrench(geom, air, coupled=False)
    assert wrench.thrust == pytest.approx(0.0, abs=1e-9)
    assert wrench.h_force == 0.0
    assert wrench.roll_moment == 0.0
    pressure = air.rho * geom.disk_area * (800.0 * geom.radius) ** 2
    assert wrench.torque_shaft == pytest.approx(
        geom.solidity * geom.cd_bar / 8.0 * pressure * geom.radius, rel=1e-9
    )


def test_hover_fixed_point_consistency():
    # the delivered thrust matches the load fed to the induced velocity
    weight = 4.34 * 9.81 / 4.0
    omega = hover_rotor_speed(GEOM, weight, rho=1.225)
    air = AirState(rho=1.225, v_horiz=0.0, z_dot=0.0, omega_rotor=omega,
                   weight_supported=weight)
    wrench = rotor_wrench(GEOM, air, coupled=True)
    assert abs(wrench.thrust - weight) < 1e-6
    # and the static path agrees at hover (same lam)
    static = rotor_wrench(GEOM, air, coupled=False)
    assert static.thrust == pytest.approx(wrench.thrust, abs=1e-6)


def hover_speed_brentq(geom, thrust, rho):
    """Bracketed root of the static hover model ``thrust = C_T(lambda_h) rho A
    (Omega R)^2`` with ``lambda_h = sqrt(thrust / (2 rho A)) / (Omega R)``:
    the oracle for the closed-form root."""
    area = geom.disk_area
    nu_h = np.sqrt(thrust / (2.0 * rho * area))

    def defect(omega):
        lam = nu_h / (omega * geom.radius)
        return thrust_coefficient(geom, lam, 0.0) * rho * area * (omega * geom.radius) ** 2 - thrust

    return brentq(defect, 1e-3, 1e6, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def test_hover_rotor_speed_matches_bracketed_root():
    for geom in (GEOM, RotorGeometry(radius=0.315, chord=0.03, theta0=0.1, theta_tw=0.07)):
        for thrust in 10.0 * np.geomspace(1e-4, 10.0, 25):
            assert hover_rotor_speed(geom, thrust, 1.1) == pytest.approx(
                hover_speed_brentq(geom, thrust, 1.1), rel=1e-12
            )


def test_hover_rotor_speed_arrays_and_validation():
    thrusts = np.array([0.5, 2.0, 10.0, 40.0])
    speeds = hover_rotor_speed(GEOM, thrusts, 1.225)
    assert speeds.shape == (4,)
    for t, omega in zip(thrusts, speeds):
        assert omega == hover_rotor_speed(GEOM, float(t), 1.225)
    assert isinstance(hover_rotor_speed(GEOM, 2.0, 1.225), float)
    for bad in (0.0, -1.0, np.array([1.0, 0.0]), float("nan")):
        with pytest.raises(ScenarioValidationError):
            hover_rotor_speed(GEOM, bad, 1.225)
    # theta0/6 - theta_tw/8 <= 0: the blades make no hover thrust at any speed
    with pytest.raises(ScenarioValidationError):
        hover_rotor_speed(RotorGeometry(theta0=0.03, theta_tw=0.04), 1.0, 1.225)


def test_hover_calibration_lookup():
    weight = 10.0
    cal = HoverCalibration(GEOM, 1.225, weight)
    for t in (0.2 * weight, weight, 3.0 * weight):
        omega = float(cal(t))
        assert omega == pytest.approx(hover_speed_brentq(GEOM, t, 1.225), rel=1e-12)


def test_hover_calibration_clips_to_actuator_range():
    weight = 10.0
    cal = HoverCalibration(GEOM, 1.225, weight)
    lo = hover_speed_brentq(GEOM, HOVER_THRUST_MIN_FRAC * weight, 1.225)
    hi = hover_speed_brentq(GEOM, HOVER_THRUST_MAX_FRAC * weight, 1.225)
    assert float(cal(1e-4 * weight)) == pytest.approx(lo, rel=1e-12)
    assert float(cal(10.0 * weight)) == pytest.approx(hi, rel=1e-12)
    speeds = cal(np.array([-5.0, 1e-4 * weight, weight, 10.0 * weight]))
    np.testing.assert_allclose(speeds, [lo, lo, hover_speed_brentq(GEOM, weight, 1.225), hi],
                               rtol=1e-12)


def damped_fixed_point(geom, air, iters=20000):
    """The damped fixed point ``L <- L + (T_BE(L) - L) / 2`` that the Newton
    solve replaced, iterated to a relative step of 1e-14; ``None`` when it
    does not settle."""
    tip = air.omega_rotor * geom.radius
    mu = air.v_horiz / tip
    pressure = air.rho * geom.disk_area * tip**2
    load = air.weight_supported
    for _ in range(iters):
        nu1 = induced_velocity(dataclasses.replace(air, weight_supported=load), geom)
        thrust = thrust_coefficient(geom, (nu1 - air.z_dot) / tip, mu) * pressure
        if abs(thrust - load) <= 1e-14 * max(abs(load), 1e-3):
            return thrust
        load += 0.5 * (thrust - load)
    return None


def test_coupled_solve_matches_fixed_point_over_runner_envelope():
    # the runner's states: V <= 5 m/s, z_dot in [-5, 8] m/s, shaft speed from
    # the calibration's clip range, starting load = the commanded thrust
    rng = np.random.default_rng(20261018)
    hover = 4.34 * 9.81 / 4.0
    agreed = positive_instead = 0
    for _ in range(1500):
        thrust = hover * math.exp(rng.uniform(math.log(HOVER_THRUST_MIN_FRAC),
                                              math.log(HOVER_THRUST_MAX_FRAC)))
        air = AirState(1.225, rng.uniform(0.0, 5.0), rng.uniform(-5.0, 8.0),
                       hover_rotor_speed(GEOM, thrust, 1.225), thrust)
        got = rotor_wrench(GEOM, air).thrust
        oracle = damped_fixed_point(GEOM, air)
        if oracle is None:
            continue
        if oracle < 0.0 < got:
            # strong descent: the fixed point settled on a negative root although
            # r(0) > 0, where the Newton solve returns the unique positive root
            static = rotor_wrench(GEOM, dataclasses.replace(air, weight_supported=got), False)
            assert static.thrust == pytest.approx(got, rel=1e-12)
            positive_instead += 1
            continue
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-15)
        agreed += 1
    assert agreed >= 1450 and positive_instead <= 5


@pytest.mark.parametrize(
    "v_horiz,z_dot,omega,start",
    [
        (0.0, 0.0, 900.0, 10.0),    # static hover neighbourhood
        (0.0, -25.0, 150.0, 10.0),  # negative root, V = 0: nu1' unbounded at L = 0
        (3.0, -12.0, 200.0, 0.01),  # negative root with forward speed
        (4.0, 6.0, 300.0, 200.0),   # fast climb, start far above the root
        (0.0, 0.0, 900.0, -3.0),    # negative start, positive root
    ],
)
def test_coupled_solve_is_self_consistent(v_horiz, z_dot, omega, start):
    air = AirState(1.225, v_horiz, z_dot, omega, start)
    coupled = rotor_wrench(GEOM, air)
    static = rotor_wrench(GEOM, dataclasses.replace(air, weight_supported=coupled.thrust),
                          coupled=False)
    assert static.thrust == pytest.approx(coupled.thrust, rel=1e-12, abs=1e-14)
    assert static.torque_shaft == pytest.approx(coupled.torque_shaft, rel=1e-12, abs=1e-14)


def test_coupled_solve_non_finite_state_raises():
    air = AirState(1.225, 1.0, float("nan"), 900.0, 10.0)
    with pytest.raises(NoConvergenceError):
        rotor_wrench(GEOM, air)


def test_zero_rotor_speed_raises():
    with pytest.raises(ZeroRotorSpeedError):
        rotor_wrench(GEOM, AirState(omega_rotor=0.0))
