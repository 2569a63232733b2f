import dataclasses
import inspect
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from geomech import cli
from geomech.errors import NoConvergenceError, ScenarioValidationError, ZeroRotorSpeedError
from geomech.rotor_aero import (
    HOVER_THRUST_MAX_FRAC,
    HOVER_THRUST_MIN_FRAC,
    HoverCalibration,
    RotorGeometry,
    hover_rotor_speed,
    hub_force_coefficient,
    induced_velocity,
    roll_moment_coefficient,
    rotor_wrench,
    thrust_coefficient,
    torque_coefficient,
)
from geomech.scenario import parse_scenario
from oracles import (
    composed_calibration,
    composed_coupled_load,
    composed_hover_rotor_speed,
    composed_hub_force_coefficient,
    composed_induced_velocity,
    composed_roll_moment_coefficient,
    composed_rotor_wrench,
    composed_thrust_coefficient,
    composed_torque_coefficient,
)

GEOM = RotorGeometry()
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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


def static_wrench(geom, rho, v_horiz, z_dot, omega, load):
    """``(thrust, h_force, torque_shaft, roll_moment)`` at the static loading
    ``load``, without the coupled solve: momentum theory at that load, then the
    coefficient polynomials.  The oracle of the self-consistency checks."""
    tip = omega * geom.radius
    lam = (induced_velocity(geom, rho, v_horiz, load) - z_dot) / tip
    mu = v_horiz / tip
    pressure = rho * geom.disk_area * tip**2
    return (
        thrust_coefficient(geom, lam, mu) * pressure,
        hub_force_coefficient(geom, lam, mu) * pressure,
        torque_coefficient(geom, lam, mu) * pressure * geom.radius,
        roll_moment_coefficient(geom, lam, mu) * pressure * geom.radius,
    )


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


def test_geometry_is_frozen(tmp_path):
    # the cached disk area, solidity and blade constants cannot go stale, and
    # no assignment skips the solidity check of __post_init__
    geom = RotorGeometry()
    area, blade = geom.disk_area, geom.blade
    for name, value in (("radius", 0.3), ("chord", 1.0), ("theta0", 0.1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(geom, name, value)
    assert (geom.radius, geom.disk_area, geom.blade) == (0.15, area, blade)
    assert area == math.pi * 0.15**2
    # the scenario reader builds one, and `--aero on` runs it on a file with aero off
    for name, overrides in (("quad_track_aero", None), ("quad_track", {"aero.enabled": True})):
        sc = parse_scenario((SCENARIOS / f"{name}.json").read_bytes(), overrides)
        assert sc.aero.enabled and sc.aero.geometry == GEOM
    assert cli.main(["run", str(SCENARIOS / "quad_track.json"), "--aero", "on",
                     "--t-final", "0.01", "--out-dir", str(tmp_path)]) == 0


def test_induced_velocity_limits():
    # static: nu1 = sqrt(W / (2 rho A))
    expected = np.sqrt(10.645 / (2.0 * 1.225 * GEOM.disk_area))
    assert induced_velocity(GEOM, 1.225, 0.0, 10.645) == pytest.approx(expected, rel=1e-12)
    # unloaded: the closed form collapses to the horizontal speed
    assert induced_velocity(GEOM, 1.225, 3.0, 0.0) == pytest.approx(3.0, rel=1e-12)
    # plug-in value for the quarter-weight load at the stock radius
    geom = RotorGeometry(radius=0.315, chord=0.03)
    loading = 10.64485 / (2.0 * 1.225 * np.pi * 0.315**2)
    assert induced_velocity(geom, 1.225, 0.0, 4.34 * 9.81 / 4.0) == pytest.approx(
        np.sqrt(loading), rel=1e-4)


def test_inflow_and_advance_ratios():
    # the ratios rotor_wrench forms, read back from its loads: at mu = 0 the
    # thrust is sigma a rho A (Omega R)^2 (b - lambda/4), b = theta0/6 - theta_tw/8
    geom = RotorGeometry(radius=0.5, chord=0.05)
    rho, omega = 1.225, 100.0
    pressure = rho * geom.disk_area * (omega * geom.radius) ** 2
    zero_inflow = thrust_coefficient(geom, 0.0, 0.0) * pressure
    nu1 = induced_velocity(geom, rho, 0.0, zero_inflow)
    # z_dot = nu1 at the delivered load: lambda = (nu1 - z_dot) / (Omega R) = 0
    thrust, *_ = rotor_wrench(geom, rho, 0.0, nu1, omega, zero_inflow)
    assert thrust == pytest.approx(zero_inflow, rel=1e-12)
    # hover: positive inflow; climbing faster than the induced flow flips the sign
    assert rotor_wrench(geom, rho, 0.0, 0.0, omega, zero_inflow)[0] < zero_inflow
    assert rotor_wrench(geom, rho, 0.0, nu1 + 3.0, omega, zero_inflow)[0] > zero_inflow
    # mu = V / (Omega R): zero at V = 0, 0.2 at V = 10 m/s
    _, h_force, _, roll = rotor_wrench(geom, rho, 0.0, 0.0, omega, zero_inflow)
    assert h_force == 0.0 and roll == 0.0
    thrust, h_force, _, _ = rotor_wrench(geom, rho, 10.0, 0.0, omega, zero_inflow)
    sa = geom.solidity * geom.lift_slope
    lam = 4.0 * ((1.0 / 6.0 + 0.01) * geom.theta0 - 1.04 * geom.theta_tw / 8.0
                 - thrust / (sa * pressure))
    assert h_force == pytest.approx(hub_force_coefficient(geom, lam, 0.2) * pressure, rel=1e-9)
    with pytest.raises(ZeroRotorSpeedError):
        rotor_wrench(geom, rho, 10.0, 0.0, 0.0, zero_inflow)


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
        nu1 = induced_velocity(geom, rho, v, w_load)
        z_dot = nu1 - lam_target * omega * geom.radius
        return rho, v, z_dot, omega, w_load

    base = static_wrench(GEOM, *build(1.0, 800.0))
    rho_scaled = static_wrench(GEOM, *build(2.0, 800.0))
    # nu1 changes with rho at fixed load, so rebuild z_dot keeps lam pinned
    assert rho_scaled[0] == pytest.approx(2.0 * base[0], rel=1e-12)
    assert rho_scaled[2] == pytest.approx(2.0 * base[2], rel=1e-12)
    om_scaled = static_wrench(GEOM, *build(1.0, 1600.0))
    assert om_scaled[0] == pytest.approx(4.0 * base[0], rel=1e-12)
    assert om_scaled[1] == pytest.approx(4.0 * base[1], rel=1e-12)
    assert om_scaled[3] == pytest.approx(4.0 * base[3], rel=1e-12)


def test_wrench_profile_drag_only():
    # no pitch, no twist, no inflow: the only load is profile-drag torque
    geom = RotorGeometry(theta0=1e-12, theta_tw=1e-15, cd_bar=0.01)
    thrust, h_force, torque_shaft, roll = static_wrench(geom, 1.225, 0.0, 0.0, 800.0, 0.0)
    assert thrust == pytest.approx(0.0, abs=1e-9)
    assert h_force == 0.0
    assert roll == 0.0
    pressure = 1.225 * geom.disk_area * (800.0 * geom.radius) ** 2
    assert torque_shaft == pytest.approx(
        geom.solidity * geom.cd_bar / 8.0 * pressure * geom.radius, rel=1e-9
    )


def test_hover_fixed_point_consistency():
    # the delivered thrust matches the load fed to the induced velocity
    weight = 4.34 * 9.81 / 4.0
    omega = hover_rotor_speed(GEOM, weight, rho=1.225)
    thrust, *_ = rotor_wrench(GEOM, 1.225, 0.0, 0.0, omega, weight)
    assert abs(thrust - weight) < 1e-6
    # and the static loads agree at hover (same lam)
    static_thrust, *_ = static_wrench(GEOM, 1.225, 0.0, 0.0, omega, weight)
    assert static_thrust == pytest.approx(thrust, abs=1e-6)


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
    # one scalar inversion per thrust; the calibration maps a sequence of them
    thrusts = [0.5, 2.0, 10.0, 40.0]
    pairs = HoverCalibration(GEOM, 1.225, 10.0)(thrusts)
    assert len(pairs) == 4
    for t, (saturated, omega) in zip(thrusts, pairs):
        assert saturated == t
        assert omega == hover_rotor_speed(GEOM, t, 1.225)
    assert isinstance(hover_rotor_speed(GEOM, 2.0, 1.225), float)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ScenarioValidationError):
            hover_rotor_speed(GEOM, bad, 1.225)
    with pytest.raises(ScenarioValidationError):
        [hover_rotor_speed(GEOM, t, 1.225) for t in (1.0, 0.0)]
    # theta0/6 - theta_tw/8 <= 0: the blades make no hover thrust at any speed
    with pytest.raises(ScenarioValidationError):
        hover_rotor_speed(RotorGeometry(theta0=0.03, theta_tw=0.04), 1.0, 1.225)


def test_hover_calibration_lookup():
    weight = 10.0
    cal = HoverCalibration(GEOM, 1.225, weight)
    for t in (0.2 * weight, weight, 3.0 * weight):
        [(_, omega)] = cal([t])
        assert omega == pytest.approx(hover_speed_brentq(GEOM, t, 1.225), rel=1e-12)


def test_hover_calibration_clips_to_actuator_range():
    weight = 10.0
    cal = HoverCalibration(GEOM, 1.225, weight)
    lo = hover_speed_brentq(GEOM, HOVER_THRUST_MIN_FRAC * weight, 1.225)
    hi = hover_speed_brentq(GEOM, HOVER_THRUST_MAX_FRAC * weight, 1.225)
    assert cal([1e-4 * weight])[0][1] == pytest.approx(lo, rel=1e-12)
    assert cal([10.0 * weight])[0][1] == pytest.approx(hi, rel=1e-12)
    pairs = cal([-5.0, 1e-4 * weight, weight, 10.0 * weight])
    np.testing.assert_allclose([omega for _, omega in pairs],
                               [lo, lo, hover_speed_brentq(GEOM, weight, 1.225), hi],
                               rtol=1e-12)
    # the saturated thrusts come back with their speeds
    assert [thrust for thrust, _ in pairs] == [HOVER_THRUST_MIN_FRAC * weight] * 2 + [
        weight, HOVER_THRUST_MAX_FRAC * weight]


def damped_fixed_point(geom, rho, v_horiz, z_dot, omega, load, iters=20000):
    """The damped fixed point ``L <- L + (T_BE(L) - L) / 2`` that the Newton
    solve replaced, started at ``load`` and iterated to a relative step of
    1e-14; ``None`` when it does not settle."""
    for _ in range(iters):
        thrust = static_wrench(geom, rho, v_horiz, z_dot, omega, load)[0]
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
        state = (1.225, rng.uniform(0.0, 5.0), rng.uniform(-5.0, 8.0),
                 hover_rotor_speed(GEOM, thrust, 1.225))
        got = rotor_wrench(GEOM, *state, thrust)[0]
        oracle = damped_fixed_point(GEOM, *state, thrust)
        if oracle is None:
            continue
        if oracle < 0.0 < got:
            # strong descent: the fixed point settled on a negative root although
            # r(0) > 0, where the Newton solve returns the unique positive root
            assert static_wrench(GEOM, *state, got)[0] == pytest.approx(got, rel=1e-12)
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
    coupled = rotor_wrench(GEOM, 1.225, v_horiz, z_dot, omega, start)
    static = static_wrench(GEOM, 1.225, v_horiz, z_dot, omega, coupled[0])
    assert static[0] == pytest.approx(coupled[0], rel=1e-12, abs=1e-14)
    assert static[2] == pytest.approx(coupled[2], rel=1e-12, abs=1e-14)


def test_coupled_solve_non_finite_state_raises():
    with pytest.raises(NoConvergenceError):
        rotor_wrench(GEOM, 1.225, 1.0, float("nan"), 900.0, 10.0)


def test_zero_rotor_speed_raises():
    with pytest.raises(ZeroRotorSpeedError):
        rotor_wrench(GEOM, 1.225, 0.0, 0.0, 0.0, 0.0)


# ------------------------------------------- the composed rotor layer, bit for bit


class SolveBranches:
    """Counts the branches ``oracles.composed_coupled_load`` takes, by tracing
    its lines: a negative root (``r(0) <= 0``), a start clamped into the
    bracket, a bisection, and an exact ``r == 0`` exit."""

    def __init__(self):
        self.code = composed_coupled_load.__code__
        lines, first = inspect.getsourcelines(composed_coupled_load)
        at = {text.strip(): first + i for i, text in enumerate(lines)}
        self.clamp = at["load = min(max(load, lo), hi)"]
        self.lines = {at["new = 0.5 * (lo + hi)"]: "bisection", at["return load"]: "exact exit"}
        self.counts = Counter()

    def __enter__(self):
        self.previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: self.line if frame.f_code is self.code else None)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.previous)

    def line(self, frame, event, arg):
        if event == "line" and frame.f_lineno == self.clamp:
            local = frame.f_locals
            self.counts["negative root"] += not local["r0"] > 0.0
            self.counts["clamp"] += not local["lo"] <= local["load"] <= local["hi"]
        elif event == "line" and frame.f_lineno in self.lines:
            self.counts[self.lines[frame.f_lineno]] += 1
        return self.line


def bits(values) -> list[str]:
    return [float(value).hex() for value in values]


def test_rotor_wrench_matches_composed_layer_bit_for_bit():
    # the runner's states as in the fixed-point comparison (2,000 draws, a
    # tenth of them at V = 0), then 400 on random geometries and densities.
    # Newton lands exactly on the root (r == 0) in about a quarter of them
    rng = np.random.default_rng(20261020)
    hover = 4.34 * 9.81 / 4.0
    cases = []
    for i in range(2400):
        geom, rho = GEOM, 1.225
        if i >= 2000:
            geom = RotorGeometry(n_blades=int(rng.integers(2, 5)), chord=rng.uniform(0.01, 0.04),
                                 radius=rng.uniform(0.1, 0.4), lift_slope=rng.uniform(4.0, 7.0),
                                 theta0=rng.uniform(0.1, 0.3), theta_tw=rng.uniform(0.0, 0.1))
            rho = rng.uniform(0.8, 1.4)
        thrust = hover * math.exp(rng.uniform(math.log(HOVER_THRUST_MIN_FRAC),
                                              math.log(HOVER_THRUST_MAX_FRAC)))
        v_horiz = 0.0 if i % 10 == 0 else rng.uniform(0.0, 5.0)
        omega = composed_hover_rotor_speed(geom, thrust, rho)
        cases.append((geom, rho, v_horiz, rng.uniform(-5.0, 8.0), omega, thrust))
    with SolveBranches() as branches:
        expected = [composed_rotor_wrench(*case) for case in cases]
    assert [bits(rotor_wrench(*case)) for case in cases] == [bits(e) for e in expected]
    branches.counts["V = 0"] = sum(case[2] == 0.0 for case in cases)
    assert {name: count for name, count in branches.counts.items() if count > 0}.keys() == {
        "negative root", "V = 0", "clamp", "bisection", "exact exit"}, branches.counts
    # the public coefficient views and the inflow, on the same geometries
    for geom, rho, v_horiz, z_dot, omega, load in cases[::8]:
        lam, mu = (v_horiz - z_dot) / (omega * geom.radius), v_horiz / (omega * geom.radius)
        assert bits(f(geom, lam, mu) for f in (
            thrust_coefficient, hub_force_coefficient, torque_coefficient,
            roll_moment_coefficient)) == bits(f(geom, lam, mu) for f in (
                composed_thrust_coefficient, composed_hub_force_coefficient,
                composed_torque_coefficient, composed_roll_moment_coefficient))
        assert bits([induced_velocity(geom, rho, v_horiz, load)]) == bits(
            [composed_induced_velocity(geom, rho, v_horiz, load)])


def test_hover_calibration_matches_composed_layer_bit_for_bit():
    # four commanded thrusts per tick, from 1e-4 to 10 times the hover share,
    # so both ends of the actuator range clip
    rng = np.random.default_rng(20261021)
    for i in range(500):
        geom, rho, hover = GEOM, 1.225, 4.34 * 9.81 / 4.0
        if i % 5 == 4:
            geom = RotorGeometry(radius=rng.uniform(0.1, 0.4), theta0=rng.uniform(0.1, 0.3),
                                 theta_tw=rng.uniform(0.0, 0.1))
            rho, hover = rng.uniform(0.8, 1.4), rng.uniform(1.0, 20.0)
        thrusts = [hover * math.exp(rng.uniform(math.log(1e-4), math.log(10.0)))
                   for _ in range(4)]
        got = HoverCalibration(geom, rho, hover)(thrusts)
        assert [bits(pair) for pair in got] == [
            bits(pair) for pair in composed_calibration(geom, rho, hover, thrusts)]
        assert bits(hover_rotor_speed(geom, t, rho) for t in thrusts) == bits(
            composed_hover_rotor_speed(geom, t, rho) for t in thrusts)


@pytest.mark.parametrize("state", [
    (1.225, 1.0, math.nan, 900.0, 10.0),
    (1.225, math.nan, 0.5, 900.0, 10.0),
    (1.225, 1.0, 0.5, 900.0, math.nan),
    (math.nan, 1.0, 0.5, 900.0, 10.0),
    (1.225, 1.0, 0.5, 0.0, 10.0),
    (1.225, 1.0, 0.5, -3.0, 10.0),
    (1.225, 1.0, 0.5, math.nan, 10.0),
], ids=["z_dot nan", "V nan", "load nan", "rho nan", "omega 0", "omega < 0", "omega nan"])
def test_rotor_wrench_errors_match_composed_layer(state):
    # the same error type and message, or the same bits when the state solves
    outcomes = []
    for fn in (rotor_wrench, composed_rotor_wrench):
        try:
            outcomes.append(bits(fn(GEOM, *state)))
        except (NoConvergenceError, ZeroRotorSpeedError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_hover_errors_match_composed_layer():
    flat = RotorGeometry(theta0=0.03, theta_tw=0.04)  # theta0/6 - theta_tw/8 < 0
    for geom, thrust in ((GEOM, 0.0), (GEOM, -1.0), (GEOM, math.nan), (flat, 1.0)):
        raised = []
        for fn in (hover_rotor_speed, composed_hover_rotor_speed):
            with pytest.raises(ScenarioValidationError) as exc:
                fn(geom, thrust, 1.225)
            raised.append(exc.value.violations)
        assert raised[0] == raised[1]
    with pytest.raises(ScenarioValidationError) as exc:
        HoverCalibration(flat, 1.225, 10.0)
    assert [field for field, _ in exc.value.violations] == ["theta_tw"]
