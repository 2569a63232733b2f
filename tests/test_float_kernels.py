"""The Python-float kernels of the per-step laws against their numpy oracles
(``oracles.py``) on derandomized draws."""

from pathlib import Path

import numpy as np
import pytest

import oracles
from geomech import so3
from geomech.attitude_control import _torque_kernel
from geomech.errors import DivergenceError, SingularInputError
from geomech.rigid_body import InertiaTensor, _attitude_rk4_core, _eigvalsh3, _inverse3, _rates
from geomech.runner import _AeroModel
from geomech.scenario import parse_scenario
from geomech.so3 import _fast_polar, _log_kernel, _ortho_defect, _sinc, exp_so3
from geomech.variational import IntegratorConfig, _newton_jacobian, _vi_core

from conftest import random_axis_angle, random_rotation

DRAWS = 200
TOL = 1e-12  # relative to the norm of the oracle's output


def _spd(rng):
    a = rng.normal(size=(3, 3))
    return a @ a.T + 0.1 * np.eye(3)


def _inertia(rng):
    """Random SPD inertia whose principal moments satisfy l0 + l1 >= l2."""
    l0, l1 = rng.uniform(0.5, 3.0, size=2)
    l2 = rng.uniform(abs(l0 - l1), l0 + l1)
    q = random_rotation(rng)
    j = q @ np.diag([l0, l1, l2]) @ q.T
    return 0.5 * (j + j.T)


def _draw(rng):
    j = _inertia(rng)
    return {
        "T": random_rotation(rng), "R_d": random_rotation(rng), "J": j, "J_inv": np.linalg.inv(j),
        "P": _spd(rng), "F": _spd(rng), "w": rng.normal(size=3), "wd": rng.normal(size=3),
        "wdd": rng.normal(size=3), "dt": rng.uniform(1e-4, 1e-2),
    }


def _flat(a):
    return np.asarray(a, dtype=float).ravel().tolist()


def _close(got, want):
    want = np.asarray(want, dtype=float).ravel()
    err = np.linalg.norm(np.asarray(got, dtype=float).ravel() - want)
    assert err <= TOL * np.linalg.norm(want), (err, np.linalg.norm(want))


def _float_torque(d):
    """``torque_fn`` of the float core: the float torque law on draw ``d``."""
    rd, wd, wdd, jj, p, f = (_flat(d[k]) for k in ("R_d", "wd", "wdd", "J", "P", "F"))
    return lambda t, tm, w: _torque_kernel(tm, rd, wd, wdd, w, jj, p, f)[0]


def _float_rates(torque_fn, t, jj, jinv):
    """``rates`` of the float core for a step from ``t``: the plant's rates
    under ``torque_fn(t, T, w)`` at each stage offset."""
    return lambda a, s, v: _rates(s, v, torque_fn(t + a, s, v), jj, jinv)


def _oracle_torque(d):
    def torque(t, tm, w):
        e, one_plus_tr = oracles.checked_error_matrix(tm, d["R_d"])
        return oracles.torque_kernel(e, one_plus_tr, d["wd"], d["wdd"], w, d["J"], d["P"],
                                     d["F"])[0]
    return torque


def test_torque_law_matches_the_numpy_oracle():
    rng = np.random.default_rng(1101)
    checked = 0
    for _ in range(DRAWS):
        d = _draw(rng)
        e, one_plus_tr = oracles.checked_error_matrix(d["T"], d["R_d"])
        if one_plus_tr < 1e-2:
            continue
        q, e_r, e_om, opt = _torque_kernel(
            _flat(d["T"]), _flat(d["R_d"]), _flat(d["wd"]), _flat(d["wdd"]), _flat(d["w"]),
            _flat(d["J"]), _flat(d["P"]), _flat(d["F"]))
        want = oracles.torque_kernel(e, one_plus_tr, d["wd"], d["wdd"], d["w"], d["J"], d["P"],
                                     d["F"])
        for got, ref in zip((q, e_r, e_om), want):
            _close(got, ref)
        assert abs(opt - one_plus_tr) <= TOL * one_plus_tr
        checked += 1
    assert checked >= 180


def test_rates_match_the_numpy_oracle():
    rng = np.random.default_rng(1102)
    for _ in range(DRAWS):
        d = _draw(rng)
        m = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 2)
        t_mat = d["T"] + 1e-3 * rng.normal(size=(3, 3))  # the law needs no rotation
        t_dot, w_dot = _rates(_flat(t_mat), _flat(d["w"]), _flat(m), _flat(d["J"]),
                              _flat(d["J_inv"]))
        want = oracles.rates(t_mat, d["w"], m, d["J"], d["J_inv"])
        _close(t_dot, want[0])
        _close(w_dot, want[1])


def test_fast_polar_matches_the_numpy_oracle_on_both_branches():
    rng = np.random.default_rng(1103)
    fallbacks = 0
    for _ in range(DRAWS):
        # defects from rounding level to beyond the Newton-Schulz range (1e-4)
        m = random_rotation(rng) + 10.0 ** rng.uniform(-14, -2.5) * rng.normal(size=(3, 3))
        fallbacks += np.abs(m.T @ m - np.eye(3)).max() > 1e-4
        got = _fast_polar(_flat(m))
        assert isinstance(got, tuple) and len(got) == 9
        _close(got, oracles.fast_polar(m))
    assert 0 < fallbacks < DRAWS  # both branches are taken


def test_fast_polar_newton_steps_match_the_svd_oracle_far_from_so3():
    # defects from the Newton-Schulz range (1e-4) to about 1, det > 0: scaled
    # Newton steps, then the sweeps.  The kernel raises once it has taken
    # _POLAR_STEPS steps outside the range, so each return stayed within them
    rng = np.random.default_rng(1105)
    defects = []
    while len(defects) < DRAWS:
        m = random_rotation(rng) + 10.0 ** rng.uniform(-4.0, -0.5) * rng.normal(size=(3, 3))
        defect = np.abs(m.T @ m - np.eye(3)).max()
        if defect <= 1e-4 or np.linalg.det(m) <= 0.0:
            continue
        defects.append(defect)
        _close(_fast_polar(_flat(m)), oracles.polar_svd(m))
    assert max(defects) > 0.5


def test_fast_polar_refuses_what_has_no_polar_factor(monkeypatch):
    with pytest.raises(SingularInputError):
        _fast_polar((2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, -2.0))  # det < 0
    with pytest.raises(SingularInputError):
        _fast_polar((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-13))  # det <= 1e-12
    for m in ((1e200, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),  # the Gram matrix overflows
              (1e150, 0.0, 0.0, 0.0, 1e150, 0.0, 0.0, 0.0, 1e150),  # det overflows
              (float("nan"),) * 9):
        with pytest.raises(DivergenceError, match="overflow"):
            _fast_polar(m)
    monkeypatch.setattr(so3, "_POLAR_STEPS", 1)  # three steps are needed here
    with pytest.raises(DivergenceError, match="no polar factor within 1 "):
        _fast_polar((2.0, 0.1, 0.0, 0.0, 1.0, 0.3, 0.2, 0.0, 0.5))


def test_ortho_defect_matches_the_frobenius_norm():
    # the record columns' defect against its definition, on matrices far
    # enough from O(3) that m^T m - I keeps its digits
    rng = np.random.default_rng(1106)
    for _ in range(DRAWS):
        m = 10.0 ** rng.uniform(-1.0, 1.0) * rng.normal(size=(3, 3))
        want = np.linalg.norm(m.T @ m - np.eye(3))
        assert abs(_ortho_defect(_flat(m)) - want) <= TOL * want


def test_attitude_rk4_core_matches_the_numpy_oracle():
    rng = np.random.default_rng(1104)
    checked = 0
    for _ in range(DRAWS):
        d = _draw(rng)
        t, dt = rng.uniform(0.0, 10.0), d["dt"]
        if oracles.checked_error_matrix(d["T"], d["R_d"])[1] < 1e-2:
            continue
        float_torque, oracle_torque = _float_torque(d), _oracle_torque(d)
        tm, w = _flat(d["T"]), _flat(d["w"])
        jj, jinv = _flat(d["J"]), _flat(d["J_inv"])
        rates = _float_rates(float_torque, t, jj, jinv)
        # the runner's form (stage 1 reuses the recorded torque) and the public one
        for q1 in (float_torque(t, tm, w), None):
            k1 = rates(0.0, tm if q1 is not None else _fast_polar(tm), w)
            got = _attitude_rk4_core(tm, w, rates, dt, k1)
            want = oracles.attitude_rk4_core(
                d["T"], d["w"], d["J"], d["J_inv"], oracle_torque, t, dt,
                None if q1 is None else oracle_torque(t, d["T"], d["w"]))
            _close(got[0], want[0])
            _close(got[1], want[1])
        checked += 1
    assert checked >= 180


@pytest.mark.parametrize("seed", range(3))
def test_attitude_rk4_core_tracks_the_oracle_over_many_steps(seed):
    # 500 closed-loop steps stay within rounding of the numpy stage loop
    rng = np.random.default_rng(1110 + seed)
    d = _draw(rng)
    d["dt"] = 1e-3
    if oracles.checked_error_matrix(d["T"], d["R_d"])[1] < 0.5:
        d["T"] = d["R_d"] @ oracles.fast_polar(np.eye(3) + 0.3 * rng.normal(size=(3, 3)))
    float_torque, oracle_torque = _float_torque(d), _oracle_torque(d)
    jj, jinv = _flat(d["J"]), _flat(d["J_inv"])
    tm, w = _flat(d["T"]), _flat(d["w"])
    t_o, w_o = d["T"], d["w"]
    for k in range(500):
        t = k * d["dt"]
        rates = _float_rates(float_torque, t, jj, jinv)
        tm, w = _attitude_rk4_core(tm, w, rates, d["dt"], rates(0.0, tm, w))
        t_o, w_o = oracles.attitude_rk4_core(t_o, w_o, d["J"], d["J_inv"], oracle_torque, t,
                                             d["dt"], oracle_torque(t, t_o, w_o))
    np.testing.assert_allclose(np.reshape(tm, (3, 3)), t_o, atol=1e-11, rtol=0.0)
    np.testing.assert_allclose(w, w_o, atol=1e-11 * max(1.0, np.abs(w_o).max()), rtol=0.0)


def test_aero_wrench_assembly_matches_the_numpy_oracle():
    # spin signs, the H-force direction and arm x f over random flight states
    # of the shipped rotor model
    sc = parse_scenario((Path(__file__).parents[1] / "scenarios/quad_track_aero.json")
                        .read_bytes())
    model = _AeroModel(sc)
    hover = sc.vehicle.mass * sc.vehicle.g
    rng = np.random.default_rng(1616)
    for _ in range(300):
        r_mat, v, omega = random_rotation(rng), rng.normal(scale=3.0, size=3), rng.normal(size=3)
        f_cmd, q_cmd = hover * rng.uniform(0.5, 1.5), rng.normal(scale=0.5, size=3)
        f, m = model.wrench(([0.0] * 3, _flat(v), _flat(r_mat), _flat(omega)), f_cmd,
                            tuple(_flat(q_cmd)))
        f_o, m_o = oracles.aero_wrench(model, r_mat, v, omega, f_cmd, q_cmd)
        got, want = np.concatenate([f, m]), np.concatenate([f_o, m_o])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("measure", ["chord", "arc"])
@pytest.mark.parametrize("forced", [False, True])
def test_vi_core_tracks_the_oracle_over_many_steps(measure, forced):
    # 2,000 steps of the float core and of the numpy body-frame step from one
    # draw like the benchmark's: J_i ~ U(1.5, 3), a uniform T0, |w0| ~ U(0.5, 2)
    rng = np.random.default_rng(1700 + 2 * forced + (measure == "arc"))
    inertia = InertiaTensor.from_diag(*rng.uniform(1.5, 3.0, size=3))
    t_o = random_rotation(rng)
    w_o = rng.normal(size=3)
    w_o *= rng.uniform(0.5, 2.0) / np.linalg.norm(w_o)
    m = rng.uniform(-1.0, 1.0, size=3) if forced else None
    cfg = IntegratorConfig(dt=0.01, step_measure=measure)
    pi_o = t_o @ (inertia.j @ w_o)
    tm, w, pi = _flat(t_o), _flat(w_o), _flat(pi_o)
    for _ in range(2000):
        tm, w, pi, _, res = _vi_core(tm, w, pi, None if m is None else _flat(m), inertia, cfg)
        assert res <= cfg.newton_tol
        t_o, w_o, pi_o = oracles.vi_step(t_o, w_o, m, inertia, cfg, pi_o)
    for got, want in ((tm, t_o), (w, w_o), (pi, pi_o)):
        want = np.ravel(want)
        assert np.abs(np.subtract(got, want)).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _half_turn(axis):
    """The exact 180-degree rotation ``2 n n^T - I`` about ``axis``: symmetric
    bit for bit, so its skew part is exactly zero."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return 2.0 * np.outer(n, n) - np.eye(3)


def test_log_kernel_matches_the_numpy_oracle():
    rng = np.random.default_rng(1800)
    rotations = [random_rotation(rng) for _ in range(DRAWS)]
    for _ in range(DRAWS):  # within 1e-3 of pi: the symmetric-part branch
        axis, _ = random_axis_angle(rng)
        rotations.append(exp_so3(rng.uniform(np.pi - 1e-3, np.pi) * axis))
    for rot in rotations:
        got, want = _log_kernel(_flat(rot)), oracles.log_so3(rot)
        assert np.abs(np.subtract(got, want)).max() <= 1e-14
    # exactly 180 degrees: no skew part to fix the sign, so the axis's largest
    # entry is positive whichever of +-n the rotation was built from
    for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -2, 2], [-1, -2, 2], [0, -3, 1]):
        rot = _half_turn(axis)
        got, want = np.array(_log_kernel(_flat(rot))), oracles.log_so3(rot)
        assert np.abs(got - want).max() <= 1e-14
        n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        n *= np.sign(n[np.argmax(np.abs(n))])
        assert np.abs(got - np.pi * n).max() <= 1e-14


def _g(f, j, chord, c=None):
    """The left side ``G(f)`` of the step equation, on numpy from its
    definition (``variational`` module docstring); the arc's ``c`` may be
    held fixed."""
    theta = np.linalg.norm(f)
    jf = j @ f
    x = np.cross(f, jf)
    if chord:
        return np.sin(theta) / theta * jf + (1.0 - np.cos(theta)) / theta**2 * x
    if c is None:
        c = 1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return jf + 0.5 * x + c * np.cross(f, x)


@pytest.mark.parametrize("measure", ["chord", "arc"])
def test_newton_jacobian_matches_central_differences(measure):
    # the VI step's closed-form Newton Jacobian against central differences
    # of G; a wrong Jacobian still converges, only slower, so the step's own
    # residual check cannot see it
    chord, h = measure == "chord", 1e-5
    rng = np.random.default_rng(1900 + chord)
    for _ in range(DRAWS):
        j = _inertia(rng)
        axis, _ = random_axis_angle(rng)
        f = rng.uniform(0.05, 2.5) * axis
        theta = float(np.linalg.norm(f))
        # arc: c held at its value at f, as in the closed form
        c = None if chord else 1.0 / theta**2 - (1.0 + np.cos(theta)) / (
            2.0 * theta * np.sin(theta))
        fd = np.column_stack([(_g(f + h * e, j, chord, c) - _g(f - h * e, j, chord, c))
                              / (2.0 * h) for e in np.eye(3)])
        got = _newton_jacobian(_flat(f), _flat(j), _flat(j @ f), _flat(np.cross(f, j @ f)),
                               _sinc(theta), _sinc(0.5 * theta), chord)
        assert np.abs(np.reshape(got, (3, 3)) - fd).max() <= 1e-8 * np.abs(fd).max()


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_symmetric_eigenvalues_and_inverse_match_numpy(rng, scale):
    # the float eigenvalues and inverse that validate the scenario types, on
    # random SPD and inertia matrices at any magnitude; diagonal ones exactly
    for _ in range(DRAWS):
        for m in (scale * _spd(rng), scale * _inertia(rng)):
            rows = tuple(m.ravel().tolist())
            lams = np.linalg.eigvalsh(m)
            np.testing.assert_allclose(_eigvalsh3(rows), lams, rtol=0.0, atol=TOL * lams[-1])
            if scale == 1.0:
                inv = np.linalg.inv(m)
                np.testing.assert_allclose(np.reshape(_inverse3(rows), (3, 3)), inv, rtol=0.0,
                                           atol=TOL * np.linalg.cond(m) * np.abs(inv).max())
        d = scale * rng.uniform(0.5, 3.0, size=3)
        rows = tuple(np.diag(d).ravel().tolist())
        assert _eigvalsh3(rows) == tuple(sorted(d.tolist()))
        if scale == 1.0:
            assert _inverse3(rows) == tuple(np.diag(1.0 / d).ravel().tolist())
