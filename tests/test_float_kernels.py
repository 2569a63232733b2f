"""The Python-float kernels of the per-step laws against their numpy oracles
(``oracles.py``) on derandomized draws."""

import numpy as np
import pytest

import oracles
from geomech.attitude_control import _torque_kernel
from geomech.rigid_body import _attitude_rk4_core, _fast_polar, _rates

from conftest import random_rotation

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
        # the runner's form (stage 1 reuses the recorded torque) and the public one
        for q1 in (float_torque(t, tm, w), None):
            got = _attitude_rk4_core(tm, w, jj, jinv, float_torque, t, dt, q1)
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
        tm, w = _attitude_rk4_core(tm, w, jj, jinv, float_torque, t, d["dt"],
                                   float_torque(t, tm, w))
        t_o, w_o = oracles.attitude_rk4_core(t_o, w_o, d["J"], d["J_inv"], oracle_torque, t,
                                             d["dt"], oracle_torque(t, t_o, w_o))
    np.testing.assert_allclose(np.reshape(tm, (3, 3)), t_o, atol=1e-11, rtol=0.0)
    np.testing.assert_allclose(w, w_o, atol=1e-11 * max(1.0, np.abs(w_o).max()), rtol=0.0)
