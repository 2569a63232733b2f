"""Numpy oracles of the per-step rigid-body laws.

These are the array forms of the attitude torque law, the rotational rates,
the Newton-Schulz polar factor and the attitude RK4 stage loop, kept as they
were before the library moved each law onto one Python-float kernel.  The
parity tests compare the float kernels with them.  ``rk4_step`` is the
generic RK4 step on a flat state vector that the quadrotor step is checked
against.
"""

from __future__ import annotations

import math

import numpy as np

from geomech.attitude_control import ANTIPODAL_TOL
from geomech.errors import AntipodalError
from geomech.so3 import _check_step_angle, hat, polar_project

_EYE3 = np.eye(3)


def cross3(a, b):
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def checked_error_matrix(r, r_d):
    e = r_d.T @ r
    one_plus_tr = 1.0 + e[0, 0] + e[1, 1] + e[2, 2]
    if one_plus_tr < ANTIPODAL_TOL:
        raise AntipodalError(
            f"attitude error at 180 degrees (1 + tr = {one_plus_tr:.3e})"
        )
    return e, one_plus_tr


def error_vector(e, one_plus_tr):
    return np.array(
        [e[2, 1] - e[1, 2], e[0, 2] - e[2, 0], e[1, 0] - e[0, 1]]
    ) / (2.0 * math.sqrt(one_plus_tr))


def torque_kernel(e, one_plus_tr, omega_d, omega_d_dot, omega, jj, p, f):
    """``(q, e_R, e_Omega)`` from ``E = R_d^T R`` and ``1 + tr E``."""
    e_r = error_vector(e, one_plus_tr)
    e_t = e.T
    transported = e_t @ omega_d  # R^T R_d Omega_d
    e_om = omega - transported
    beta_e_om = (
        2.0 * float(e_r @ e_om) * e_r + (one_plus_tr - 1.0) * e_om - e_t @ e_om
    ) / (2.0 * math.sqrt(one_plus_tr))
    return (
        cross3(omega, jj @ omega)
        + jj @ (e_t @ omega_d_dot - cross3(omega, transported) - p @ beta_e_om)
        - f @ (omega + p @ e_r - transported),  # F (Omega - Omega_target)
        e_r,
        e_om,
    )


def rates(R, Om, m_body, jj, jinv):
    return R @ hat(Om), jinv @ (m_body - cross3(Om, jj @ Om))


def fast_polar(m):
    e = m.T @ m - _EYE3
    if np.abs(e).max() > 1e-4:
        return polar_project(m)
    x = m @ (_EYE3 - 0.5 * e + 0.375 * (e @ e))
    e = x.T @ x - _EYE3
    return x @ (_EYE3 - 0.5 * e)


def attitude_rk4_core(t_mat, w, jj, jinv, torque_fn, t, dt, q1=None):
    """One RK4 step of the attitude plant; ``torque_fn(t, T, w)`` on arrays."""
    _check_step_angle(float(w @ w) * (dt * dt), explicit=True)

    def deriv(ti, tm, wi, q=None):
        if q is None:
            tm = fast_polar(tm)
            q = torque_fn(ti, tm, wi)
        return rates(tm, wi, q, jj, jinv)

    k1t, k1w = deriv(t, t_mat, w, q1)
    k2t, k2w = deriv(t + 0.5 * dt, t_mat + 0.5 * dt * k1t, w + 0.5 * dt * k1w)
    k3t, k3w = deriv(t + 0.5 * dt, t_mat + 0.5 * dt * k2t, w + 0.5 * dt * k2w)
    k4t, k4w = deriv(t + dt, t_mat + dt * k3t, w + dt * k3w)
    t_new = t_mat + (dt / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
    w_new = w + (dt / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return fast_polar(t_new), w_new


def rk4_step(rhs, y, t, dt):
    """One classical Runge-Kutta step for a flat state vector."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
