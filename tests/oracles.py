"""Independent oracles of the library's per-step laws.

The numpy forms of the attitude torque law, the rotational rates, the
Newton-Schulz polar factor, the attitude RK4 stage loop and the SO(3)
logarithm are kept as they were before the library moved each law onto one
Python-float kernel; the parity tests compare the float kernels with them.  ``rk4_step`` is the
generic RK4 step on a flat state vector that the quadrotor step is checked
against.  ``aero_wrench`` sums the four rotors' loads into the body wrench
with 3-vectors and ``np.cross``, the check of the runner's float assembly.
The ``composed_`` rotor functions are the rotor layer as it was composed
before ``rotor_aero.rotor_wrench`` became one float kernel: a function per
coefficient polynomial, ``induced_velocity``, the coupled-load Newton solve
as its own function, and the hover root recomputing its constants per call.
The rotor kernel and the hover calibration must return their floats bit for
bit.
``vi_step`` is the numpy body-frame variational step, the many-step check of
the library's float core ``variational._vi_core``.  ``storage_function`` is
the array route to the attitude run's ``V_storage`` column.

The space-frame covector route is the second derivation of the variational
step's discrete Lagrange-d'Alembert equation (Marsden & West, Acta Numerica
2001; Lee, Leok & McClamroch, CMAME 2007).  For a step from ``T_k`` to
``T_{k+1}``, the midpoint attitude ``T_mid`` is the polar mean of the
endpoints, with symmetric positive-definite factor ``V`` satisfying
``T_k + T_{k+1} = V T_mid``; the relative rotation
``R_rel = T_{k+1} T_k^T = exp_so3(psi)`` carries the space-frame step vector
``psi``, and the midpoint body rate is ``omega_mid = T_mid^T psi / dt``.
Differentiating the step kinetic energy ``dt/2 * omega_mid . J omega_mid``
with respect to space-frame endpoint variations yields the two one-sided
momentum covectors, ``theta_minus`` at the lower node and ``theta_plus`` at
the upper one (arc measure; ``_momentum_covector`` takes either measure).
Both hold spatial angular momentum and agree on every pair, which is why
the free flow conserves ``T J omega``.  External moments enter through the
two force covectors of ``discrete_forces``.  ``variational.vi_step`` solves
the same equation in the body frame in closed form; the tests check that
every step it returns satisfies ``theta_minus - dt f_minus = pi_k`` and
``pi_{k+1} = pi_k + dt (f_plus + f_minus)`` on this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geomech.attitude_control import (ANTIPODAL_TOL, _quad_form, attitude_error_psi,
                                      attitude_error_vector)
from geomech.errors import (AntipodalError, NoConvergenceError, ScenarioValidationError,
                            ZeroRotorSpeedError)
from geomech.quadrotor import ROTOR_SPIN, rotor_positions, rotor_thrusts
from geomech.rigid_body import InertiaTensor
from geomech.rotor_aero import (HOVER_THRUST_MAX_FRAC, HOVER_THRUST_MIN_FRAC, RotorGeometry,
                                hover_rotor_speed, rotor_wrench)
from geomech.so3 import (
    Array, _check_step_angle, _sinc, exp_so3, hat, tilde,
)
from geomech.variational import IntegratorConfig

_EYE3 = np.eye(3)


def cross3(a, b):
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def log_so3(r):
    """Rotation vector of ``r`` with ``|result| <= pi``, on numpy: the
    generic branch ``vee(r - r^T) / (2 a(theta))``, and near 180 degrees the
    axis from the dominant column of the symmetric part, its sign fixed by
    the residual skew component (at exactly 180 degrees, the largest entry
    positive)."""
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    norm_w = np.linalg.norm(w)  # == 2 sin(theta)
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    theta = np.arctan2(norm_w, trace - 1.0)
    if theta > np.pi - 1e-3:
        # nn^T = (sym(r) - cos(theta) I) / (1 - cos(theta))
        c = 0.5 * (trace - 1.0)
        b = (0.5 * (r + r.T) - c * _EYE3) / (1.0 - c)
        i = int(np.argmax(np.diag(b)))
        n = b[:, i] / np.sqrt(b[i, i])
        if w @ n < 0.0:
            n = -n
        elif abs(w @ n) == 0.0 and (n[np.argmax(np.abs(n))] < 0.0):
            n = -n  # deterministic sign at exactly 180 degrees
        return theta * n
    return w / (2.0 * _sinc(theta)[0])


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


def omega_target(r, ref, gains):
    """Virtual rate command ``-P e_R + R^T R_d Omega_d``."""
    return -gains.P @ attitude_error_vector(r, ref.R_d) + r.T @ (ref.R_d @ ref.Omega_d)


def storage_function(r, omega, ref, gains) -> float:
    """Diagnostic value ``k_R psi + 0.5 e . S e`` with ``e = Omega - Omega_target``."""
    e = omega - omega_target(r, ref, gains)
    return gains.k_R * attitude_error_psi(r, ref.R_d) + 0.5 * _quad_form(gains.s_rows, e.tolist())


def rates(R, Om, m_body, jj, jinv):
    return R @ hat(Om), jinv @ (m_body - cross3(Om, jj @ Om))


def polar_svd(m):
    """Polar factor ``U V^T`` of ``m`` (``det m > 0``) from its SVD."""
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def fast_polar(m):
    e = m.T @ m - _EYE3
    if np.abs(e).max() > 1e-4:
        return polar_svd(m)
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


def aero_wrench(model, r_mat, v, omega, f_cmd, q_cmd):
    """Body force and moment of the rotor model ``model`` (a
    ``runner._AeroModel``) at attitude ``r_mat``, velocity ``v`` and body
    rate ``omega`` for the command ``(f_cmd, q_cmd)``.

    The mixed thrusts are clipped to the calibration's range and inverted
    for the shaft speeds.  The hub velocities are ``v + R (Omega x arm)``,
    formed as matrix products.  Each rotor's force ``(-H d, T)`` and moment
    ``spin (R_roll d, -Q)``, with ``d`` the unit in-plane hub velocity in the
    body frame, are summed with ``arm x f``.  ``rotor_wrench`` gives the
    per-rotor loads.
    """
    arms = np.array(rotor_positions(model.params.arm_length))
    thrusts = np.clip(rotor_thrusts(f_cmd, q_cmd, model.params.arm_length, model.kappa),
                      *model.calibration.thrust_range)
    hubs = v[:, None] + r_mat @ (hat(omega) @ arms.T)
    body = r_mat.T @ hubs
    force, moment = np.zeros(3), np.zeros(3)
    for i, (arm, spin, thrust) in enumerate(zip(arms, ROTOR_SPIN, thrusts)):
        omega_rotor = hover_rotor_speed(model.geom, thrust, model.rho)
        t, h, q, roll = rotor_wrench(model.geom, model.rho, np.hypot(*hubs[:2, i]), hubs[2, i],
                                     omega_rotor, thrust)
        d = np.array([body[0, i], body[1, i], 0.0])
        norm = np.linalg.norm(d)
        d = d / norm if norm > 1e-9 else np.zeros(3)
        f = -h * d + np.array([0.0, 0.0, t])
        force += f
        moment += spin * (roll * d - np.array([0.0, 0.0, q])) + np.cross(arm, f)
    return force, moment


_MAX_LOAD_ITERS = 100


def composed_induced_velocity(geom: RotorGeometry, rho: float, v_horiz: float,
                              load: float) -> float:
    half_v2 = 0.5 * v_horiz**2
    loading = load / (2.0 * rho * geom.disk_area)
    return math.sqrt(half_v2 + math.sqrt(half_v2**2 + loading**2))


def composed_thrust_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return geom.solidity * geom.lift_slope * (
        (1.0 / 6.0 + 0.25 * mu * mu) * geom.theta0
        - (1.0 + mu * mu) * geom.theta_tw / 8.0
        - lam / 4.0
    )


def composed_hub_force_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return geom.solidity * geom.lift_slope * (
        mu * geom.cd_bar / (4.0 * geom.lift_slope)
        + 0.25 * lam * mu * (geom.theta0 - geom.theta_tw / 2.0)
    )


def composed_torque_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return geom.solidity * geom.lift_slope * (
        (1.0 + mu * mu) * geom.cd_bar / (8.0 * geom.lift_slope)
        + lam * (geom.theta0 / 6.0 - geom.theta_tw / 8.0 - lam / 4.0)
    )


def composed_roll_moment_coefficient(geom: RotorGeometry, lam: float, mu: float) -> float:
    return -geom.solidity * geom.lift_slope * mu * (
        geom.theta0 / 6.0 - geom.theta_tw / 8.0 - lam / 8.0
    )


def composed_rotor_wrench(
    geom: RotorGeometry, rho: float, v_horiz: float, z_dot: float, omega: float, load: float
) -> tuple[float, float, float, float]:
    if not omega > 0.0:
        raise ZeroRotorSpeedError("omega_rotor must be > 0")
    tip = omega * geom.radius
    mu = v_horiz / tip
    pressure = rho * geom.disk_area * tip**2
    load = composed_coupled_load(geom, rho, v_horiz, z_dot, tip, pressure, load)
    lam = (composed_induced_velocity(geom, rho, v_horiz, load) - z_dot) / tip
    return (
        composed_thrust_coefficient(geom, lam, mu) * pressure,
        composed_hub_force_coefficient(geom, lam, mu) * pressure,
        composed_torque_coefficient(geom, lam, mu) * pressure * geom.radius,
        composed_roll_moment_coefficient(geom, lam, mu) * pressure * geom.radius,
    )


def composed_coupled_load(geom: RotorGeometry, rho: float, v_horiz: float, z_dot: float,
                          tip: float, pressure: float, load: float) -> float:
    """Root of ``r(L) = C - k nu1(L) - L`` by bracketed Newton from ``load``;
    the derivation is in ``rotor_aero.rotor_wrench``'s docstring."""
    two_rho_a = 2.0 * rho * geom.disk_area
    half_v2 = 0.5 * v_horiz**2
    k = 0.25 * geom.solidity * geom.lift_slope * rho * geom.disk_area * tip
    c = composed_thrust_coefficient(geom, -z_dot / tip, v_horiz / tip) * pressure
    r0 = c - k * v_horiz
    lo, hi = (0.0, c) if r0 > 0.0 else (-(k / math.sqrt(two_rho_a) + math.sqrt(-r0)) ** 2, 0.0)
    tol = 1e-12 * (hi - lo)
    load = min(max(load, lo), hi)
    for _ in range(_MAX_LOAD_ITERS):
        q = load / two_rho_a
        s = math.sqrt(half_v2**2 + q * q)
        nu1 = math.sqrt(half_v2 + s)
        r = c - k * nu1 - load
        if r == 0.0:
            return load
        lo, hi = (load, hi) if r > 0.0 else (lo, load)
        # -r'(L) = 1 + k nu1'(L); nu1' is unbounded at V = L = 0
        drop = 1.0 + k * q / (2.0 * two_rho_a * nu1 * s) if nu1 * s > 0.0 else 0.0
        new = load + r / drop if drop != 0.0 else load
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - load) <= tol:
            return new
        load = new
    raise NoConvergenceError(
        f"induced-velocity solve failed to converge (V={v_horiz!r}, "
        f"z_dot={z_dot!r}, tip speed={tip!r}, last load {load!r})"
    )


def composed_hover_rotor_speed(geom: RotorGeometry, thrust: float, rho: float) -> float:
    if not thrust > 0.0:
        raise ScenarioValidationError([("thrust", "hover calibration needs thrust > 0")])
    b = geom.theta0 / 6.0 - geom.theta_tw / 8.0
    if not b > 0.0:
        raise ScenarioValidationError([("theta_tw", "hover needs theta0/6 - theta_tw/8 > 0")])
    sa_rho_a = geom.solidity * geom.lift_slope * rho * geom.disk_area
    nu_q = 0.25 * math.sqrt(thrust / (2.0 * rho * geom.disk_area))
    return (nu_q + math.sqrt(nu_q**2 + 4.0 * b * thrust / sa_rho_a)) / (2.0 * b * geom.radius)


def composed_calibration(geom: RotorGeometry, rho: float, hover_thrust: float,
                         thrusts) -> list[tuple[float, float]]:
    """``HoverCalibration(geom, rho, hover_thrust)(thrusts)``: each thrust
    saturated to the actuator range, with its hover shaft speed."""
    lo, hi = HOVER_THRUST_MIN_FRAC * hover_thrust, HOVER_THRUST_MAX_FRAC * hover_thrust
    return [((t := min(max(thrust, lo), hi)), composed_hover_rotor_speed(geom, t, rho))
            for thrust in thrusts]


def vi_step(t_k, omega_k, moment, inertia: InertiaTensor, cfg: IntegratorConfig, pi_k):
    """One body-frame variational step on numpy: ``(T_{k+1}, omega_{k+1},
    pi_{k+1})``.  Newton on ``G(f) - dt^2 F_minus(f, M) = dt T_k^T pi_k`` from
    ``f = dt omega_k`` with the closed-form Jacobian of ``G`` and
    ``np.linalg.solve``; ``moment = None`` is free motion."""
    dt, jj = cfg.dt, inertia.j
    chord = cfg.step_measure == "chord"
    target = dt * (t_k.T @ pi_k)
    f = dt * omega_k
    for _ in range(cfg.max_iters + 1):
        theta2 = float(f @ f)
        _check_step_angle(theta2)
        theta = math.sqrt(theta2)
        half_a, half_d = _sinc(0.5 * theta)
        jf = jj @ f
        fxjf = cross3(f, jf)
        if chord:
            a, da = _sinc(theta)
            b, db = 0.5 * half_a * half_a, 0.25 * half_a * half_d
            res = a * jf + b * fxjf - target
        else:
            c = -0.25 * half_d / half_a
            res = jf + 0.5 * fxjf + c * cross3(f, fxjf) - target
        if moment is not None:
            quarter = 0.25 * theta
            tau = 0.25 * _sinc(quarter)[0] / math.cos(quarter)
            res = res - (dt * dt) * (0.5 * (moment + tau * cross3(f, moment)))
        if float(np.abs(res).max()) / dt <= cfg.newton_tol:
            break
        f_hat = hat(f)
        d_fxjf = f_hat @ jj - hat(jf)  # derivative of f x J f
        if chord:
            jac = a * jj + b * d_fxjf + np.outer(da * jf + db * fxjf, f)
        else:
            jac = jj + 0.5 * d_fxjf + c * (f_hat @ d_fxjf - hat(fxjf))
        f = f - np.linalg.solve(jac, res)
    else:
        raise NoConvergenceError(f"no convergence in {cfg.max_iters} iterations")
    t_k1 = t_k @ exp_so3(f)
    pi_k1 = pi_k if moment is None else pi_k + dt * (t_k @ (exp_so3(0.5 * f) @ moment))
    return t_k1, inertia.j_inv @ (t_k1.T @ pi_k1), pi_k1


@dataclass
class MidpointQuantities:
    """Per-interval geometric quantities shared by the momentum covectors.

    ``Y_k = T_k T_mid^T`` and ``Y_k1 = T_{k+1} T_mid^T`` are the half-step
    transforms; ``F_mat`` is the symmetric factor relating variations of
    ``psi`` to space-frame variations of ``R_rel``:
    ``F = ((|psi| cos|psi| - sin|psi|)/|psi|^3) psi psi^T + (sin|psi|/|psi|) I``.
    """

    T_mid: Array
    V: Array
    R_rel: Array
    psi: Array
    omega_mid: Array
    Y_k: Array
    Y_k1: Array
    F_mat: Array


def _f_matrix(psi: Array) -> Array:
    a, d = _sinc(math.sqrt(float(psi @ psi)))
    return d * np.outer(psi, psi) + a * _EYE3


def midpoint_quantities(t_k: Array, t_k1: Array, dt: float) -> MidpointQuantities:
    """Midpoint attitude, polar factor, step vector, and variation factors
    for the interval ``[T_k, T_{k+1}]``."""
    t_k1 = np.asarray(t_k1, dtype=float)
    psi = log_so3(t_k1 @ t_k.T)
    _check_step_angle(float(psi @ psi))
    t_mid = exp_so3(0.5 * psi) @ t_k
    return MidpointQuantities(
        T_mid=t_mid,
        V=(t_k + t_k1) @ t_mid.T,
        R_rel=exp_so3(psi),
        psi=psi,
        omega_mid=(t_mid.T @ psi) / dt,
        Y_k=t_k @ t_mid.T,
        Y_k1=t_k1 @ t_mid.T,
        F_mat=_f_matrix(psi),
    )


def _momentum_covector(
    mids: MidpointQuantities,
    inertia: InertiaTensor,
    upper: bool,
    measure: str = "arc",
) -> Array:
    """Spatial momentum covector at the lower (``upper=False``) or upper node.

    For ``measure="chord"`` the step vector and its variation pick up the
    factors of the map ``psi -> 2 sin(|psi|/2) psi/|psi|``.
    """
    v_t = tilde(mids.V)
    g = 0.5 * np.linalg.solve(mids.F_mat, tilde(mids.R_rel))
    if measure == "arc":
        psi_eff = mids.psi
        omega_eff = mids.omega_mid
    else:
        # 2 sin(|psi|/2)/|psi| = a(|psi|/2), with derivative over |psi| d(|psi|/2)/4
        scale, dscale = _sinc(0.5 * math.sqrt(float(mids.psi @ mids.psi)))
        dscale *= 0.25
        psi_eff = scale * mids.psi
        omega_eff = scale * mids.omega_mid
        g = (scale * _EYE3 + dscale * np.outer(mids.psi, mids.psi)) @ g
    w = mids.T_mid @ (inertia.j @ omega_eff)
    if upper:
        a = hat(psi_eff) @ np.linalg.solve(v_t, tilde(mids.Y_k1)) + g
    else:
        a = g @ mids.R_rel - hat(psi_eff) @ np.linalg.solve(v_t, tilde(mids.Y_k))
    return a.T @ w


def theta_minus(t_k: Array, t_k1: Array, dt: float, inertia: InertiaTensor) -> Array:
    """One-sided discrete momentum at the lower node of ``[T_k, T_{k+1}]``
    (arc measure)."""
    return _momentum_covector(
        midpoint_quantities(t_k, t_k1, dt), inertia, upper=False, measure="arc"
    )


def theta_plus(t_km1: Array, t_k: Array, dt: float, inertia: InertiaTensor) -> Array:
    """One-sided discrete momentum at the upper node of ``[T_{k-1}, T_k]``
    (arc measure)."""
    return _momentum_covector(
        midpoint_quantities(t_km1, t_k, dt), inertia, upper=True, measure="arc"
    )


def discrete_forces(
    m_minus_half: Array,
    m_plus_half: Array,
    mids_before: MidpointQuantities,
    mids_after: MidpointQuantities,
) -> tuple[Array, Array]:
    """Discrete force covectors at a node flanked by two intervals.

    ``m_minus_half`` is the space-frame moment sampled on the earlier
    interval (whose quantities are ``mids_before``), ``m_plus_half`` on the
    later one.  Each output uses its own interval's ``V`` and the half-step
    transform that touches the shared node.
    """
    m_minus_half = np.asarray(m_minus_half, dtype=float)
    m_plus_half = np.asarray(m_plus_half, dtype=float)
    f_plus = tilde(mids_before.Y_k1).T @ np.linalg.solve(
        tilde(mids_before.V), m_minus_half
    )
    f_minus = tilde(mids_after.Y_k).T @ np.linalg.solve(tilde(mids_after.V), m_plus_half)
    return f_plus, f_minus
