"""Quadrotor position/attitude tracking: translational backstepping, thrust
extraction, commanded attitude construction, and the rotor mixer.

The outer loop turns position/velocity errors into an inertial force
command ``m dv_target/dt - m G - D (v - v_target)``.  Its direction defines
the commanded body z-axis; a user heading hint ``b_1d`` pins the remaining
yaw freedom.  The scalar thrust is the projection of the force command on
the *current* body z-axis and is reported unclamped (a negative value flags
an infeasible command instead of silently saturating).  The inner loop is
the attitude controller tracking the commanded attitude, whose angular rate
and acceleration are estimated by backward differences across controller
ticks (they have no closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attitude_control import _require_spd, _torque_kernel
from .errors import DegenerateHeadingError, DivergenceError, ZeroForceError
from .rigid_body import _Rows
from .so3 import _EYE, Array, _log_kernel


@dataclass
class PositionGains:
    """Translational gains: A/C weight the storage function, B shapes the
    velocity command, D the force feedback.  Each is held as ``a_rows`` to
    ``d_rows`` (row-major floats) and read as an array."""

    A: Array = _Rows((3, 3), _EYE)
    B: Array = _Rows((3, 3), tuple(2.0 * x for x in _EYE))
    C: Array = _Rows((3, 3), _EYE)
    D: Array = _Rows((3, 3), tuple(6.0 * x for x in _EYE))

    def __post_init__(self):
        self.a_rows = _require_spd(self.a_rows, "A")
        self.b_rows = _require_spd(self.b_rows, "B")
        self.c_rows = _require_spd(self.c_rows, "C")
        self.d_rows = _require_spd(self.d_rows, "D")


def _velocity_target(r, r_d, v_d, b) -> tuple[float, float, float]:
    """``v_d - B (r - r_d)`` on floats (``B`` row-major); on ``(v, v_d, a_d)``
    it is the target's analytic derivative ``a_d - B (v - v_d)``."""
    e0, e1, e2 = r[0] - r_d[0], r[1] - r_d[1], r[2] - r_d[2]
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (v_d[0] - (b0 * e0 + b1 * e1 + b2 * e2), v_d[1] - (b3 * e0 + b4 * e1 + b5 * e2),
            v_d[2] - (b6 * e0 + b7 * e1 + b8 * e2))


def _force_kernel(r, v, r_d, v_d, a_d, mass: float, g: float, b, d) -> tuple:
    """The translational law on floats: ``m dv_target/dt - m G - D (v - v_target)``
    with ``G = (0, 0, -g)`` and ``B``, ``D`` row-major."""
    t0, t1, t2 = _velocity_target(r, r_d, v_d, b)
    a0, a1, a2 = _velocity_target(v, v_d, a_d, b)
    e0, e1, e2 = v[0] - t0, v[1] - t1, v[2] - t2
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = d
    return (mass * a0 - (d0 * e0 + d1 * e1 + d2 * e2), mass * a1 - (d3 * e0 + d4 * e1 + d5 * e2),
            mass * a2 + mass * g - (d6 * e0 + d7 * e1 + d8 * e2))


def _thrust(force, R) -> float:
    """Projection of the force on the body z column of ``R`` (row-major)."""
    return force[0] * R[2] + force[1] * R[5] + force[2] * R[8]


def _attitude_kernel(force, b_1d) -> tuple:
    """The commanded attitude on floats, row-major: ``b3`` along the force,
    ``b1`` the hint projected onto the plane normal to it, ``b2 = b3 x b1``.
    Raises ``ZeroForceError`` for a vanishing force and
    ``DegenerateHeadingError`` for a hint within 1e-4 rad of its axis."""
    f0, f1, f2 = force
    norm = math.sqrt(f0 * f0 + f1 * f1 + f2 * f2)
    if norm == math.inf:  # float overflow is not trapped
        raise DivergenceError("state diverged: overflow in the force command")
    if norm <= 1e-8:
        raise ZeroForceError(f"force command norm {norm:.3e} cannot define an attitude")
    z0, z1, z2 = f0 / norm, f1 / norm, f2 / norm
    h0, h1, h2 = b_1d
    dot = z0 * h0 + z1 * h1 + z2 * h2
    p0, p1, p2 = h0 - dot * z0, h1 - dot * z1, h2 - dot * z2  # = -b3 x (b3 x b_1d)
    proj_norm = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
    if proj_norm < 1e-4:
        raise DegenerateHeadingError(f"heading hint within {proj_norm:.1e} rad of the thrust axis")
    x0, x1, x2 = p0 / proj_norm, p1 / proj_norm, p2 / proj_norm
    return (x0, z1 * x2 - z2 * x1, z0,
            x1, z2 * x0 - z0 * x2, z1,
            x2, z0 * x1 - z1 * x0, z2)


# Plus configuration: rotors 0/2 on the body x arm spin with +z, rotors 1/3
# on the y arm spin with -z; reaction torques alternate accordingly.
ROTOR_SPIN = (1.0, -1.0, 1.0, -1.0)


def rotor_positions(arm_length: float) -> tuple:
    """The four rotor hubs in the body frame, as float 3-tuples."""
    d = float(arm_length)
    return (d, 0.0, 0.0), (0.0, d, 0.0), (-d, 0.0, 0.0), (0.0, -d, 0.0)


def rotor_thrusts(thrust: float, moment, arm_length: float, kappa: float) -> tuple:
    """Invert the plus-configuration mixer: the four rotor thrusts realising
    the collective thrust and body moment (a 3-sequence), with yaw authority
    ``kappa`` (N m of shaft reaction per N of rotor thrust)."""
    f4 = thrust / 4.0
    mx = moment[0] / (2.0 * arm_length)
    my = moment[1] / (2.0 * arm_length)
    # reaction torque on the body opposes each rotor's spin direction, so
    # positive yaw loads the negative-spin pair
    mz = moment[2] / (4.0 * kappa)
    return f4 - my - mz, f4 + mx + mz, f4 + my - mz, f4 - mx + mz


@dataclass
class ControllerMemory:
    """Backward-difference history for the commanded-attitude rates: the
    previous commanded attitude, a ``(3, 3)`` array (the operand of the tick's
    one numpy product), and the previous rate, a float tuple."""

    r_c_prev: Array | None = None
    omega_c_prev: tuple | None = None


def tracking_step(x, ref, mass: float, g: float, b, d, jj, p, f_gain, b_1d, dt: float,
                  memory: ControllerMemory) -> tuple:
    """One controller tick on floats at the plant state ``x = (r, v, R, Omega)``
    (``R`` row-major) and the reference row ``ref = (r_d, v_d, a_d)``, with
    the constants converted once per run (``B``, ``D``, ``J``, ``P``, ``F``
    row-major): returns the thrust scalar ``f`` and the torque kernel's
    ``(q, e_R, e_Omega, 1 + tr E)``.

    ``memory`` carries the previous commanded attitude and rate so the
    inner loop's feedforward can be formed by backward differences at the
    tick period ``dt``.  Tick 0 has neither and uses zero rate and
    acceleration; tick 1 has the first rate estimate but no earlier one to
    difference it against, so the first two ticks have zero acceleration
    feedforward.
    """
    r, v, R, Om = x
    force = _force_kernel(r, v, ref[:3], ref[3:6], ref[6:], mass, g, b, d)
    r_c = _attitude_kernel(force, b_1d)

    # R_c,prev^T R_c is numpy's product, which may fuse multiply-adds, so the
    # public log_so3(R_prev.T @ R_c) / dt gives this rate bit for bit
    import numpy as np
    r_c_mat = np.array(r_c).reshape(3, 3)
    omega_c = omega_c_dot = (0.0, 0.0, 0.0)
    if memory.r_c_prev is not None:
        w0, w1, w2 = _log_kernel((memory.r_c_prev.T @ r_c_mat).ravel().tolist())
        o0, o1, o2 = omega_c = w0 / dt, w1 / dt, w2 / dt
        if memory.omega_c_prev is not None:
            p0, p1, p2 = memory.omega_c_prev
            omega_c_dot = (o0 - p0) / dt, (o1 - p1) / dt, (o2 - p2) / dt
        memory.omega_c_prev = omega_c  # an estimate: tick 0's zero rate is not one
    memory.r_c_prev = r_c_mat

    # r_c is built orthonormal; the torque kernel refuses an antipodal error
    return (_thrust(force, R),
            *_torque_kernel(R, r_c, omega_c, omega_c_dot, Om, jj, p, f_gain))


def translational_storage(r: Array, v: Array, r_d: Array, v_d: Array,
                          gains: PositionGains) -> Array:
    """Diagnostic ``0.5 e_r . A e_r + 0.5 ev . C ev`` of each row of the
    ``(n, 3)`` positions, velocities and their references, with
    ``e_r = r - r_d`` and ``ev = v - v_target`` (:func:`_velocity_target`).

    The stacked matmuls give each row the bits of the one-row products.
    """
    e_r = r - r_d
    ev = v - (v_d - (gains.B @ e_r[:, :, None])[:, :, 0])
    return (0.5 * (e_r[:, None, :] @ (gains.A @ e_r[:, :, None]))[:, 0, 0]
            + 0.5 * (ev[:, None, :] @ (gains.C @ ev[:, :, None]))[:, 0, 0])
