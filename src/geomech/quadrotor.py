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

from dataclasses import dataclass, field

import numpy as np

from .attitude_control import (
    AttitudeGains,
    AttitudeReference,
    _require_spd,
    _torque_kernel,
)
from .errors import DegenerateHeadingError, ZeroForceError
from .rigid_body import QuadrotorParams, QuadrotorState, _floats
from .references import TrajectoryReference
from .so3 import Array, cross3, log_so3

# re-exported: the vehicle constants live with the plant model
__all__ = [
    "QuadrotorParams",
    "PositionGains",
    "ControllerMemory",
    "TrackingDiagnostics",
    "velocity_target",
    "force_command",
    "thrust_scalar",
    "commanded_attitude",
    "rotor_thrusts",
    "rotor_positions",
    "ROTOR_SPIN",
    "tracking_step",
    "translational_storage",
]


@dataclass
class PositionGains:
    """Translational gains: A/C weight the storage function, B shapes the
    velocity command, D the force feedback."""

    A: Array = field(default_factory=lambda: np.eye(3))
    B: Array = field(default_factory=lambda: 2.0 * np.eye(3))
    C: Array = field(default_factory=lambda: np.eye(3))
    D: Array = field(default_factory=lambda: 6.0 * np.eye(3))

    def __post_init__(self):
        self.A = _require_spd(self.A, "A")
        self.B = _require_spd(self.B, "B")
        self.C = _require_spd(self.C, "C")
        self.D = _require_spd(self.D, "D")


def velocity_target(r: Array, ref: TrajectoryReference, gains: PositionGains) -> Array:
    """Velocity command ``v_d - B (r - r_d)``."""
    return ref.v_d - gains.B @ (r - ref.r_d)


def force_command(
    r: Array,
    v: Array,
    ref: TrajectoryReference,
    params: QuadrotorParams,
    gains: PositionGains,
) -> Array:
    """Inertial force command ``m dv_target/dt - m G - D (v - v_target)``.

    The command derivative is analytic: ``dv_target/dt = a_d - B (v - v_d)``.
    """
    v_tar = velocity_target(r, ref, gains)
    v_tar_dot = ref.a_d - gains.B @ (v - ref.v_d)
    return (
        params.mass * v_tar_dot
        - params.mass * params.gravity_vector
        - gains.D @ (v - v_tar)
    )


def thrust_scalar(force_cmd: Array, r_mat: Array) -> float:
    """Projection of the force command on the current body z-axis (N)."""
    return float(force_cmd @ r_mat[:, 2])


def commanded_attitude(force_cmd: Array, b_1d: Array) -> Array:
    """Attitude whose third column is the force direction and whose first
    column is the heading hint projected onto the plane normal to it.

    Raises ``ZeroForceError`` for a vanishing command and
    ``DegenerateHeadingError`` when the hint is parallel to the force
    direction (angle below 1e-4 rad).
    """
    norm = np.linalg.norm(force_cmd)
    if norm <= 1e-8:
        raise ZeroForceError(f"force command norm {norm:.3e} cannot define an attitude")
    b3 = force_cmd / norm
    proj = b_1d - (b3 @ b_1d) * b3  # = -b3 x (b3 x b_1d)
    proj_norm = np.linalg.norm(proj)
    if proj_norm < 1e-4:
        raise DegenerateHeadingError(
            f"heading hint within {proj_norm:.1e} rad of the thrust axis"
        )
    b1 = proj / proj_norm
    b2 = cross3(b3, b1)
    return np.column_stack([b1, b2, b3])


# Plus configuration: rotors 0/2 on the body x arm spin with +z, rotors 1/3
# on the y arm spin with -z; reaction torques alternate accordingly.
ROTOR_SPIN = np.array([1.0, -1.0, 1.0, -1.0])


def rotor_positions(arm_length: float) -> Array:
    d = float(arm_length)
    return np.array(
        [[d, 0.0, 0.0], [0.0, d, 0.0], [-d, 0.0, 0.0], [0.0, -d, 0.0]]
    )


def rotor_thrusts(thrust: float, moment: Array, arm_length: float, kappa: float) -> Array:
    """Invert the plus-configuration mixer: per-rotor thrusts realising the
    collective thrust and body moment, with yaw authority ``kappa`` (N m of
    shaft reaction per N of rotor thrust)."""
    d = float(arm_length)
    f4 = thrust / 4.0
    mx = moment[0] / (2.0 * d)
    my = moment[1] / (2.0 * d)
    # reaction torque on the body opposes each rotor's spin direction, so
    # positive yaw loads the negative-spin pair
    mz = moment[2] / (4.0 * kappa)
    return np.array([f4 - my - mz, f4 + mx + mz, f4 + my - mz, f4 - mx + mz])


@dataclass
class ControllerMemory:
    """Backward-difference history for the commanded-attitude rates."""

    r_c_prev: Array | None = None
    omega_c_prev: Array | None = None


@dataclass
class TrackingDiagnostics:
    e_r: Array
    e_v: Array
    psi_command: float
    e_R: Array
    e_Omega: Array
    thrust_negative: bool
    R_c: Array
    Omega_c: Array


def tracking_step(
    state: QuadrotorState,
    ref: TrajectoryReference,
    params: QuadrotorParams,
    gains: PositionGains,
    att_gains: AttitudeGains,
    dt: float,
    memory: ControllerMemory,
) -> tuple[float, Array, TrackingDiagnostics]:
    """One controller tick: thrust scalar, body torque, and diagnostics.

    ``memory`` carries the previous commanded attitude so the inner loop's
    rate feedforward can be formed by backward differences at the tick
    period ``dt``; the first ticks fall back to zero rates.
    """
    force_cmd = force_command(state.r, state.v, ref, params, gains)
    f = thrust_scalar(force_cmd, state.R)
    r_c = commanded_attitude(force_cmd, ref.b_1d)

    if memory.r_c_prev is None:
        omega_c = np.zeros(3)
        omega_c_dot = np.zeros(3)
    else:
        omega_c = log_so3(memory.r_c_prev.T @ r_c) / dt
        if memory.omega_c_prev is None:
            omega_c_dot = np.zeros(3)
        else:
            omega_c_dot = (omega_c - memory.omega_c_prev) / dt
    memory.r_c_prev = r_c
    memory.omega_c_prev = omega_c

    # validates the commanded attitude and rates, as the public torque law's input
    AttitudeReference(r_c, omega_c, omega_c_dot)
    q, e_R, e_Omega, one_plus_tr = _torque_kernel(
        _floats(state.R), _floats(r_c), _floats(omega_c), _floats(omega_c_dot),
        _floats(state.Omega), _floats(params.inertia.j), _floats(att_gains.P),
        _floats(att_gains.F),
    )

    diagnostics = TrackingDiagnostics(
        e_r=state.r - ref.r_d,
        e_v=state.v - ref.v_d,
        psi_command=2.0 - np.sqrt(one_plus_tr),
        e_R=np.array(e_R),
        e_Omega=np.array(e_Omega),
        thrust_negative=f < 0.0,
        R_c=r_c,
        Omega_c=omega_c,
    )
    return f, np.array(q), diagnostics


def translational_storage(
    state: QuadrotorState,
    ref: TrajectoryReference,
    gains: PositionGains,
) -> float:
    """Diagnostic value ``0.5 e_r . A e_r + 0.5 ev . C ev`` with
    ``ev = v - v_target``."""
    e_r = state.r - ref.r_d
    ev = state.v - velocity_target(state.r, ref, gains)
    return 0.5 * float(e_r @ (gains.A @ e_r)) + 0.5 * float(ev @ (gains.C @ ev))
