"""Geometric rigid-body simulation and control.

A structure-preserving variational integrator on SO(3), backstepping
tracking controllers for attitude and full quadrotor position/attitude, a
blade-element/momentum-theory rotor model, and a batch scenario runner.
"""

from . import (  # noqa: F401
    attitude_control,
    errors,
    quadrotor,
    references,
    rigid_body,
    rotor_aero,
    runner,
    scenario,
    so3,
    timeseries,
    variational,
)
from .rigid_body import (  # noqa: F401
    InertiaTensor,
    QuadrotorParams,
    RigidBodyState,
)
from .runner import run  # noqa: F401
from .scenario import Scenario, parse_scenario  # noqa: F401
from .timeseries import MetricsSummary, TimeSeries, write_outputs  # noqa: F401
from .variational import IntegratorConfig, simulate, vi_step  # noqa: F401

__version__ = "0.1.0"
