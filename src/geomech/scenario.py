"""Scenario files: JSON descriptions of batch simulation runs.

A scenario is a JSON object with a ``kind`` discriminator
(``free_body``, ``attitude_track``, ``quad_track``, or
``integrator_compare``), timing fields, and kind-specific sections.  All
quantities are SI with angles in radians.  Matrices may be given as a
scalar (multiple of the identity), a 3-list (diagonal), or a full 3x3
nested list.  Parsing validates every field and reports *all* violations
at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .attitude_control import AttitudeGains
from .errors import ScenarioParseError, ScenarioValidationError
from .quadrotor import PositionGains
from .references import AnglePolynomial, CircleCoeffs, Euler321Coeffs
from .rigid_body import InertiaTensor, QuadrotorParams, QuadrotorState, RigidBodyState
from .rotor_aero import RotorGeometry
from .so3 import Array

KINDS = ("free_body", "attitude_track", "quad_track", "integrator_compare")

_DEFAULT_DT = {
    "free_body": 0.01,
    "integrator_compare": 0.01,
    "attitude_track": 1e-4,
    "quad_track": 1e-3,
}
_DEFAULT_T_FINAL = {
    "free_body": 10.0,
    "integrator_compare": 10.0,
    "attitude_track": 20.0,
    "quad_track": 20.0,
}

# The run loops size their tables up front, one row per step.
MAX_STEPS = 10**8


def step_count_error(dt: float, t_final: float) -> str | None:
    """Why a run of ``round(t_final / dt)`` steps is refused, or ``None``.

    ``dt`` must be finite and positive and ``t_final`` finite.
    """
    steps = t_final / dt
    if math.isfinite(steps) and round(steps) <= MAX_STEPS:
        return None
    return f"t_final={t_final!r} and dt={dt!r} make more than {MAX_STEPS} steps"


@dataclass
class AeroConfig:
    enabled: bool = False
    rho: float = 1.225
    geometry: RotorGeometry = field(default_factory=RotorGeometry)


@dataclass
class Scenario:
    """Validated, fully defaulted simulation description."""

    kind: str
    dt: float
    t_final: float
    # rigid-body kinds
    inertia: InertiaTensor | None = None
    initial: RigidBodyState | None = None
    moment: Array | None = None
    newton_tol: float = 1e-12
    max_iters: int = 50
    step_measure: str = "chord"
    attitude_gains: AttitudeGains | None = None
    euler_coeffs: Euler321Coeffs | None = None
    # quadrotor kind
    vehicle: QuadrotorParams | None = None
    quad_initial: QuadrotorState | None = None
    position_gains: PositionGains | None = None
    circle_coeffs: CircleCoeffs | None = None
    aero: AeroConfig = field(default_factory=AeroConfig)
    # output file names (relative to the CLI --out-dir)
    csv_name: str | None = None
    metrics_name: str | None = None


def _as_matrix(value, name, collect) -> Array | None:
    """Scalar -> scalar*I, 3-list -> diag, 3x3 nested -> full."""
    try:
        if isinstance(value, (int, float)):
            return float(value) * np.eye(3)
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        collect.append((name, "must be a scalar, 3-list, or 3x3 matrix"))
        return None
    if arr.shape == (3,):
        return np.diag(arr)
    if arr.shape == (3, 3):
        return arr
    collect.append((name, f"bad shape {arr.shape}; expected scalar, 3-list, or 3x3"))
    return None


def _as_vec3(value, name, collect, default=None) -> Array | None:
    if value is None:
        return default
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        collect.append((name, "must be a 3-vector"))
        return None
    if arr.shape != (3,) or not np.all(np.isfinite(arr)):
        collect.append((name, "must be a finite 3-vector"))
        return None
    return arr


def _as_rotation(value, name, collect) -> Array | None:
    if value is None:
        return np.eye(3)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        collect.append((name, "must be a 3x3 rotation matrix or null"))
        return None
    if arr.shape != (3, 3):
        collect.append((name, f"bad shape {arr.shape}; expected 3x3"))
        return None
    return arr


def _angle_poly(value, name, collect) -> AnglePolynomial:
    if value is None:
        return AnglePolynomial()
    try:
        coeffs = [float(v) for v in value]
    except (TypeError, ValueError):
        collect.append((name, "must be a list of 1 to 3 polynomial coefficients"))
        return AnglePolynomial()
    if not 1 <= len(coeffs) <= 3:
        collect.append((name, "must have 1 to 3 coefficients [a0, a1, a2]"))
        return AnglePolynomial()
    coeffs += [0.0] * (3 - len(coeffs))
    return AnglePolynomial(*coeffs)


def parse_scenario(text: bytes | str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ``ScenarioParseError`` for malformed JSON (with position) and
    ``ScenarioValidationError`` listing every violated invariant otherwise.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"line {exc.lineno}, column {exc.colno} (char {exc.pos}): {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("top-level value must be an object")

    violations: list[tuple[str, str]] = []

    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioValidationError(
            [("kind", f"must be one of {KINDS}, got {kind!r}")]
        )

    def number(name, default, positive=True, minimum=None):
        value = doc.get(name, default)
        try:
            value = float(value)
        except (TypeError, ValueError):
            violations.append((name, "must be a number"))
            return default
        if not math.isfinite(value):
            violations.append((name, "must be finite"))
            return default
        if positive and not value > 0.0:
            violations.append((name, "> 0"))
        if minimum is not None and value < minimum:
            violations.append((name, f">= {minimum}"))
        return value

    dt = number("dt", _DEFAULT_DT[kind])
    t_final = number("t_final", _DEFAULT_T_FINAL[kind], positive=False, minimum=0.0)
    if t_final > 0.0 and t_final < dt:
        violations.append(("t_final", ">= dt (or 0 for a single record)"))
    elif dt > 0.0 and (too_many := step_count_error(dt, t_final)):
        violations.append(("t_final", too_many))

    scenario = Scenario(kind=kind, dt=dt, t_final=t_final)
    scenario.csv_name = doc.get("csv_name")
    scenario.metrics_name = doc.get("metrics_name")

    integ = doc.get("integrator", {})
    if not isinstance(integ, dict):
        violations.append(("integrator", "must be an object"))
        integ = {}
    scenario.newton_tol = float(integ.get("newton_tol", 1e-12))
    scenario.max_iters = int(integ.get("max_iters", 50))
    scenario.step_measure = str(integ.get("step_measure", "chord"))
    if not scenario.newton_tol > 0.0:
        violations.append(("integrator.newton_tol", "> 0"))
    if scenario.max_iters < 1:
        violations.append(("integrator.max_iters", ">= 1"))
    if scenario.step_measure not in ("chord", "arc"):
        violations.append(("integrator.step_measure", "must be 'chord' or 'arc'"))

    initial = doc.get("initial", {})
    if not isinstance(initial, dict):
        violations.append(("initial", "must be an object"))
        initial = {}

    if kind in ("free_body", "integrator_compare", "attitude_track"):
        inertia_m = _as_matrix(doc.get("inertia", [1.0, 1.0, 1.0]), "inertia", violations)
        if inertia_m is not None:
            try:
                scenario.inertia = InertiaTensor(inertia_m)
            except ScenarioValidationError as exc:
                violations.extend(exc.violations)
        t0 = _as_rotation(initial.get("T"), "initial.T", violations)
        omega0 = _as_vec3(initial.get("omega"), "initial.omega", violations, np.zeros(3))
        if t0 is not None and omega0 is not None:
            try:
                scenario.initial = RigidBodyState(t0, omega0)
            except (ScenarioValidationError, Exception) as exc:
                violations.append(("initial", str(exc)))
        scenario.moment = _as_vec3(doc.get("moment"), "moment", violations)

    if kind == "attitude_track":
        gains = doc.get("gains", {})
        if not isinstance(gains, dict):
            violations.append(("gains", "must be an object"))
            gains = {}
        # P and F default to the inertia tensor itself
        default_pf = scenario.inertia.j if scenario.inertia is not None else 1.0
        p = _as_matrix(gains.get("P", default_pf), "gains.P", violations)
        f = _as_matrix(gains.get("F", default_pf), "gains.F", violations)
        s = _as_matrix(gains.get("S", 1.0), "gains.S", violations)
        k_r = float(gains.get("k_R", 1.0))
        if p is not None and f is not None and s is not None:
            try:
                scenario.attitude_gains = AttitudeGains(P=p, F=f, k_R=k_r, S=s)
            except ScenarioValidationError as exc:
                violations.extend([(f"gains.{fld}", msg) for fld, msg in exc.violations])
        ref = doc.get("reference", {})
        if not isinstance(ref, dict):
            violations.append(("reference", "must be an object"))
            ref = {}
        scenario.euler_coeffs = Euler321Coeffs(
            roll=_angle_poly(ref.get("roll"), "reference.roll", violations),
            pitch=_angle_poly(ref.get("pitch"), "reference.pitch", violations),
            yaw=_angle_poly(ref.get("yaw"), "reference.yaw", violations),
        )

    if kind == "quad_track":
        veh = doc.get("vehicle", {})
        if not isinstance(veh, dict):
            violations.append(("vehicle", "must be an object"))
            veh = {}
        inertia_m = _as_matrix(veh.get("inertia", [0.084, 0.085, 0.12]), "vehicle.inertia", violations)
        inertia = None
        if inertia_m is not None:
            try:
                inertia = InertiaTensor(inertia_m)
            except ScenarioValidationError as exc:
                violations.extend([(f"vehicle.{fld}", msg) for fld, msg in exc.violations])
        if inertia is not None:
            try:
                scenario.vehicle = QuadrotorParams(
                    mass=float(veh.get("mass", 4.34)),
                    inertia=inertia,
                    arm_length=float(veh.get("arm_length", 0.315)),
                    g=float(veh.get("g", 9.81)),
                )
            except ScenarioValidationError as exc:
                violations.extend([(f"vehicle.{fld}", msg) for fld, msg in exc.violations])
        r0 = _as_vec3(initial.get("r"), "initial.r", violations, np.zeros(3))
        v0 = _as_vec3(initial.get("v"), "initial.v", violations, np.zeros(3))
        rot0 = _as_rotation(initial.get("R"), "initial.R", violations)
        om0 = _as_vec3(initial.get("Omega"), "initial.Omega", violations, np.zeros(3))
        if all(x is not None for x in (r0, v0, rot0, om0)):
            try:
                scenario.quad_initial = QuadrotorState(r0, v0, rot0, om0)
            except (ScenarioValidationError, Exception) as exc:
                violations.append(("initial", str(exc)))
        pg = doc.get("position_gains", {})
        if not isinstance(pg, dict):
            violations.append(("position_gains", "must be an object"))
            pg = {}
        mats = {}
        for name, default in (("A", 1.0), ("B", 2.0), ("C", 1.0), ("D", 6.0)):
            m = _as_matrix(pg.get(name, default), f"position_gains.{name}", violations)
            if m is not None:
                mats[name] = m
        if len(mats) == 4:
            try:
                scenario.position_gains = PositionGains(**mats)
            except ScenarioValidationError as exc:
                violations.extend(
                    [(f"position_gains.{fld}", msg) for fld, msg in exc.violations]
                )
        ag = doc.get("attitude_gains", {})
        if not isinstance(ag, dict):
            violations.append(("attitude_gains", "must be an object"))
            ag = {}
        p = _as_matrix(ag.get("P", 16.0), "attitude_gains.P", violations)
        default_f = (8.0 * inertia.j) if inertia is not None else 1.0
        f = _as_matrix(ag.get("F", default_f), "attitude_gains.F", violations)
        s = _as_matrix(ag.get("S", 1.0), "attitude_gains.S", violations)
        if p is not None and f is not None and s is not None:
            try:
                scenario.attitude_gains = AttitudeGains(
                    P=p, F=f, k_R=float(ag.get("k_R", 1.0)), S=s
                )
            except ScenarioValidationError as exc:
                violations.extend(
                    [(f"attitude_gains.{fld}", msg) for fld, msg in exc.violations]
                )
        ref = doc.get("reference", {})
        if not isinstance(ref, dict):
            violations.append(("reference", "must be an object"))
            ref = {}
        b_1d = _as_vec3(ref.get("b_1d"), "reference.b_1d", violations, np.array([1.0, 0.0, 0.0]))
        scenario.circle_coeffs = CircleCoeffs(
            amplitude=float(ref.get("amplitude", 4.0)),
            omega=float(ref.get("omega", 0.5)),
            b_1d=tuple(b_1d) if b_1d is not None else (1.0, 0.0, 0.0),
        )
        if abs(np.linalg.norm(np.asarray(scenario.circle_coeffs.b_1d)) - 1.0) > 1e-9:
            violations.append(("reference.b_1d", "must be a unit vector"))
        aero = doc.get("aero", {})
        if not isinstance(aero, dict):
            violations.append(("aero", "must be an object"))
            aero = {}
        geometry = aero.get("geometry", {})
        if not isinstance(geometry, dict):
            violations.append(("aero.geometry", "must be an object"))
            geometry = {}
        try:
            geom = RotorGeometry(**geometry)
        except (ScenarioValidationError, TypeError) as exc:
            violations.append(("aero.geometry", str(exc)))
            geom = RotorGeometry()
        # checked whether or not aero is enabled: `--aero on` can enable it later
        if not geom.theta0 / 6.0 - geom.theta_tw / 8.0 > 0.0:
            violations.append(("aero.geometry", "theta0/6 - theta_tw/8 must be > 0 "
                               "(the blades make no hover thrust at any speed)"))
        rho = float(aero.get("rho", 1.225))
        if not rho > 0.0:
            violations.append(("aero.rho", "> 0"))
        scenario.aero = AeroConfig(
            enabled=bool(aero.get("enabled", False)), rho=rho, geometry=geom
        )

    if violations:
        raise ScenarioValidationError(violations)
    return scenario
