"""Scenario files: JSON descriptions of batch simulation runs.

A scenario is a JSON object with a ``kind`` discriminator
(``free_body``, ``attitude_track``, ``quad_track``, or
``integrator_compare``), timing fields, and kind-specific sections.  All
quantities are SI with angles in radians.  Matrices may be given as a
scalar (multiple of the identity), a 3-list (diagonal), or a full 3x3
nested list.  Every value is a finite JSON number (or list of them), and
``null`` means the default for every field.  Parsing validates every field
and reports *all* violations at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .attitude_control import AttitudeGains
from .errors import GeomechError, ScenarioParseError, ScenarioValidationError
from .quadrotor import PositionGains
from .references import AnglePolynomial, CircleCoeffs, Euler321Coeffs
from .rigid_body import InertiaTensor, QuadrotorParams, RigidBodyState
from .rotor_aero import RotorGeometry
from .so3 import _EYE, _rotation_rows

KINDS = ("free_body", "attitude_track", "quad_track", "integrator_compare")

# default (dt, t_final) of each kind
_DEFAULT_TIMING = {
    "free_body": (0.01, 10.0),
    "integrator_compare": (0.01, 10.0),
    "attitude_track": (1e-4, 20.0),
    "quad_track": (1e-3, 20.0),
}

# A run records one row per step.
MAX_STEPS = 10**8

# (minimum, maximum) of the rotor geometry fields that have an envelope
# (chord and radius in m, lift_slope in 1/rad, theta0 in rad); RotorGeometry
# itself checks signs and the solidity
_GEOMETRY_ENVELOPES = {"chord": {"minimum": 1e-4, "maximum": 1e1},
                       "radius": {"minimum": 1e-3, "maximum": 1e2},
                       "lift_slope": {"minimum": 1e-1, "maximum": 1e2},
                       "theta0": {"maximum": 1.5}}


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
    moment: tuple | None = None  # 3 floats
    newton_tol: float = 1e-12
    max_iters: int = 50
    step_measure: str = "chord"
    attitude_gains: AttitudeGains | None = None
    euler_coeffs: Euler321Coeffs | None = None
    # quadrotor kind
    vehicle: QuadrotorParams | None = None
    quad_initial: tuple | None = None  # (r, v, R row-major, Omega) as float tuples
    position_gains: PositionGains | None = None
    circle_coeffs: CircleCoeffs | None = None
    aero: AeroConfig = field(default_factory=AeroConfig)

    @property
    def steps(self) -> int:
        """The run's step count: ``round(t_final / dt)``, 0 for a single record."""
        return int(round(self.t_final / self.dt)) if self.t_final > 0.0 else 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_array(value) -> tuple[tuple, tuple] | None:
    """The shape and the row-major floats of ``value`` if it is a JSON number,
    or a list of numbers or of lists of numbers, all finite and of regular
    shape; else ``None``."""
    rows = value if isinstance(value, list) else [value]
    nested = [isinstance(row, list) for row in rows]
    leaves = [x for row in rows for x in (row if isinstance(row, list) else [row])]
    if not all(map(_is_number, leaves)) or any(nested) and (
            not all(nested) or len({len(row) for row in rows}) > 1):  # mixed or ragged
        return None
    try:
        flat = tuple(float(x) for x in leaves)
    except OverflowError:  # an integer beyond float range
        return None
    shape = (len(rows), len(rows[0])) if any(nested) else (len(rows),) if rows is value else ()
    return (shape, flat) if all(map(math.isfinite, flat)) else None


class _Fields:
    """One JSON object of a scenario document, read one typed field at a time.

    ``path`` is the dotted prefix of the object's fields (``""``,
    ``"aero.geometry."``).  A reader appends ``(path + key, message)`` to
    the shared ``violations`` list and returns ``None`` for a bad value; a
    missing key and ``null`` both give the default.
    """

    def __init__(self, obj: dict, path: str, violations: list[tuple[str, str]]):
        self.obj, self.path, self.violations = obj, path, violations

    def fail(self, key: str, message: str) -> None:
        self.violations.append((self.path + key, message))

    def section(self, key: str) -> "_Fields":
        value = self.obj.get(key)
        if value is not None and not isinstance(value, dict):
            self.fail(key, "must be an object")
            value = None
        return _Fields(value or {}, f"{self.path}{key}.", self.violations)

    def number(self, key, default, *, positive=False, minimum=None, maximum=None, integer=False):
        value = self.obj.get(key)
        if value is None:
            return default
        if not _is_number(value):
            return self.fail(key, "must be a number")
        if integer and not isinstance(value, int):
            return self.fail(key, "must be an integer")
        if _finite_array(value) is None:  # NaN, +-Infinity, or an integer beyond float range
            return self.fail(key, "must be finite")
        x = float(value)
        if positive and not x > 0.0:
            return self.fail(key, "must be > 0")
        if minimum is not None and x < minimum:
            return self.fail(key, f"must be >= {minimum:g}")
        if maximum is not None and x > maximum:
            return self.fail(key, f"must be <= {maximum:g}")
        return value if integer else x

    def choice(self, key, default, options):
        """One of ``options``, which share the type of ``default``."""
        value = self.obj.get(key)
        if value is None:
            return default
        if type(value) is type(default) and value in options:
            return value
        return self.fail(key, "must be " + " or ".join(map(json.dumps, options)))

    def array(self, key, default: tuple, *, matrix=False, bound=None) -> tuple | None:
        """A finite 3-vector as 3 floats; with ``matrix`` a finite 3x3 matrix
        as 9 row-major floats, given in full, as a diagonal 3-list, or as a
        scalar multiple of the identity.  With ``bound``, every entry must
        lie in ``[-bound, bound]``."""
        value = self.obj.get(key)
        if value is None:
            return default
        shape, arr = _finite_array(value) or (None, None)
        if matrix and shape in ((), (3,)):  # a scalar or a diagonal
            a, b, c = arr * 3 if shape == () else arr
            shape, arr = (3, 3), (a, 0.0, 0.0, 0.0, b, 0.0, 0.0, 0.0, c)
        if shape != ((3, 3) if matrix else (3,)):
            return self.fail(key, "must be a finite scalar, 3-list or 3x3 matrix"
                             if matrix else "must be a finite 3-vector")
        if bound is not None and max(map(abs, arr)) > bound:
            return self.fail(key, f"entries must lie in [-{bound:g}, {bound:g}]")
        return arr

    def polynomial(self, key) -> AnglePolynomial | None:
        """Coefficients ``[a0, a1, a2]`` of an angle signal, trailing ones optional."""
        value = self.obj.get(key)
        if value is None:
            return AnglePolynomial()
        shape, arr = _finite_array(value) or (None, None)
        if shape not in ((1,), (2,), (3,)):
            return self.fail(key, "must be a list of 1 to 3 finite coefficients [a0, a1, a2]")
        if max(map(abs, arr)) > 1e3:  # rad, rad/s, rad/s^2
            return self.fail(key, "coefficients must lie in [-1000, 1000]")
        return AnglePolynomial(*arr)

    def build(self, cls, **kwargs):
        """``cls(**kwargs)``, with the violations it raises named under this
        object; ``None`` if it refuses them or an argument is already
        invalid (``None``)."""
        if any(value is None for value in kwargs.values()):
            return None
        try:
            return cls(**kwargs)
        except ScenarioValidationError as exc:
            self.violations.extend((self.path + fld, msg) for fld, msg in exc.violations)
        except (GeomechError, ArithmeticError) as exc:
            # e.g. an attitude that is no rotation, or entries whose check overflows
            self.violations.append((self.path[:-1] or cls.__name__, str(exc)))
        return None


def _quad_state(r: tuple, v: tuple, R: tuple, Omega: tuple) -> tuple:
    """The initial quad state as the plant's float tuple ``(r, v, R, Omega)``,
    ``R`` row-major; refuses an ``R`` that is no rotation."""
    return r, v, _rotation_rows(R), Omega


def _attitude_gains(gains: _Fields, p: tuple | None, f: tuple | None) -> AttitudeGains | None:
    """Either attitude gains section; ``p`` and ``f`` are the defaults of P and F."""
    return gains.build(AttitudeGains, P=gains.array("P", p, matrix=True, bound=1e6),
                       F=gains.array("F", f, matrix=True),
                       k_R=gains.number("k_R", 1.0, minimum=1e-6, maximum=1e6),
                       S=gains.array("S", _EYE, matrix=True))


def parse_scenario(text: bytes | str, overrides: dict | None = None) -> Scenario:
    """Parse and validate a scenario document.

    ``overrides`` maps field names, top-level (``"dt"``) or one section deep
    (``"aero.enabled"``), to values that replace the document's before it is
    read, so they meet the same rules as the file's own values.  Raises
    ``ScenarioParseError`` for malformed JSON (with position) and
    ``ScenarioValidationError`` listing every violated invariant otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"line {exc.lineno}, column {exc.colno} (char {exc.pos}): {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise ScenarioParseError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ScenarioParseError("top-level value must be an object")
    for name, value in (overrides or {}).items():
        section, _, key = name.rpartition(".")
        if section and doc.get(section) is None:
            doc[section] = {}
        node = doc[section] if section else doc
        if isinstance(node, dict):  # else the reader refuses the section itself
            node[key] = value

    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioValidationError([("kind", f"must be one of {KINDS}, got {kind!r}")])

    violations: list[tuple[str, str]] = []
    root = _Fields(doc, "", violations)
    default_dt, default_t_final = _DEFAULT_TIMING[kind]
    dt = root.number("dt", default_dt, positive=True)
    t_final = root.number("t_final", default_t_final, minimum=0.0)
    if dt is not None and t_final is not None:
        if 0.0 < t_final < dt:
            root.fail("t_final", ">= dt (or 0 for a single record)")
        elif too_many := step_count_error(dt, t_final):
            root.fail("t_final", too_many)

    scenario = Scenario(kind=kind, dt=dt, t_final=t_final)
    integ = root.section("integrator")
    scenario.newton_tol = integ.number("newton_tol", 1e-12, positive=True)
    scenario.max_iters = integ.number("max_iters", 50, minimum=1, integer=True)
    scenario.step_measure = integ.choice("step_measure", "chord", ("chord", "arc"))
    initial = root.section("initial")

    if kind in ("free_body", "integrator_compare", "attitude_track"):
        scenario.inertia = root.build(InertiaTensor, j=root.array("inertia", _EYE, matrix=True))
        scenario.initial = initial.build(
            RigidBodyState,
            T=initial.array("T", _EYE, matrix=True),
            omega=initial.array("omega", (0.0, 0.0, 0.0), bound=1e3),  # rad/s
        )
        scenario.moment = root.array("moment", None)

    if kind == "attitude_track":
        # P and F default to the inertia tensor itself
        j = scenario.inertia.j_rows if scenario.inertia is not None else None
        scenario.attitude_gains = _attitude_gains(root.section("gains"), j, j)
        ref = root.section("reference")
        scenario.euler_coeffs = ref.build(
            Euler321Coeffs, **{axis: ref.polynomial(axis) for axis in ("roll", "pitch", "yaw")}
        )

    if kind == "quad_track":
        veh = root.section("vehicle")
        inertia = veh.build(
            InertiaTensor,
            j=veh.array("inertia", (0.084, 0.0, 0.0, 0.0, 0.085, 0.0, 0.0, 0.0, 0.12), matrix=True)
        )
        scenario.vehicle = veh.build(
            QuadrotorParams,
            mass=veh.number("mass", 4.34, minimum=1e-3, maximum=1e4),
            inertia=inertia,
            arm_length=veh.number("arm_length", 0.315),
            g=veh.number("g", 9.81, minimum=1e-2, maximum=1e3),
        )
        scenario.quad_initial = initial.build(
            _quad_state,
            r=initial.array("r", (0.0, 0.0, 0.0), bound=1e4),  # m
            v=initial.array("v", (0.0, 0.0, 0.0), bound=1e3),  # m/s
            R=initial.array("R", _EYE, matrix=True),
            Omega=initial.array("Omega", (0.0, 0.0, 0.0), bound=1e3),  # rad/s
        )
        pos = root.section("position_gains")
        scenario.position_gains = pos.build(PositionGains, **{
            name: pos.array(name, tuple(scale * x for x in _EYE), matrix=True, bound=1e6)
            for name, scale in (("A", 1.0), ("B", 2.0), ("C", 1.0), ("D", 6.0))
        })
        # an overflowing default F is refused as non-finite
        default_f = tuple(8.0 * x for x in inertia.j_rows) if inertia is not None else None
        scenario.attitude_gains = _attitude_gains(
            root.section("attitude_gains"), tuple(16.0 * x for x in _EYE), default_f
        )
        ref = root.section("reference")
        b_1d = ref.array("b_1d", (1.0, 0.0, 0.0))
        if b_1d is not None and abs(math.hypot(*b_1d) - 1.0) > 1e-9:  # hypot: no overflow
            b_1d = ref.fail("b_1d", "must be a unit vector")
        scenario.circle_coeffs = ref.build(
            CircleCoeffs,
            amplitude=ref.number("amplitude", 4.0, minimum=-1e3, maximum=1e3),
            omega=ref.number("omega", 0.5, minimum=-1e2, maximum=1e2),
            b_1d=b_1d,
        )
        aero = root.section("aero")
        geo = aero.section("geometry")
        geo_fields = fields(RotorGeometry)
        for key in sorted(set(geo.obj) - {fld.name for fld in geo_fields}):
            geo.fail(key, "unknown field")
        geom = geo.build(RotorGeometry, **{
            fld.name: geo.number(fld.name, fld.default, integer=isinstance(fld.default, int),
                                 **_GEOMETRY_ENVELOPES.get(fld.name, {}))
            for fld in geo_fields
        })
        # checked whether or not aero is enabled: `--aero on` can enable it later
        if geom is not None and not geom.theta0 / 6.0 - geom.theta_tw / 8.0 > 0.0:
            aero.fail("geometry", "theta0/6 - theta_tw/8 must be > 0 "
                      "(the blades make no hover thrust at any speed)")
        scenario.aero = AeroConfig(
            enabled=aero.choice("enabled", False, (False, True)),
            rho=aero.number("rho", 1.225, minimum=1e-3, maximum=1e2),
            geometry=geom,
        )
    elif doc.get("aero") is not None:
        # only the quadrotor has rotors: refuse `--aero` or an aero section
        # instead of running without it
        msg = f"kind {kind!r} has no rotors; only quad_track reads aero"
        if isinstance(doc["aero"], dict) and set(doc["aero"]) == {"enabled"}:
            root.section("aero").fail("enabled", msg)
        else:
            root.fail("aero", msg)

    if violations:
        raise ScenarioValidationError(violations)
    return scenario
