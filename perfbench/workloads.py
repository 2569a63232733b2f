"""Seeded scenario families and the correctness gates applied to every run.

Each workload turns a seed into one scenario JSON document for the
``geomech`` CLI.  The program only ever sees that document; the seed,
the parameter ranges and the step count stay on the benchmark's side.
Ranges are fixed here once and are never narrowed to hide a failing
seed: a seed whose run fails is counted as a failure.  Why each workload
exists is stated in ``BENCHMARK.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Acceptance-criterion bounds that apply at any run length.
VI_DRIFT_MAX = 1e-6          # energy and spatial-momentum drift (criteria 2, 3)
VI_ORTHO_MAX = 1e-10         # orthogonality defect (criterion 2)
STORAGE_INCREASE_MAX = 1e-9  # per-step storage increase (criterion 5)


def _uniform_rotation(rng: random.Random) -> list[list[float]]:
    """Haar-uniform rotation matrix from a normalised Gaussian quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(x * x for x in q))
    w, x, y, z = (v / n for v in q)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def _unit_vector(rng: random.Random) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _jitter(rng: random.Random, centre: float, half_width: float) -> float:
    return rng.uniform(centre - half_width, centre + half_width)


# ------------------------------------------------------------- generators

COMPARE_STEPS, COMPARE_DT = 2000, 0.01
ATTITUDE_STEPS, ATTITUDE_DT = 2000, 1e-4
QUAD_STEPS, QUAD_DT = 1500, 1e-3


def _compare_doc(rng: random.Random) -> dict:
    speed = rng.uniform(0.5, 2.0)
    return {
        "kind": "integrator_compare",
        "dt": COMPARE_DT,
        "t_final": COMPARE_STEPS * COMPARE_DT,
        "inertia": [rng.uniform(1.5, 3.0) for _ in range(3)],
        "initial": {
            "T": _uniform_rotation(rng),
            "omega": [speed * c for c in _unit_vector(rng)],
        },
    }


def _attitude_doc(rng: random.Random) -> dict:
    # The loop starts near-antipodal, like the shipped scenario, but on the
    # side where the reference roll moves the error away from 180 degrees.
    # Starting short of 180 degrees (roll pi - d, as shipped) makes the error
    # cross the antipodal set, and at this commit 9 of 100 such seeds land a
    # stage inside the law's 1e-12 window there and stop with AntipodalError.
    return {
        "kind": "attitude_track",
        "dt": ATTITUDE_DT,
        "t_final": ATTITUDE_STEPS * ATTITUDE_DT,
        "inertia": [3.0, 2.0, 1.0],
        "initial": {
            "T": None,
            "omega": [rng.uniform(-0.05, 0.05) for _ in range(3)],
        },
        "gains": {"P": [3.0, 2.0, 1.0], "F": [3.0, 2.0, 1.0], "k_R": 1.0, "S": 1.0},
        "reference": {
            "roll": [math.pi + rng.uniform(0.002, 0.02), _jitter(rng, 0.5, 0.1),
                     _jitter(rng, 0.0, 0.05)],
            "pitch": [0.0, _jitter(rng, 0.0, 0.1), _jitter(rng, 0.1, 0.05)],
            "yaw": [0.0, _jitter(rng, -0.5, 0.1), _jitter(rng, 0.2, 0.05)],
        },
    }


def _quad_aero_doc(rng: random.Random) -> dict:
    # Every seed gets the shipped quad_track_aero scenario, unperturbed.  At
    # this commit the aero closed loop diverges (negative thrust) for a share
    # of every neighbourhood of the shipped inputs that was tried: 2 in 100
    # draws within +-5 cm of the start, +-0.05 m amplitude, +-0.01 rad/s rate
    # and +-0.02 rad heading; 3 in 20 starts within +-0.2 m; about half within
    # +-0.5 m.  A seeded family would fail on the loop's stability instead of
    # measuring its cost.
    return {
        "kind": "quad_track",
        "dt": QUAD_DT,
        "t_final": QUAD_STEPS * QUAD_DT,
        "vehicle": {"mass": 4.34, "inertia": [0.084, 0.085, 0.12],
                    "arm_length": 0.315, "g": 9.81},
        "initial": {"r": [0.0, 3.0, -4.0], "v": [0.0, 0.0, 0.0], "R": None,
                    "Omega": [0.0, 0.0, 0.0]},
        "position_gains": {"A": 1.0, "B": 2.0, "C": 1.0, "D": 6.0},
        "attitude_gains": {"P": 16.0, "F": [0.672, 0.68, 0.96], "k_R": 1.0, "S": 1.0},
        "reference": {"amplitude": 4.0, "omega": 0.5, "b_1d": [1.0, 0.0, 0.0]},
        "aero": {
            "enabled": True,
            "rho": 1.225,
            "geometry": {"n_blades": 2, "chord": 0.02, "radius": 0.15, "lift_slope": 5.7,
                         "theta0": 0.2, "theta_tw": 0.04, "cd_bar": 0.01},
        },
    }


# ------------------------------------------------------------------ gates

_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}
COMPARE_GATES = (("energy_drift_max_rel", "<", VI_DRIFT_MAX),
                 ("momentum_drift_max", "<", VI_DRIFT_MAX),
                 ("orthogonality_defect_max", "<", VI_ORTHO_MAX))
ATTITUDE_GATES = (("storage_max_increase", "<=", STORAGE_INCREASE_MAX),)
QUAD_GATES = (("thrust_negative_count", "==", 0),)


def gate_violations(gates, metrics: dict) -> list[str]:
    """The gates a run's metrics break; a missing or null metric breaks its gate."""
    out = []
    for key, op, bound in gates:
        value = metrics.get(key)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and _OPS[op](value, bound)):
            out.append(f"{key}={value!r} not {op} {bound:g}")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # CLI subcommand
    steps: int        # simulated steps of one full-length run
    make: Callable[[random.Random], dict]
    gates: tuple      # (metric, operator, bound) from the acceptance criteria

    def scenario(self, seed: int, index: int = 0) -> dict:
        """Scenario ``index`` of the ``seed``'s draw."""
        return self.make(random.Random(f"{self.name}:{seed}:{index}"))

    def scenario_bytes(self, seed: int, index: int = 0) -> bytes:
        doc = self.scenario(seed, index)
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def output_names(self, stem: str) -> tuple[str, str]:
        suffix = "_compare" if self.command == "compare" else ""
        return f"{stem}{suffix}.csv", f"{stem}{suffix}.metrics.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("integrator_compare", "compare", COMPARE_STEPS,
                 _compare_doc, COMPARE_GATES),
        Workload("attitude_track", "run", ATTITUDE_STEPS,
                 _attitude_doc, ATTITUDE_GATES),
        Workload("quad_track_aero", "run", QUAD_STEPS,
                 _quad_aero_doc, QUAD_GATES),
    )
}


# ----------------------------------------------------------- output check


class OutputError(Exception):
    """A run's outputs are missing, malformed, or violate a gate."""


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def check_outputs(workload: Workload, csv_path: Path, metrics_path: Path,
                  rows: int) -> tuple[dict, str]:
    """Validate one run's CSV and metrics; return the metrics and a digest
    of both files' bytes.  Raises :class:`OutputError` on any defect."""
    try:
        csv_bytes = csv_path.read_bytes()
        metrics_bytes = metrics_path.read_bytes()
    except OSError as exc:
        raise OutputError(f"missing output: {exc}") from None
    try:
        metrics = json.loads(metrics_bytes, parse_constant=_reject_constant)
    except ValueError as exc:
        raise OutputError(f"metrics JSON unparsable: {exc}") from None
    if not isinstance(metrics, dict):
        raise OutputError("metrics JSON is not an object")
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise OutputError(f"metric {key} is not finite")

    try:
        table = list(csv.reader(io.StringIO(csv_bytes.decode("ascii"))))
        width = len(table[0])
        values = [float(v) for row in table[1:] for v in row]
    except (UnicodeDecodeError, IndexError, ValueError) as exc:
        raise OutputError(f"CSV unparsable: {exc}") from None
    if len(table) - 1 != rows:
        raise OutputError(f"CSV has {len(table) - 1} rows, expected {rows}")
    if any(len(row) != width for row in table):
        raise OutputError("CSV rows are ragged")
    if not all(math.isfinite(v) for v in values):
        raise OutputError("CSV holds a non-finite value")

    violations = gate_violations(workload.gates, metrics)
    if violations:
        raise OutputError("gate violated: " + "; ".join(violations))
    digest = hashlib.sha256(csv_bytes + b"\0" + metrics_bytes).hexdigest()
    return metrics, digest
