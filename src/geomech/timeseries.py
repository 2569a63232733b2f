"""Column-oriented simulation records and deterministic CSV/JSON writers.

Numbers are written with Python's shortest round-trip ``repr`` so output
files are byte-identical across runs and parse back to the exact values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class TimeSeries:
    """Equal-length named columns; ``t`` is strictly increasing with
    constant spacing."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        self.columns = {
            name: np.asarray(col, dtype=float) for name, col in self.columns.items()
        }

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def vector(self, prefix: str) -> np.ndarray:
        """Stack ``prefix_x/_y/_z`` columns into an (N, 3) array."""
        return np.column_stack(
            [self.columns[f"{prefix}_{ax}"] for ax in ("x", "y", "z")]
        )


@dataclass
class MetricsSummary:
    """Scalar per-run summary; fields that do not apply to a scenario kind
    are ``None`` and serialise to JSON ``null``."""

    energy_drift_max_rel: float | None = None
    momentum_drift_max: float | None = None
    orthogonality_defect_max: float | None = None
    settling_time_5pct: float | None = None
    settled: bool = False
    steady_state_error: float | None = None
    newton_iters_mean: float | None = None
    extras: dict[str, float | None] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "energy_drift_max_rel": self.energy_drift_max_rel,
            "momentum_drift_max": self.momentum_drift_max,
            "orthogonality_defect_max": self.orthogonality_defect_max,
            "settling_time_5pct": self.settling_time_5pct,
            "settled": self.settled,
            "steady_state_error": self.steady_state_error,
            "newton_iters_mean": self.newton_iters_mean,
        }
        out.update(self.extras)
        for key, value in out.items():
            if value is not None and not isinstance(value, bool):
                if not np.isfinite(value):
                    raise ValueError(f"metric {key} is not finite: {value}")
                out[key] = float(value)
        return out


def series_to_csv_bytes(series: TimeSeries) -> bytes:
    names = list(series.columns)
    lines = [",".join(names)]
    cols = [series.columns[n] for n in names]
    for i in range(len(series)):
        lines.append(",".join(repr(float(col[i])) for col in cols))
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_csv_bytes(data: bytes) -> TimeSeries:
    lines = data.decode("ascii").strip().split("\n")
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    arr = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return TimeSeries({name: arr[:, j] for j, name in enumerate(names)})


def metrics_to_json_bytes(metrics: MetricsSummary) -> bytes:
    return (json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n").encode(
        "ascii"
    )


def write_outputs(
    series: TimeSeries, metrics: MetricsSummary, csv_path, metrics_path
) -> None:
    """Write the CSV time series and JSON metrics summary.

    Both payloads are encoded before any file is opened, then written to
    temporary files beside their targets and renamed into place, so a failed
    encode or write leaves no partial file behind.
    """
    payloads = {
        Path(csv_path): series_to_csv_bytes(series),
        Path(metrics_path): metrics_to_json_bytes(metrics),
    }
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in payloads}
    try:
        for path, data in payloads.items():
            temps[path].write_bytes(data)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
