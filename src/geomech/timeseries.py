"""Tabular simulation records and deterministic CSV/JSON writers.

Numbers are written with Python's shortest round-trip ``repr`` so output
files are byte-identical across runs and parse back to the exact values.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path

# rows per encoded CSV block; each row's float objects are made and dropped in
# turn, so one block's text is all the encoder holds
_CSV_BLOCK_ROWS = 1024


@dataclass
class TimeSeries:
    """A run's record: ``data`` holds its rows one after another as floats,
    one row per step and one column per entry of ``names``; the ``t`` column
    is strictly increasing with constant spacing.  A 2-D ``table`` (a numpy
    array or a list of rows) is accepted in place of ``data``, and
    :attr:`table`, :meth:`column` and :meth:`vector` read back arrays."""

    names: tuple[str, ...]
    data: array

    def __post_init__(self):
        if not isinstance(self.data, array):
            rows = self.data.tolist() if hasattr(self.data, "tolist") else self.data
            if any(len(row) != len(self.names) for row in rows):
                shape = getattr(self.data, "shape", (len(rows), None))
                raise ValueError(f"table shape {shape} does not fit {len(self.names)} names")
            self.data = array("d", [x for row in rows for x in row])

    def __len__(self) -> int:
        return len(self.data) // len(self.names)

    def floats(self, name: str) -> array:
        """The named column as floats."""
        return self.data[self.names.index(name)::len(self.names)]

    @property
    def table(self):
        import numpy as np
        return np.array(self.data).reshape(len(self), len(self.names))

    @property
    def t(self):
        return self.column("t")

    def column(self, name: str):
        """The named column as an array."""
        import numpy as np
        return np.array(self.floats(name))

    def vector(self, prefix: str):
        """Stack ``prefix_x/_y/_z`` columns into an (N, 3) array."""
        import numpy as np
        return np.column_stack([self.column(f"{prefix}_{ax}") for ax in ("x", "y", "z")])


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extras"}
        out.update(self.extras)
        for key, value in out.items():
            if value is not None and not isinstance(value, bool):
                if not math.isfinite(value):
                    raise ValueError(f"metric {key} is not finite: {value}")
                out[key] = float(value)
        return out


def _csv_chunks(series: TimeSeries):
    """The CSV of ``series`` as ascii blocks: the header line, then the rows
    ``_CSV_BLOCK_ROWS`` at a time, each line ended by a newline."""
    yield (",".join(series.names) + "\n").encode("ascii")
    width = len(series.names)
    block = width * _CSV_BLOCK_ROWS
    for start in range(0, len(series.data), block):
        text = list(map(repr, series.data[start:start + block]))
        yield "".join([",".join(text[i:i + width]) + "\n"
                       for i in range(0, len(text), width)]).encode("ascii")


def series_to_csv_bytes(series: TimeSeries) -> bytes:
    return b"".join(_csv_chunks(series))


def metrics_to_json_bytes(metrics: MetricsSummary) -> bytes:
    return (json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n").encode("ascii")


def write_outputs(series: TimeSeries, metrics: MetricsSummary, csv_path, metrics_path) -> None:
    """Write the CSV time series and JSON metrics summary.

    The metrics are encoded first.  Then the CSV is streamed block by block
    into a temporary file beside its target, the metrics go into another, and
    both are renamed into place, so a failed encode or write leaves no
    partial file behind.
    """
    metrics_bytes = metrics_to_json_bytes(metrics)
    targets = (Path(csv_path), Path(metrics_path))
    csv_tmp, metrics_tmp = temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in targets]
    try:
        with open(csv_tmp, "wb") as out:
            out.writelines(_csv_chunks(series))
        metrics_tmp.write_bytes(metrics_bytes)
        for tmp, path in zip(temps, targets):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
