"""Tabular simulation records and deterministic CSV/JSON writers.

Numbers are written with Python's shortest round-trip ``repr`` so output
files are byte-identical across runs and parse back to the exact values.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path

# rows per encoded CSV block (and per send of a streamed run); each row's float
# objects are made and dropped in turn, so one block's text is all the encoder holds
_CSV_BLOCK_ROWS = 256


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


def _csv_chunks(names, blocks):
    """The CSV of the column ``names`` and the float rows of each of ``blocks``
    as ascii blocks: the header line, then the rows ``_CSV_BLOCK_ROWS`` at a
    time, each line ended by a newline."""
    yield (",".join(names) + "\n").encode("ascii")
    width, size = len(names), len(names) * _CSV_BLOCK_ROWS
    for data in blocks:
        for start in range(0, len(data), size):
            text = list(map(repr, data[start:start + size]))
            yield "".join([",".join(text[i:i + width]) + "\n"
                           for i in range(0, len(text), width)]).encode("ascii")


def series_to_csv_bytes(series: TimeSeries) -> bytes:
    return b"".join(_csv_chunks(series.names, [series.data]))


def metrics_to_json_bytes(metrics: MetricsSummary) -> bytes:
    return (json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n").encode("ascii")


def _temp(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextlib.contextmanager
def _forked(fn):
    """Run ``fn()`` in a forked child while the ``with`` body runs; the body
    gets ``result()``, the child's value or its exception re-raised.  Leaving
    the block kills the child if it still runs, and always reaps it."""
    import signal  # here, so that a run which starts no child does not load it
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # never returns into the caller's stack, writes nothing to stdio
        try:
            try:
                out = fn(), None
            except BaseException as exc:  # re-raised by the parent
                out = None, exc
            with open(w, "wb") as pipe:
                pickle.dump(out, pipe)
        finally:
            os._exit(0)
    os.close(w)
    with open(r, "rb") as pipe:
        def result():
            value, exc = pickle.load(pipe)  # the whole pipe, before the child is reaped
            if exc is not None:
                raise exc
            return value
        try:
            yield result
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _CsvStream:
    """The run's end of a writer child (:func:`csv_writer`): a call sends the
    column names once, then the rows of the record that were not sent yet."""

    def __init__(self, pipe, result):
        self.pipe, self.result, self.sent = pipe, result, None

    def __call__(self, names, data: array) -> None:
        if self.sent is None:
            pickle.dump(tuple(names), self.pipe)
        self.pipe.write(data[self.sent or 0:])
        self.pipe.flush()  # so a dead child's pipe is never written on close
        self.sent = len(data)


@contextlib.contextmanager
def csv_writer(csv_path):
    """A forked child that encodes a record into the temporary CSV file of
    ``csv_path`` while the run goes on; the body gets the ``_CsvStream`` that
    feeds it, for :func:`write_outputs` to finish.  Leaving the block reaps
    the child and removes the temporary file unless it was renamed."""
    tmp, (r, w) = _temp(Path(csv_path)), os.pipe()
    with open(r, "rb") as source, open(w, "wb") as pipe, open(tmp, "wb") as out:
        def encode():  # the child
            pipe.close()
            try:
                names = pickle.load(source)
                size = 8 * len(names) * _CSV_BLOCK_ROWS
                out.writelines(_csv_chunks(names, iter(lambda: array("d", source.read(size)),
                                                       array("d"))))
                out.flush()
            finally:  # a failed encode still drains the pipe, so the run never meets it closed
                while source.read(1 << 16):
                    pass

        try:
            with _forked(encode) as result:
                source.close()
                yield _CsvStream(pipe, result)
        finally:
            tmp.unlink(missing_ok=True)


def write_outputs(series: TimeSeries, metrics: MetricsSummary, csv_path, metrics_path,
                  stream: _CsvStream | None = None) -> None:
    """Write the CSV time series and JSON metrics summary.

    The metrics are encoded first.  Then the CSV is streamed block by block
    into a temporary file beside its target (or by the writer child of a
    ``stream``), the metrics go into another, and both are renamed into
    place, so a failed encode or write leaves no partial file behind.
    """
    metrics_bytes = metrics_to_json_bytes(metrics)
    targets = (Path(csv_path), Path(metrics_path))
    csv_tmp, metrics_tmp = temps = [_temp(p) for p in targets]
    try:
        if stream is None:
            with open(csv_tmp, "wb") as out:
                out.writelines(_csv_chunks(series.names, [series.data]))
        else:  # the last rows, then the wait for the child to write them
            stream(series.names, series.data)
            stream.pipe.close()
            stream.result()
        metrics_tmp.write_bytes(metrics_bytes)
        for tmp, path in zip(temps, targets):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
