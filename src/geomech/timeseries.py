"""Tabular simulation records and deterministic CSV/JSON writers.

Numbers are written with Python's shortest round-trip ``repr`` so output
files are byte-identical across runs and parse back to the exact values.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
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
    is strictly increasing with constant spacing.  :meth:`column` and
    :meth:`vector` read it back as numpy arrays."""

    names: tuple[str, ...]
    data: array

    def __len__(self) -> int:
        return len(self.data) // len(self.names)

    def floats(self, name: str) -> array:
        """The named column as floats."""
        return self.data[self.names.index(name)::len(self.names)]

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


class _CsvStream:
    """The run's end of a writer child (:func:`csv_writer`): a call sends the
    CSV header line once, then the rows of the record that were not sent yet."""

    def __init__(self, pipe, verdict):
        self.pipe, self.verdict, self.sent = pipe, verdict, None

    def __call__(self, names, data: array) -> None:
        if self.sent is None:
            self.pipe.write((",".join(names) + "\n").encode("ascii"))
        self.pipe.write(data[self.sent or 0:])
        self.pipe.flush()  # so a dead child's pipe is never written on close
        self.sent = len(data)

    def result(self) -> None:
        """Close the rows pipe and wait for the child's verdict: re-raise its
        failure, or raise ``ChildProcessError`` if it ended without one."""
        import pickle
        self.pipe.close()
        try:
            exc = pickle.load(self.verdict)  # the whole pipe, before the child is reaped
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError("the child process ended without its result") from None
        if exc is not None:
            raise exc


@contextlib.contextmanager
def csv_writer(csv_path):
    """A forked child that encodes a record into the temporary CSV file of
    ``csv_path`` while the run goes on; the body gets the ``_CsvStream`` that
    feeds it, for :func:`write_outputs` to finish.  The child reads the
    column names from the header line, encodes the rows that follow until the
    pipe closes, and pickles one verdict: ``None`` or its exception.  Leaving
    the block kills the child if it still runs, reaps it and removes the
    temporary file unless it was renamed."""
    import pickle  # here, so that a run which starts no child loads neither
    import signal
    tmp, (r, w), (verdict_r, verdict_w) = _temp(Path(csv_path)), os.pipe(), os.pipe()
    try:
        with open(r, "rb") as source, open(w, "wb") as pipe, open(verdict_r, "rb") as verdict, \
                open(verdict_w, "wb") as answer, open(tmp, "wb") as out:
            pid = os.fork()
            if pid == 0:  # never returns into the caller's stack, writes nothing to stdio
                try:
                    pipe.close()
                    exc = None
                    try:
                        names = source.readline().decode("ascii")[:-1].split(",")
                        size = 8 * len(names) * _CSV_BLOCK_ROWS
                        out.writelines(_csv_chunks(names, iter(
                            lambda: array("d", source.read(size)), array("d"))))
                        out.flush()
                    except BaseException as error:  # re-raised by the parent
                        exc = error
                    while source.read(1 << 16):  # a failed encode still drains the pipe,
                        pass                     # so the run never meets it closed
                    pickle.dump(exc, answer)
                    answer.close()
                finally:
                    os._exit(0)
            source.close()
            answer.close()
            try:
                yield _CsvStream(pipe, verdict)
            finally:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
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
            stream.result()
        metrics_tmp.write_bytes(metrics_bytes)
        for tmp, path in zip(temps, targets):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
