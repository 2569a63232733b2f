"""Span tracer that wraps geomech's layer entry points from outside.

Run as a script, it is the traced child process:

    PYTHONPATH=src python perfbench/tracer.py TRACE_JSON RUN_ID <geomech CLI args...>

It replaces each target attribute in :data:`TARGETS` with a timing wrapper
in the namespace the caller looks it up in (``geomech.runner`` imports most
names into its own module, so that is where they are patched), calls
``geomech.cli.main`` with the given arguments, puts every original back,
and writes the trace as JSON.  Arguments and results pass through the
wrappers untouched, so the run's outputs are byte-identical to an
untraced run.

A target that no longer exists (renamed or deleted by a later change) is
skipped and listed under ``missing``; metrics that need it are left out
instead of being reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute path, one call per simulated step or more)
TARGETS = [
    ("scenario.parse_scenario", "geomech.cli", "parse_scenario", False),
    ("runner.run", "geomech.cli", "run", False),
    ("timeseries.write", "geomech.cli", "write_outputs", False),
    ("timeseries.csv_encode", "geomech.timeseries", "series_to_csv_bytes", False),
    ("timeseries.json_encode", "geomech.timeseries", "metrics_to_json_bytes", False),
    ("variational.simulate", "geomech.runner", "simulate", False),
    ("variational.vi_step", "geomech.variational", "vi_step", True),
    ("runner.attitude_loop", "geomech.runner", "_attitude_loop_numpy", False),
    ("references.euler_321_raw", "geomech.runner", "_euler_321_raw", False),
    ("references.gimbal_proximity", "geomech.runner", "gimbal_proximity", True),
    ("references.circle_reference", "geomech.runner", "circle_reference", True),
    ("rigid_body.attitude_rk4", "geomech.runner", "_attitude_rk4_core", True),
    ("rigid_body.quad_rk4", "geomech.runner", "rk4_quadrotor_step", True),
    ("rigid_body.polar", "geomech.runner", "_fast_polar", True),
    ("rigid_body.polar", "geomech.rigid_body", "_fast_polar", True),
    ("quadrotor.tracking_step", "geomech.runner", "tracking_step", True),
    ("quadrotor.translational_storage", "geomech.runner", "translational_storage", True),
    ("runner.aero_wrench", "geomech.runner", "_AeroModel.wrench", True),
    ("rotor_aero.rotor_wrench", "geomech.runner", "rotor_wrench", True),
    ("rotor_aero.hover_calibration.build", "geomech.runner",
     "HoverCalibration.__init__", False),
    ("rotor_aero.hover_calibration.lookup", "geomech.runner",
     "HoverCalibration.__call__", True),
]

# Spans whose result length is added to the ``bytes_written`` counter.
_ENCODERS = ("timeseries.csv_encode", "timeseries.json_encode")


class Tracer:
    """In-memory spans of one run.

    Calls made once per run are kept as full span records (name, start,
    end, parent id, run id).  Calls made once per step or more are only
    aggregated as count, total and self time per (name, parent name), so
    the trace stays bounded whatever the run length.  Self time is a span's
    duration minus the durations of its direct child spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregate: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, span id, start, child time]
        self._next_id = 0

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, self._next_id, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, keep: bool) -> None:
        end = time.perf_counter()
        name, span_id, start, child = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        key = (name, parent[0] if parent else None)
        agg = self.aggregate.get(key)
        if agg is None:
            agg = self.aggregate[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if keep:
            self.spans.append({
                "id": span_id, "name": name, "parent": parent[1] if parent else None,
                "run": self.run_id, "start": start, "end": end,
            })

    def span(self, name: str, fn, per_step: bool):
        """Wrap ``fn`` so every call records a span named ``name``."""
        tracer, keep = self, not per_step
        counted = name in _ENCODERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keep)
            if counted:
                tracer.counters["bytes_written"] = (
                    tracer.counters.get("bytes_written", 0) + len(result)
                )
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "aggregate": [
                {"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in self.aggregate.items()
            ],
            "counters": self.counters,
        }


def _resolve(module: str, path: str):
    """Return (owner, attribute name) for ``module`` + dotted ``path``, or
    ``None`` when the module or any part of the path does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def install(tracer: Tracer, targets=TARGETS):
    """Patch every resolvable target.  Returns the list :func:`restore`
    needs and the sorted span names that could not be installed anywhere."""
    patched, found, wanted = [], set(), set()
    for name, module, path, per_step in targets:
        wanted.add(name)
        where = _resolve(module, path)
        if where is None:
            continue
        owner, attr = where
        original = vars(owner)[attr]
        setattr(owner, attr, tracer.span(name, original, per_step))
        patched.append((owner, attr, original))
        found.add(name)
    return patched, sorted(wanted - found)


def restore(patched) -> bool:
    """Undo :func:`install`, newest first; True when every original is back."""
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    return all(vars(owner)[attr] is original for owner, attr, original in patched)


def main(argv: list[str]) -> int:
    trace_path, run_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    import geomech.cli

    tracer = Tracer(run_id)
    patched, missing = install(tracer)
    try:
        code = tracer.span("cli.main", geomech.cli.main, per_step=False)(cli_args)
    finally:
        restored = restore(patched)
    trace = tracer.to_dict()
    trace.update(missing=missing, restored=restored, exit_code=code)
    trace_path.write_text(json.dumps(trace, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
