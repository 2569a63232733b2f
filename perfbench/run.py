"""geomech benchmark: end-to-end cost of the batch CLI, and a traced per-layer
breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
The seed draws ``DRAWS`` scenario JSON files for the workload (see
``workloads.py``; why each workload exists is in ``BENCHMARK.json``).  The
unmodified CLI then runs on them in turn, one fresh child process at a time
(``python -m geomech.cli ...`` with ``PYTHONPATH=src`` and every BLAS/OpenMP
pool pinned to one thread), until ``S`` seconds have been measured:

* ``--trace 0`` repeats rounds of (set-up run, full-length run, calibration
  run) and reports ``wall_s``, the full-length run's wall time
  (launch to exit, outputs written) as the mean over the draws of each
  draw's median, ``steps_per_s``, the median set-up time
  ``setup_s`` (the same scenario with ``--t-final 0``) and the median child
  ``peak_rss_mb`` (``ru_maxrss`` from ``os.wait4`` on that child).  Times
  are scaled to a reference machine speed: each round's times are multiplied
  by ``CAL_REF_S`` over the mean wall time of the ``calibrate.py`` runs on
  either side of it.  The raw medians are printed too.
* ``--trace 1`` repeats rounds of (untraced run, traced run).  The traced run
  goes through ``tracer.py``, which wraps each layer's entry points from
  outside the program; it reports the per-layer medians and
  ``trace.overhead_frac``.

Every child is checked: exit code 0, both outputs present and parsable,
finite metrics, the workload's acceptance-criterion gates, and outputs
byte-identical to every other run of the same seed (traced runs included).
A run that fails any check counts in ``failed``; ``failed / attempted`` is
the ``fail_frac`` printed above the result.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, OutputError, Workload, check_outputs

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# No round starts after this many seconds, so the invocation ends well
# within three minutes whatever --seconds asks for.
HARD_LIMIT_S = 150.0
# Scenarios drawn per seed.  The cost of one draw varies with its inputs
# (integrator_compare: 2.6 to 3.6 Newton iterations per step), so a run
# averages over a few draws instead of resting on one, and runs each draw
# at least once.
DRAWS = 3
# Median wall time of one calibrate.py child on the machine the bounds were
# set on (2 vCPU Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4).  Untraced
# times are reported in seconds at that machine speed.
CAL_REF_S = 0.40

# Per-layer metrics: (name, span, statistic).  A statistic over a span that
# the workload never reaches reads 0; one over a span whose target no
# longer exists in the program is left out.
LAYER_METRICS = [
    ("scenario.parse_scenario.s", "scenario.parse_scenario", "total"),
    ("runner.run.self_s", "runner.run", "self"),
    ("runner.attitude_loop.self_us_per_step", "runner.attitude_loop", "self_us_per_step"),
    ("runner.aero_wrench.calls", "runner.aero_wrench", "calls"),
    ("runner.aero_wrench.self_us_per_call", "runner.aero_wrench", "self_us_per_call"),
    ("variational.vi_step.calls", "variational.vi_step", "calls"),
    ("variational.vi_step.us_per_call", "variational.vi_step", "us_per_call"),
    ("variational.simulate.self_s", "variational.simulate", "self"),
    ("rigid_body.attitude_rk4.calls", "rigid_body.attitude_rk4", "calls"),
    ("rigid_body.attitude_rk4.us_per_call", "rigid_body.attitude_rk4", "us_per_call"),
    ("rigid_body.polar.calls", "rigid_body.polar", "calls"),
    ("rigid_body.polar.us_per_call", "rigid_body.polar", "us_per_call"),
    ("rigid_body.quad_rk4.calls", "rigid_body.quad_rk4", "calls"),
    ("rigid_body.quad_rk4.us_per_call", "rigid_body.quad_rk4", "us_per_call"),
    ("quadrotor.tracking_step.calls", "quadrotor.tracking_step", "calls"),
    ("quadrotor.tracking_step.us_per_call", "quadrotor.tracking_step", "us_per_call"),
    ("quadrotor.translational_storage.us_per_call", "quadrotor.translational_storage",
     "us_per_call"),
    ("rotor_aero.rotor_wrench.calls", "rotor_aero.rotor_wrench", "calls"),
    ("rotor_aero.rotor_wrench.us_per_call", "rotor_aero.rotor_wrench", "us_per_call"),
    ("rotor_aero.hover_calibration.lookup_us_per_call",
     "rotor_aero.hover_calibration.lookup", "us_per_call"),
    ("rotor_aero.hover_calibration.build_s", "rotor_aero.hover_calibration.build", "total"),
    ("references.circle_reference.calls", "references.circle_reference", "calls"),
    ("references.circle_reference.us_per_call", "references.circle_reference", "us_per_call"),
    ("references.euler_321_raw.s", "references.euler_321_raw", "total"),
    ("references.gimbal_proximity.calls", "references.gimbal_proximity", "calls"),
    ("timeseries.csv_encode.s", "timeseries.csv_encode", "total"),
    ("timeseries.write.s", "timeseries.write", "total"),
]
STAT_UNITS = {"total": "s", "self": "s", "calls": "count", "us_per_call": "us",
              "self_us_per_call": "us", "self_us_per_step": "us"}
EXTRA_LAYER_UNITS = {"variational.newton_iters_mean": "iter/step",
                     "timeseries.bytes_written": "B", "trace.overhead_frac": "frac"}


def layer_units() -> dict[str, str]:
    units = {name: STAT_UNITS[stat] for name, _, stat in LAYER_METRICS}
    units.update(EXTRA_LAYER_UNITS)
    return units


def layer_metrics(trace: dict, program_metrics: dict, steps: int) -> dict[str, float]:
    """Per-layer numbers of one traced run (all but ``trace.overhead_frac``)."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for row in trace["aggregate"]:
        name = row["name"]
        calls[name] = calls.get(name, 0) + row["count"]
        total[name] = total.get(name, 0.0) + row["total_s"]
        own[name] = own.get(name, 0.0) + row["self_s"]
    missing = set(trace["missing"])
    out: dict[str, float] = {}
    for metric, span, stat in LAYER_METRICS:
        if span in missing:
            continue
        n, t, s = calls.get(span, 0), total.get(span, 0.0), own.get(span, 0.0)
        out[metric] = {
            "total": t,
            "self": s,
            "calls": n,
            "us_per_call": 1e6 * t / n if n else 0.0,
            "self_us_per_call": 1e6 * s / n if n else 0.0,
            "self_us_per_step": 1e6 * s / steps if n else 0.0,
        }[stat]
    if "newton_iters_mean" in program_metrics:
        out["variational.newton_iters_mean"] = program_metrics["newton_iters_mean"] or 0.0
    if not {"timeseries.csv_encode", "timeseries.json_encode"} <= missing:
        out["timeseries.bytes_written"] = trace["counters"].get("bytes_written", 0)
    return out


def environment() -> dict:
    def version(package: str):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "child_threads": {var: "1" for var in THREAD_VARS},
    }


def summary(samples: list[float], unit: str) -> str:
    """Median with its unit, the sample count, and the highest percentile
    that has at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    text = f"{statistics.median(samples):.6g} {unit} (median of n={n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return f"{text}; p{p:g} {ordered[rank - 1]:.6g} {unit})"
    return f"{text}; no percentile has 10 samples beyond it)"


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    metrics: dict | None   # program metrics, None when the run failed
    trace: dict | None


class Bench:
    """Launches checked CLI children for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.workload = workload
        self.root = root
        self.work = work
        self.scenarios = [work / f"{workload.name}-{k}.json" for k in range(DRAWS)]
        for k, path in enumerate(self.scenarios):
            path.write_bytes(workload.scenario_bytes(seed, k))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[tuple[int, bool], str] = {}

    def out_of_time(self) -> bool:
        return time.monotonic() - self.started > HARD_LIMIT_S

    def _launch(self, cmd: list[str], out: Path) -> tuple[float, float, int]:
        limit = max(5.0, HARD_LIMIT_S + 20.0 - (time.monotonic() - self.started))
        with open(out / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def calibrate(self) -> float:
        """Wall time of one calibration child (see ``calibrate.py``)."""
        out = self.work / "calibrate"
        out.mkdir(exist_ok=True)
        wall, _, code = self._launch([sys.executable, str(HERE / "calibrate.py")], out)
        if code != 0:
            raise RuntimeError(f"calibration child exited with code {code}")
        return wall

    def run(self, label: str, draw: int, full: bool, traced: bool = False) -> Sample:
        """One child on scenario ``draw``: a full-length run, or a set-up run
        (``--t-final 0``)."""
        w = self.workload
        scenario = self.scenarios[draw]
        self.attempted += 1
        out = self.work / f"{self.attempted:03d}-{label}"
        out.mkdir()
        cli = [w.command, str(scenario), "--out-dir", str(out)]
        if not full:
            cli += ["--t-final", "0"]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(out / "trace.json"),
                   f"{w.name}-{self.attempted}", *cli]
        else:
            cmd = [sys.executable, "-m", "geomech.cli", *cli]
        wall, rss, code = self._launch(cmd, out)
        metrics = trace = None
        try:
            if code != 0:
                err = (out / "stderr.txt").read_text(errors="replace").strip()
                raise OutputError(f"exit code {code}: {err[-300:]}")
            csv_name, metrics_name = w.output_names(scenario.stem)
            metrics, digest = check_outputs(w, out / csv_name, out / metrics_name,
                                            w.steps + 1 if full else 1)
            if self._digests.setdefault((draw, full), digest) != digest:
                raise OutputError("outputs differ from an earlier run of the same seed")
            if traced:
                trace = json.loads((out / "trace.json").read_text())
                if not trace["restored"]:
                    raise OutputError("tracer left a wrapper installed")
        except (OutputError, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{label} run {self.attempted}: {exc}")
            metrics = trace = None
        shutil.rmtree(out)
        return Sample(wall, rss, metrics, trace)

    def rounds(self, seconds: float, body) -> None:
        """Call ``body(draw)`` for the draws in turn until ``seconds`` are
        measured (at least once per draw), never starting a round that
        would overrun."""
        deadline = time.monotonic() + seconds
        done, last = 0, 0.0
        while (done < DRAWS or time.monotonic() + last <= deadline) \
                and not self.out_of_time():
            begin = time.monotonic()
            body(done % DRAWS)
            done += 1
            last = time.monotonic() - begin


def measure(bench: Bench, seconds: float) -> dict[str, tuple[float, str]]:
    walls = [[] for _ in range(DRAWS)]
    setups, rss, raw_walls, cals = [], [], [], [bench.calibrate()]

    def round_(draw):
        setup = bench.run("setup", draw, full=False)
        sample = bench.run("full", draw, full=True)
        cals.append(bench.calibrate())
        # The machine's speed drifts by tens of percent over minutes; the
        # calibration runs on either side of the round measure it.
        scale = CAL_REF_S / statistics.mean(cals[-2:])
        walls[draw].append(sample.wall_s * scale)
        setups.append(setup.wall_s * scale)
        raw_walls.append(sample.wall_s)
        rss.append(sample.rss_mb)

    bench.rounds(seconds, round_)
    # mean over the draws of each draw's median
    wall = statistics.mean(statistics.median(w) for w in walls)
    steps = bench.workload.steps
    print(f"calibration  {summary(cals, 's')}; reference {CAL_REF_S} s")
    print(f"raw wall_s   {summary(raw_walls, 's')}")
    per_draw = ", ".join(f"{statistics.median(w):.6g} s (n={len(w)})" for w in walls)
    print(f"wall_s       {wall:.6g} s (mean of the draws' medians: {per_draw})")
    print(f"steps_per_s  {steps / wall:.6g} 1/s at {steps} steps")
    print(f"setup_s      {summary(setups, 's')}")
    print(f"peak_rss_mb  {summary(rss, 'MiB')}")
    return {
        "wall_s": (wall, "s"),
        "steps_per_s": (steps / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict[str, tuple[float, str]]:
    plain, traced, overheads, layers = [], [], [], []

    def round_(draw):
        plain.append(bench.run("full", draw, full=True).wall_s)
        sample = bench.run("traced", draw, full=True, traced=True)
        traced.append(sample.wall_s)
        # paired with the untraced run just before it, so drift cancels
        overheads.append(traced[-1] / plain[-1] - 1.0)
        if sample.trace is not None:
            layers.append(layer_metrics(sample.trace, sample.metrics, bench.workload.steps))

    bench.rounds(seconds, round_)
    if not layers:
        return {}
    units = layer_units()
    out = {
        name: (statistics.median(run[name] for run in layers), units[name])
        for name in layers[0]
    }
    out["trace.overhead_frac"] = (statistics.median(overheads), "frac")
    print(f"traced wall_s   {summary(traced, 's')}")
    print(f"untraced wall_s {summary(plain, 's')}")
    for name, (value, unit) in out.items():
        print(f"{name:48s} {value:.6g} {unit}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "geomech" / "cli.py").is_file():
        print("perfbench: no geomech source tree at ./src/geomech; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, root, work)
        print(f"perfbench workload={workload.name} seed={args.seed} "
              f"steps={workload.steps} trace={args.trace}")
        print("environment " + json.dumps(environment(), sort_keys=True))
        for k in range(DRAWS):
            print(f"scenario {k} " + json.dumps(workload.scenario(args.seed, k),
                                                sort_keys=True))
        bench.run("warmup", 0, full=False)  # fills the bytecode and page caches
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it

    failed = len(bench.failures)
    for reason in bench.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"fail_frac    {failed / bench.attempted:.6g} ({failed}/{bench.attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
