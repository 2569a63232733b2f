"""Benchmark a change against its parent commit and write ``BENCH_<n>.json``.

    python3 tools/bench_pr.py --pr N
    python3 tools/bench_pr.py --aa

Run from the root of the checkout.  The change side is the working tree as
it stands; the parent side is the commit it was made on: ``HEAD`` while the
tree has uncommitted changes, ``HEAD~1`` once they are committed, exported
with ``git archive`` into a temporary directory.  ``--aa`` (an A/A run)
instead exports a copy of the working tree itself (its tracked files and
the untracked ones git does not ignore) as the parent side and writes
``BENCH_aa.json``: both sides then run the same code, so any difference
it reports is the harness's own bias and noise.  For each workload of
``BENCHMARK.json`` it runs ``PAIRS`` alternating pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one per side, seed ``S = SEED + pair``, ``T`` the ``run_seconds`` of
``BENCHMARK.json``, the parent first in even pairs and the change first in
odd ones, each side with its own ``perfbench/``.  Then it runs one
``--trace 1`` invocation per side at the first seed, and times the Tier-1
suite once per side.

Each side gets one bytecode cache, a new ``PYTHONPYCACHEPREFIX`` directory.
Before any measurement, one untimed child with bytecode writing on imports
``geomech.cli`` and numpy there, which compiles ``geomech``, numpy and the
standard library modules a run loads.  numpy is imported by name: the
rigid-body runs do not load it, but the calibration child and the
quadrotor runs do, and without its bytecode they would compile it from
source at every launch.  Every measured child of that side (the bench
runs, the traced runs and Tier-1) then reads the same warm cache, so both
sides load ``geomech`` alike and the times show the program rather than the
compiler.  No bytecode from an earlier run is used.

The file has one schema whatever the workloads: for every end-to-end metric
the per-side median, quartiles and interquartile range, the relative change
of the medians, and in how many pairs the change was better; for every
per-layer metric the traced value of each side; and every raw result.  Each
untraced raw result also keeps the two unscaled medians the invocation
prints, the calibration child's wall time and the raw ``wall_s``, under
``unscaled``: the scaled ``wall_s`` divides by the calibration time, which
moves with the bytecode cache as well as with the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = 1
PAIRS = 10  # alternating pairs per workload, the fewest that can support a gain claim
SEED = 60  # seed of pair 0; pair i runs seed SEED + i


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


CACHE_MODE = ("warm: one PYTHONPYCACHEPREFIX per side, filled by an untimed "
              "`import geomech.cli, numpy`")


def _warm_cache(side: Path, tmp: Path) -> str:
    """A new bytecode cache directory under ``tmp``, filled for ``side`` by one
    child that imports ``geomech.cli`` and numpy with bytecode writing on;
    exits if numpy's bytecode did not land in it."""
    cache = tempfile.mkdtemp(prefix="pycache_", dir=tmp)
    env = {**os.environ, "PYTHONPYCACHEPREFIX": cache, "PYTHONPATH": "src"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import geomech.cli, numpy"], cwd=side, env=env,
                   check=True)
    if not any(Path(cache).rglob("numpy/__init__.*.pyc")):
        raise SystemExit(f"bench_pr: no numpy bytecode in the cache {cache} of {side}")
    return cache


# the unscaled medians an untraced invocation prints before its JSON line
_UNSCALED = {"calibration_s": re.compile(r"^calibration\s+(\S+) s "),
             "raw_wall_s": re.compile(r"^raw wall_s\s+(\S+) s ")}


def _copy_tree(root: Path, dest: Path) -> None:
    """Copy the working tree's tracked files and the untracked ones git does
    not ignore, as they are on disk, from ``root`` into ``dest``."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def _bench(side: Path, env: dict, workload: str, seed: int, seconds: float,
           trace: int) -> dict:
    """The JSON result line of one ``perfbench/run.py`` invocation in ``side``,
    with the unscaled medians of the calibration child and of the full-length
    runs under ``unscaled``, so that scaled ``wall_s`` values measured under
    different conditions can be traced back to what was timed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"bench_pr: {' '.join(cmd)} failed in {side}:\n{out.stderr}")
    result = json.loads(lines[-1])
    unscaled = {name: float(m[1]) for line in lines for name, pattern in _UNSCALED.items()
                if (m := pattern.match(line))}
    if unscaled:
        result["unscaled"] = unscaled
    return result


def _tier1(side: Path, env: dict) -> dict:
    """Wall time and outcome counts of one Tier-1 run in ``side``."""
    env = {**env, "PYTHONPATH": "src"}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         cwd=side, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0), "summary": tail}


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric spread of each side and win count of the change."""
    out = {}
    for name, direction in better.items():
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs
                       if name in p[side]["metrics"]] for side in ("parent", "change")}
        if len(vals["parent"]) != len(pairs) or len(vals["change"]) != len(pairs):
            continue
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(vals["parent"], vals["change"]))
        parent, change = _spread(vals["parent"]), _spread(vals["change"])
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "median_delta_frac": change["median"] / parent["median"] - 1.0
            if parent["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--pr", type=int, help="number n of BENCH_<n>.json")
    which.add_argument("--aa", action="store_true",
                       help="bench the working tree against a copy of itself (BENCH_aa.json)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    config = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    dirty = bool(_git("status", "--porcelain"))
    parent_sha = _git("rev-parse", "HEAD" if dirty or args.aa else "HEAD~1")

    tmp = Path(tempfile.mkdtemp(prefix="bench_pr_"))
    try:
        parent = tmp / "parent"
        parent.mkdir()
        if args.aa:
            _copy_tree(root, parent)
        else:
            archive = subprocess.run(["git", "archive", parent_sha], check=True,
                                     capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        sides = {"parent": parent, "change": root}
        # measured children only read the cache, so each one loads the same bytecode
        envs = {side: {**os.environ, "PYTHONPYCACHEPREFIX": _warm_cache(path, tmp),
                       "PYTHONDONTWRITEBYTECODE": "1"} for side, path in sides.items()}

        result = {
            "schema": SCHEMA,
            "command": "python3 tools/bench_pr.py " + " ".join(argv or sys.argv[1:]),
            "bench_command": "python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {seconds:g} --trace 0|1",
            "parent": parent_sha,
            "change": {"base": _git("rev-parse", "HEAD"), "dirty": dirty},
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "bytecode_cache": CACHE_MODE,
            "pairs": PAIRS,
            "seeds": [SEED + i for i in range(PAIRS)],
            "workloads": {},
            "tier1": None,
        }
        for name in workloads:
            pairs = []
            for i in range(PAIRS):
                seed = SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _bench(sides[side], envs[side], name, seed, seconds, 0)
                    value = pair[side]["metrics"].get("wall_s", {}).get("value")
                    print(f"{name} seed {seed} {side:6s} wall_s {value}", file=sys.stderr)
                pairs.append(pair)
            traced = {side: _bench(sides[side], envs[side], name, SEED, seconds, 1)
                      for side in ("parent", "change")}
            result["workloads"][name] = {
                "summary": summarize(pairs, better),
                "fail_frac": {side: sum(p[side]["failed"] for p in pairs)
                              / max(1, sum(p[side]["attempted"] for p in pairs))
                              for side in ("parent", "change")},
                "traced": {side: {k: v["value"] for k, v in r["metrics"].items()}
                           for side, r in traced.items()},
                "runs": pairs,
            }
        result["tier1"] = {side: _tier1(path, envs[side]) for side, path in sides.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = root / f"BENCH_{'aa' if args.aa else args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, w in result["workloads"].items():
        for metric, s in w["summary"].items():
            print(f"{name:20s} {metric:12s} parent {s['parent']['median']:.6g} "
                  f"(IQR {s['parent']['iqr']:.3g})  change {s['change']['median']:.6g} "
                  f"(IQR {s['change']['iqr']:.3g})  wins {s['wins']}/{s['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
