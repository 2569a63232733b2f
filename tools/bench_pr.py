"""Benchmark a change against its parent commit and write ``BENCH_<n>.json``.

    python3 tools/bench_pr.py --pr N

Run from the root of the checkout.  The change side is the working tree as
it stands; the parent side is the commit it was made on: ``HEAD`` while the
tree has uncommitted changes, ``HEAD~1`` once they are committed, exported
with ``git archive`` into a temporary directory.  For each workload of
``BENCHMARK.json`` it runs ``PAIRS`` alternating pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one per side, seed ``S = SEED + pair``, ``T`` the ``run_seconds`` of
``BENCHMARK.json``, the parent first in even pairs and the change first in
odd ones, each side with its own ``perfbench/``.  Then it runs one
``--trace 1`` invocation per side at the first seed, and times the Tier-1
suite once per side.

The file has one schema whatever the workloads: for every end-to-end metric
the per-side median, quartiles and interquartile range, the relative change
of the medians, and in how many pairs the change was better; for every
per-layer metric the traced value of each side; and every raw result.
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


def _bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one ``perfbench/run.py`` invocation in ``side``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"bench_pr: {' '.join(cmd)} failed in {side}:\n{out.stderr}")
    return json.loads(lines[-1])


def _tier1(side: Path) -> dict:
    """Wall time and outcome counts of one Tier-1 run in ``side``."""
    env = {**os.environ, "PYTHONPATH": "src"}
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
    parser.add_argument("--pr", type=int, required=True, help="number n of BENCH_<n>.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    config = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    dirty = bool(_git("status", "--porcelain"))
    parent_sha = _git("rev-parse", "HEAD" if dirty else "HEAD~1")

    tmp = Path(tempfile.mkdtemp(prefix="bench_pr_"))
    try:
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", parent_sha], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        sides = {"parent": parent, "change": root}

        result = {
            "schema": SCHEMA,
            "command": "python3 tools/bench_pr.py " + " ".join(argv or sys.argv[1:]),
            "bench_command": "python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {seconds:g} --trace 0|1",
            "parent": parent_sha,
            "change": {"base": _git("rev-parse", "HEAD"), "dirty": dirty},
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
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
                    pair[side] = _bench(sides[side], name, seed, seconds, 0)
                    value = pair[side]["metrics"].get("wall_s", {}).get("value")
                    print(f"{name} seed {seed} {side:6s} wall_s {value}", file=sys.stderr)
                pairs.append(pair)
            traced = {side: _bench(sides[side], name, SEED, seconds, 1)
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
        result["tier1"] = {side: _tier1(path) for side, path in sides.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = root / f"BENCH_{args.pr}.json"
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
