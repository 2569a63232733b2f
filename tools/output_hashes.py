"""Check that the working tree writes the same output files as its parent commit.

    python3 tools/output_hashes.py

Run from the root of the checkout.  The parent side is the commit that
``tools/bench_pr.py`` benchmarks against (``HEAD`` while the tree has
uncommitted changes, ``HEAD~1`` once they are committed), exported into a
temporary directory; the change side is the working tree.  In each tree, with
every BLAS/OpenMP pool on one thread, the CLI runs the five shipped scenarios
at full length (``compare`` on ``integrator_compare``, ``run`` on the others)
and draws 0-2 of seed 60 of each benchmark workload, with the workload's
command (``perfbench/workloads.py``).  ``compare`` also runs 2,000 steps of
the shipped compare scenario on a body at rest (``H_0 = 0``, so the relative
drifts are null) and on one under a constant ``moment``.  ``run`` also runs
100 steps of each shipped ``run`` scenario, short enough that the CSV is
written in-process rather than streamed, and ``run`` and ``compare`` both run
100 steps of the free body forced from rest.  It prints one ``sha256  side
file`` line per output file and side, then exits 1 naming each file whose
bytes differ (or that one side did not write), or 0 when every file is
identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), "perfbench"]
from bench_pr import export_commit, parent_commit  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED, DRAWS = 60, 3
COMPARE_STEPS = 2000
# the fields of the shipped compare scenario that each extra compare run replaces
COMPARE_CASES = {
    "compare_at_rest": {"initial": {"T": None, "omega": [0.0, 0.0, 0.0]}},
    "compare_forced": {"moment": [0.3, -0.2, 0.1]},
}
SHORT_STEPS = 100  # below the streamed run's one block of rows
# the fields of the shipped free-body scenario that the run and compare from rest replace
FORCED_AT_REST = {"initial": {"T": None, "omega": [0.0, 0.0, 0.0]},
                  "moment": [0.3, -0.2, 0.1]}


def _outputs(side: Path, runs: list[tuple[str, Path]], out: Path) -> dict[str, str]:
    """The sha256 of each file that the CLI of ``side`` writes into ``out`` for
    ``runs``, a list of (command, scenario file) pairs; exits on a failed run."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(side / "src"), **{var: "1" for var in THREAD_VARS})
    for command, scenario in runs:
        cmd = [sys.executable, "-m", "geomech.cli", command, str(scenario), "--out-dir", str(out)]
        proc = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"output_hashes: {' '.join(cmd)} failed in {side}:\n{proc.stderr}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def main() -> int:
    root = Path.cwd()
    sha = parent_commit()
    tmp = Path(tempfile.mkdtemp(prefix="output_hashes_"))
    try:
        parent = tmp / "parent"
        parent.mkdir()
        export_commit(sha, parent)
        runs = [("compare" if path.stem == "integrator_compare" else "run", path.resolve())
                for path in sorted((root / "scenarios").glob("*.json"))]

        def write(name: str, doc: dict, steps: int) -> Path:
            path = tmp / f"{name}.json"
            path.write_text(json.dumps({**doc, "t_final": steps * doc["dt"]}))
            return path

        def shipped(stem: str) -> dict:
            return json.loads((root / "scenarios" / f"{stem}.json").read_bytes())

        runs += [("run", write(f"short_{path.stem}", shipped(path.stem), SHORT_STEPS))
                 for command, path in runs if command == "run"]
        forced = write("forced_at_rest", {**shipped("free_body"), **FORCED_AT_REST}, SHORT_STEPS)
        runs += [("run", forced), ("compare", forced)]
        for name, workload in WORKLOADS.items():
            for k in range(DRAWS):
                path = tmp / f"{name}-{k}.json"
                path.write_bytes(workload.scenario_bytes(SEED, k))
                runs.append((workload.command, path))
        for name, fields in COMPARE_CASES.items():
            runs.append(("compare", write(name, {**shipped("integrator_compare"), **fields},
                                          COMPARE_STEPS)))
        hashes = {side: _outputs(tree, runs, tmp / f"out_{side}")
                  for side, tree in (("parent", parent), ("change", root))}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    names = sorted(hashes["parent"].keys() | hashes["change"].keys())
    for name in names:
        for side in ("parent", "change"):
            print(f"{hashes[side].get(name, '-' * 64)}  {side:6s}  {name}")
    differ = [name for name in names if hashes["parent"].get(name) != hashes["change"].get(name)]
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(names) - len(differ)} of {len(names)} files identical to parent {sha[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
