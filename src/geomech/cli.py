"""Command-line batch runner.

    geomech run <scenario.json> [--out-dir DIR] [--dt X] [--t-final X] [--aero on|off]
    geomech validate <scenario.json>
    geomech compare <scenario.json> [--out-dir DIR] [--dt X] [--t-final X]

Flags override the corresponding scenario fields.  Exit codes: 0 on
success, 2 on parse/validation errors or outputs that cannot be written,
3 on solver failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

from .errors import ScenarioParseError, ScenarioValidationError, SolverError
from .runner import run
from .scenario import parse_scenario
from .timeseries import _CSV_BLOCK_ROWS, csv_writer, write_outputs

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with one ``error: <message>`` line (exit 2)."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geomech",
        description="Rigid-body simulation and tracking-control scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("scenario", type=Path, help="scenario JSON file")

    def add_run_flags(p):
        p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
        p.add_argument("--dt", type=float, default=None, help="override time step (s)")
        p.add_argument("--t-final", type=float, default=None, help="override duration (s)")

    p_run = sub.add_parser("run", help="run a scenario and write CSV + metrics")
    add_common(p_run)
    add_run_flags(p_run)
    p_run.add_argument(
        "--aero", choices=("on", "off"), default=None, help="override the aero flag"
    )

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    add_common(p_val)

    p_cmp = sub.add_parser(
        "compare", help="run the variational and RK4 integrators side by side"
    )
    add_common(p_cmp)
    add_run_flags(p_cmp)
    return parser


def _overrides(args) -> dict:
    """The scenario fields that the ``--dt``, ``--t-final`` and ``--aero`` flags replace."""
    flags = {"dt": getattr(args, "dt", None), "t_final": getattr(args, "t_final", None)}
    if getattr(args, "aero", None) is not None:
        flags["aero.enabled"] = args.aero == "on"
    return {name: value for name, value in flags.items() if value is not None}


def _load_scenario(path: Path, overrides: dict):
    """The parsed scenario with ``overrides`` applied, or ``None`` after
    printing why it is refused.  Each violation is one ``  - <field>:
    <message>`` line; the ``invalid scenario`` header before them is left out
    when flags override fields, so a bad flag gives one line."""
    try:
        return parse_scenario(path.read_bytes(), overrides)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except ScenarioParseError as exc:
        print(f"parse error in {path}: {exc}", file=sys.stderr)
    except ScenarioValidationError as exc:
        if not overrides:
            print(f"invalid scenario {path}:", file=sys.stderr)
        for field, msg in exc.violations:
            print(f"  - {field}: {msg}", file=sys.stderr)
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    scenario = _load_scenario(args.scenario, _overrides(args))
    if scenario is None:
        return EXIT_INVALID

    if args.command == "validate":
        print(f"{args.scenario}: OK ({scenario.kind}, dt={scenario.dt}, "
              f"t_final={scenario.t_final})")
        return EXIT_OK

    if args.command == "compare":
        if scenario.initial is None:
            print(f"error: compare needs a rigid-body scenario, got kind "
                  f"{scenario.kind!r}", file=sys.stderr)
            return EXIT_INVALID
        scenario = dataclasses.replace(scenario, kind="integrator_compare")

    stem = args.scenario.stem
    suffix = "_compare" if args.command == "compare" else ""
    csv_path = args.out_dir / f"{stem}{suffix}.csv"
    metrics_path = args.out_dir / f"{stem}{suffix}.metrics.json"
    # the directories this run makes, deepest first; a failed run removes them
    made = [d for d in (args.out_dir, *args.out_dir.parents) if not d.exists()]
    # a run of more than one block streams its rows to a writer child, forked before numpy
    # loads; integrator_compare's rows exist only once its two halves join
    streamed = scenario.kind != "integrator_compare" and scenario.steps >= _CSV_BLOCK_ROWS
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        with csv_writer(csv_path) if streamed else contextlib.nullcontext() as stream:
            series, metrics = run(scenario, stream)
            write_outputs(series, metrics, csv_path, metrics_path, stream)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        code = EXIT_INVALID
    else:
        print(f"wrote {csv_path} ({len(series)} rows) and {metrics_path}")
        return EXIT_OK
    for directory in made:
        with contextlib.suppress(OSError):
            directory.rmdir()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
