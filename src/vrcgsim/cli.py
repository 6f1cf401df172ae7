"""Command line front end.

Four subcommands: generate a seeded scenario file, run the solvers over
a mobility trace and emit metrics, verify a saved solution document
against its scenario, and compare two result files. Exit status is 0 on
success, 1 when a solver or verifier finds the instance infeasible, and
2 for configuration mistakes (bad flags, unreadable files, unknown
methods, oversized oracle requests).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .metrics import (
    CSV_COLUMNS,
    METHODS,
    ExperimentAbort,
    emit,
    run_experiment,
    solutions_to_doc,
    verify_document,
)
from .oracle import OracleRefusal
from .scenario import ScenarioError, generate_synthetic, load_scenario, scenario_to_json

DEFAULT_METHODS = "vexa,gepar,amps"


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrcgsim",
        description="resource allocation pipeline for cloud VR over cellular",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--users", type=_positive_int, default=50)
        p.add_argument("--bs", type=_positive_int, default=4)
        p.add_argument("--cns", type=_positive_int, default=6)

    gen = sub.add_parser("generate", help="write a seeded synthetic scenario")
    add_shape(gen)
    gen.add_argument("--out", default="-", help="output path, - for stdout")

    run = sub.add_parser("run", help="solve and emit metrics")
    run.add_argument("scenario", nargs="?", help="scenario file (else synthetic)")
    add_shape(run)
    run.add_argument("--methods", default=DEFAULT_METHODS,
                     help=f"comma list from: {', '.join(METHODS)}")
    run.add_argument("--timesteps", type=_positive_int, default=1)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", default="-", help="output path, - for stdout")
    run.add_argument("--timing", action="store_true",
                     help="keep measured solve times (breaks byte stability)")
    run.add_argument("--solutions", default=None,
                     help="also dump the final timestep's solutions here")

    ver = sub.add_parser("verify", help="check a solution document")
    ver.add_argument("scenario")
    ver.add_argument("solutions")

    cmp_ = sub.add_parser("compare", help="tabulate gaps between two result files")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    return parser


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e}", 2) from e


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _scenario_for(args):
    if getattr(args, "scenario", None):
        return load_scenario(_read_file(args.scenario))
    return generate_synthetic(args.seed, args.users, args.bs, args.cns)


def _parse_methods(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise _CliError("no methods requested", 2)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise _CliError(
            f"unknown methods: {', '.join(unknown)} "
            f"(choose from {', '.join(METHODS)})", 2)
    return methods


def _cmd_generate(args) -> int:
    sc = generate_synthetic(args.seed, args.users, args.bs, args.cns)
    _write_out(args.out, scenario_to_json(sc))
    return 0


def _cmd_run(args) -> int:
    sc = _scenario_for(args)
    methods = _parse_methods(args.methods)
    reports, solutions = run_experiment(
        sc, methods, timesteps=args.timesteps, collect_solutions=True)
    _write_out(args.out, emit(reports, args.format, include_timing=args.timing))
    if args.solutions:
        doc = solutions_to_doc(sc, solutions)
        _write_out(args.solutions, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args) -> int:
    sc = load_scenario(_read_file(args.scenario))
    try:
        doc = json.loads(_read_file(args.solutions))
    except json.JSONDecodeError as e:
        raise _CliError(f"{args.solutions} is not valid JSON: {e}", 2) from e
    try:
        findings = verify_document(sc, doc)
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # Infinity for an int
        raise _CliError(f"malformed solution document: {e}", 2) from e
    bad = 0
    for name in sorted(findings):
        violations = findings[name]
        if not violations:
            print(f"{name}: ok")
            continue
        bad += len(violations)
        for v in violations:
            print(f"{name}: {v.kind} {v.subject}: {v.detail}")
    return 1 if bad else 0


def _load_results(path: str) -> list[tuple[int, str, dict]]:
    """Rows of (timestep, method, column values) from a csv or json file.

    Each timestep and cell is converted as the file is read, so a value
    that is not a number refuses the file before anything is printed.
    """
    text = _read_file(path)
    try:
        if text.lstrip().startswith("{"):
            rows = [(report["timestep"], method, cells)
                    for report in json.loads(text)["reports"]
                    for method, cells in report["methods"].items()]
        else:
            reader = csv.DictReader(io.StringIO(text))
            if reader.fieldnames != list(CSV_COLUMNS):
                raise _CliError(f"{path}: unexpected csv header", 2)
            rows = [(rec["timestep"], rec["method"], rec) for rec in reader]
        return [(int(t), method, {col: None if cells.get(col) in (None, "") else float(cells[col])
                                  for col in CSV_COLUMNS[2:]})
                for t, method, cells in rows]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise _CliError(f"{path}: not a result document: {e}", 2) from e


def _cmd_compare(args) -> int:
    first = _load_results(args.first)
    second = {(t, m): cells for t, m, cells in _load_results(args.second)}
    print("timestep,method,metric,first,second,diff")
    for t, m, cells in first:
        other = second.get((t, m))
        if other is None:
            continue
        for col in CSV_COLUMNS[2:]:
            if col == "solve_time_s":
                continue
            a, b = cells.get(col), other.get(col)
            if a is None or b is None:
                continue
            # result files carry nine significant digits, so compare at
            # that precision regardless of which format stored them
            a, b = float(f"{a:.9g}"), float(f"{b:.9g}")
            print(f"{t},{m},{col},{a:.9g},{b:.9g},{b - a:.9g}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_compare(args)
    except _CliError as e:
        print(f"vrcgsim: {e}", file=sys.stderr)
        return e.code
    except (ScenarioError, OracleRefusal) as e:
        print(f"vrcgsim: {e}", file=sys.stderr)
        return 2
    except ExperimentAbort as e:
        print(f"vrcgsim: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"vrcgsim: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
