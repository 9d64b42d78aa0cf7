"""Command-line front end.

Usage mirrors the tool's original transcripts:

* ``polsat "a U b"`` prints the verdict, the winning solver, and the time
  (the literal ``eclipse time:`` prefix is kept for fidelity; it means
  elapsed time).
* ``polsat -e "a U b"`` adds an evidence line after a sat verdict.
* ``polsat -s "<formula>"`` runs every solver to completion, fastest first,
  and adds a ``disagreement:`` line when their verdicts conflict or a
  solver's evidence does not satisfy the formula.
* ``polsat -sm <file>`` checks a whole file and writes output.txt.
* ``polsat -add <solverpath>`` registers an external solver.
* With no arguments the tool prompts ``please input the formula:``.

Exit codes: 0 definitive verdict or successful batch/registration, 1 usage
or parse error, a file (the batch input, its report or the registry) that
cannot be read or written, or a standard output closed by its reader, 2 when
every solver timed out.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import bench
from .engine import Verdict
from .external import RegistrationError, Registry, as_solver_spec, register
from .formulas import ParseError, parse
from .lasso import print_evidence
from .portfolio import SolverSpec, arbitrate, internal_solvers, race, run_all

__all__ = ["main"]

PROMPT = "please input the formula:"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _timeout(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(f"not a positive finite number of seconds: {text!r}")
    return seconds


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="polsat",
        description="Portfolio LTL satisfiability solver.",
    )
    parser.add_argument(
        "-e",
        dest="evidence",
        action="store_true",
        help="print a satisfying lasso after a sat verdict",
    )
    parser.add_argument(
        "-s",
        dest="separate",
        action="store_true",
        help="run every solver to completion and list all results",
    )
    parser.add_argument(
        "-sm",
        dest="batch_file",
        metavar="FILE",
        help="check every formula in FILE and write output.txt",
    )
    parser.add_argument(
        "-add",
        dest="add_solver",
        metavar="SOLVERPATH",
        help="register an external solver executable",
    )
    parser.add_argument(
        "--timeout",
        type=_timeout,
        default=bench.DEFAULT_TIMEOUT,
        metavar="SECONDS",
        help="per-formula timeout (default 60)",
    )
    parser.add_argument("formula", nargs="?", help="LTL formula to check")
    return parser


def _solver_set() -> list[SolverSpec]:
    solvers = internal_solvers()
    names = {s.name for s in solvers}
    for ext in Registry.load().specs:
        spec = as_solver_spec(ext)
        name = spec.name
        suffix = 2
        while name in names:  # two registered solvers may share a basename
            name = f"{spec.name}#{suffix}"
            suffix += 1
        names.add(name)
        solvers.append(replace(spec, name=name))
    return solvers


def _print_single(result_verdict: Verdict, winner: str, elapsed: float, want_evidence: bool) -> int:
    print(result_verdict.kind)
    if want_evidence and result_verdict.is_sat and result_verdict.evidence is not None:
        print(print_evidence(result_verdict.evidence))
    print(f"from {winner}")
    print(f"eclipse time: {bench.format_seconds(elapsed)}s")
    if result_verdict.is_definitive:
        return 0
    return 2


def _check_formula(text: str, args: argparse.Namespace) -> int:
    try:
        formula = parse(text)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    solvers = _solver_set()
    if args.separate:
        records = run_all(formula, solvers, args.timeout)
        report = arbitrate(records)
        for record in records:
            print(f"{record.solver}: {record.verdict.kind}\t{bench.format_seconds(record.elapsed)}s")
            if args.evidence and record.verdict.evidence is not None:
                print(print_evidence(record.verdict.evidence))
        named = {} if report.consistent else dict(report.verdict_groups)
        if report.invalid_evidence:
            named["invalid evidence"] = report.invalid_evidence
        if named:
            listed = "; ".join(f"{k} from {', '.join(v)}" for k, v in named.items())
            print(f"disagreement: {listed}")
        return 0 if any(r.verdict.is_definitive for r in records) else 2
    result = race(formula, solvers, args.timeout, want_evidence=args.evidence)
    return _print_single(result.verdict, result.winner, result.elapsed, args.evidence)


def _batch(args: argparse.Namespace) -> int:
    try:
        report = bench.run_file(
            args.batch_file, _solver_set(), timeout=args.timeout, mode="separate"
        )
    except (OSError, UnicodeDecodeError) as exc:  # reading FILE or writing the report
        path = getattr(exc, "filename", None) or args.batch_file
        action = "read" if Path(path) == Path(args.batch_file) else "write"
        print(f"cannot {action} {path}: {exc}", file=sys.stderr)
        return 1
    for line in report.summary_lines():
        print(line)
    return 0


def _prompt_for_formula() -> str | None:
    print(PROMPT, flush=True)
    line = sys.stdin.readline()
    if not line:
        return None
    line = line.strip()
    return line or None


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as ``| head`` does
        # Point stdout at devnull, so that its flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.add_solver is not None:
            added = register(args.add_solver)
            if added:
                print(f"{args.add_solver} is added.")
            else:
                print(f"{args.add_solver} is already registered.", file=sys.stderr)

        if args.batch_file is not None:
            if args.formula is not None:
                parser.print_usage(sys.stderr)
                print("polsat: error: -sm cannot be combined with a formula", file=sys.stderr)
                return 1
            return _batch(args)

        text = args.formula
        if text is None:
            text = _prompt_for_formula()
            if text is None:
                return 0
        return _check_formula(text, args)
    except RegistrationError as exc:  # a bad -add path, or a registry it cannot read or write
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
