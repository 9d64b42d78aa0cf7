"""Benchmark harness: formula generators, batch runs, and cactus data.

``run_file`` checks every formula in a file (one per line, ``#`` comments
and blank lines skipped) under a per-formula timeout, writes a report file,
and aggregates per-solver totals where timed-out runs cost exactly the
timeout.  The generators cover seeded random formulas of a target size,
random conjunctions of specification patterns, and the unsatisfiable
or-chain-plus-contradiction family used as a fixture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .formulas import (
    FALSE,
    TRUE,
    And,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Prop,
    Release,
    Until,
    parse,
)
from .patterns import PATTERNS
from .portfolio import RunRecord, SolverSpec, race, run_all

__all__ = [
    "BenchReport",
    "FormulaOutcome",
    "CactusSeries",
    "gen_random",
    "gen_conjunction",
    "gen_O1",
    "run_file",
    "cactus",
    "cactus_text",
    "format_seconds",
]

DEFAULT_TIMEOUT = 60.0

_UNARY_OPS = (Not, Next, Globally, Finally)
_BINARY_OPS = (And, Or, Implies, Iff, Until, Release)
_ALL_OPS = _UNARY_OPS + _BINARY_OPS


def format_seconds(t: float) -> str:
    """Up to four significant decimals, no exponent notation."""
    if t == 0:
        return "0"
    s = f"{t:.4g}"
    if "e" in s or "E" in s:
        s = f"{t:.10f}".rstrip("0").rstrip(".")
    return s


# ---------------------------------------------------------------------------
# Generators


def _prop_pool(nvars: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [
        letters[i % 26] + ("" if i < 26 else str(i // 26)) for i in range(nvars)
    ]


def gen_random(length: int, nvars: int, seed: int) -> Formula:
    """Seeded random formula with exactly ``length`` AST nodes.

    Operators are drawn uniformly; leaves are uniform over ``nvars``
    propositions, with a small probability of a boolean constant.  The exact
    operator/leaf distribution is a stand-in: it is ours, not a reproduction
    of any published generator.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    rng = random.Random(seed)
    names = _prop_pool(nvars)
    return _random_tree(rng, length, names)


def _random_tree(rng: random.Random, n: int, names: list[str]) -> Formula:
    if n == 1:
        if rng.random() < 0.1:
            return TRUE if rng.random() < 0.5 else FALSE
        return Prop(rng.choice(names))
    if n == 2:
        op = rng.choice(_UNARY_OPS)
        return op(_random_tree(rng, 1, names))
    op = rng.choice(_ALL_OPS)
    if op in _UNARY_OPS:
        return op(_random_tree(rng, n - 1, names))
    left_size = rng.randint(1, n - 2)
    left = _random_tree(rng, left_size, names)
    right = _random_tree(rng, n - 1 - left_size, names)
    return op(left, right)


def gen_conjunction(n: int, seed: int) -> Formula:
    """Conjunction of ``n`` specification patterns, sampled with ``seed``.

    Each pattern slot is filled with either a fresh proposition or one
    already used by an earlier conjunct, so the conjuncts interact.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    used: list[str] = []

    def pick_prop() -> str:
        if used and rng.random() < 0.5:
            return rng.choice(used)
        name = f"p{len(used)}"
        used.append(name)
        return name

    conjuncts = []
    for _ in range(n):
        pattern = rng.choice(PATTERNS)
        conjuncts.append(pattern.instantiate(*(pick_prop() for _ in range(pattern.arity))))
    acc = conjuncts[0]
    for part in conjuncts[1:]:
        acc = And(acc, part)
    return acc


def gen_O1(n: int) -> Formula:
    """``(a1|b1) & ... & (an|bn) & ((G c) & (X !c))``.

    The final conjunct alone is contradictory, so the whole formula is
    unsatisfiable no matter how large ``n`` grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    parts: list[Formula] = [
        Or(Prop(f"a{i}"), Prop(f"b{i}")) for i in range(1, n + 1)
    ]
    parts.append(And(Globally(Prop("c")), Next(Not(Prop("c")))))
    acc = parts[0]
    for part in parts[1:]:
        acc = And(acc, part)
    return acc


# ---------------------------------------------------------------------------
# Batch runs


@dataclass(frozen=True)
class FormulaOutcome:
    """One line of the report: what happened on one input formula."""

    index: int
    verdict: str  # "sat" | "unsat" | "unknown" | "error"
    winner: str
    seconds: float


@dataclass
class BenchReport:
    """Aggregated results of a batch run."""

    mode: str
    timeout: float
    solver_names: list[str]
    outcomes: list[FormulaOutcome] = field(default_factory=list)
    records: dict[str, list[RunRecord]] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    output_path: Path | None = None

    @property
    def formula_count(self) -> int:
        return len(self.outcomes)

    def ranked_totals(self) -> list[tuple[str, float]]:
        return sorted(self.totals.items(), key=lambda item: (item[1], item[0]))

    def summary_lines(self) -> list[str]:
        lines = [
            f"{name}\t{format_seconds(total)}s" for name, total in self.ranked_totals()
        ]
        name = self.output_path.name if self.output_path else "output.txt"
        lines.append(f"The generated file is {name}.")
        return lines


def run_file(
    path: str | Path,
    solvers: list[SolverSpec],
    timeout: float = DEFAULT_TIMEOUT,
    mode: str = "separate",
    out_path: str | Path = "output.txt",
) -> BenchReport:
    """Check every formula in ``path`` and write the report to ``out_path``.

    ``mode="separate"`` runs every solver on every formula (run_all);
    ``mode="race"`` races the portfolio instead and keeps the records the
    race received (a solver cancelled before it reported has none).  Both
    modes append each record to its solver's list and charge the solver
    ``min(elapsed, timeout)``, so a timed-out run costs exactly the
    timeout.  Unparsable lines are reported per-line, not fatal.
    Formulas are processed sequentially so timings do not contend.
    """
    if mode not in ("separate", "race"):
        raise ValueError(f"unknown mode {mode!r}")
    text = Path(path).read_text(encoding="utf-8-sig")
    report = BenchReport(
        mode=mode,
        timeout=timeout,
        solver_names=[s.name for s in solvers],
        output_path=Path(out_path),
    )
    totals = {name: 0.0 for name in report.solver_names}
    per_solver: dict[str, list[RunRecord]] = {name: [] for name in report.solver_names}

    index = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        index += 1
        try:
            formula = parse(line)
        except ParseError:
            report.outcomes.append(FormulaOutcome(index, "error", "none", 0.0))
            continue
        if mode == "separate":
            records = run_all(formula, solvers, timeout)
            best = next((r for r in records if r.verdict.is_definitive), None)
            if best is None:
                outcome = FormulaOutcome(index, "unknown", "none", timeout)
            else:
                outcome = FormulaOutcome(
                    index, best.verdict.kind, best.solver, best.elapsed
                )
        else:
            result = race(formula, solvers, timeout)
            records = result.records
            outcome = FormulaOutcome(
                index, result.verdict.kind, result.winner, result.elapsed
            )
        report.outcomes.append(outcome)
        for record in records:
            per_solver[record.solver].append(record)
            totals[record.solver] += min(record.elapsed, timeout)
    report.records = per_solver
    report.totals = totals
    _write_report(report)
    return report


def _write_report(report: BenchReport) -> None:
    out = report.output_path
    lines = [
        f"# timeout: {format_seconds(report.timeout)}",
        f"# solvers: {' '.join(report.solver_names)}",
        f"# mode: {report.mode}",
        f"# formulas: {report.formula_count}",
    ]
    for outcome in report.outcomes:
        lines.append(
            f"{outcome.index}\t{outcome.verdict}\t{outcome.winner}\t"
            f"{format_seconds(outcome.seconds)}"
        )
    lines.append("# totals (fastest first)")
    for name, total in report.ranked_totals():
        lines.append(f"{name}\t{format_seconds(total)}")
    out.write_text("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# Cactus data


@dataclass(frozen=True)
class CactusSeries:
    """Per-solver cumulative solve times, instances sorted fastest first."""

    series: dict[str, tuple[float, ...]]


def cactus(report: BenchReport) -> CactusSeries:
    """Sort each solver's solved-instance times ascending and accumulate.

    Timeouts and other unknowns are excluded from the series (they count
    only in report totals).
    """
    series: dict[str, tuple[float, ...]] = {}
    for name in report.solver_names:
        times = sorted(
            r.elapsed for r in report.records.get(name, []) if r.verdict.is_definitive
        )
        cumulative = []
        running = 0.0
        for t in times:
            running += t
            cumulative.append(running)
        series[name] = tuple(cumulative)
    return CactusSeries(series)


def cactus_text(series: CactusSeries) -> str:
    """Two-column text per solver: instances solved and cumulative seconds."""
    blocks = []
    for name in sorted(series.series):
        lines = [f"# {name}"]
        for i, total in enumerate(series.series[name], start=1):
            lines.append(f"{i}\t{format_seconds(total)}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + ("\n" if blocks else "")
