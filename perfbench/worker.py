"""One benchmark run of one workload, inside a fresh interpreter.

``run.py`` starts this file with the absolute ``src`` path on PYTHONPATH,
its own empty ``POLSAT_REGISTRY`` and a per-run ``PERFBENCH_MARK`` in the
environment, which every solver process inherits.

    worker.py --setup --workload W          import polsat, build the solver set
    worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE

One caller drives the program in a closed loop: the next formula goes in
as soon as the previous verdict is back, with no pause between them.  The
untraced run measures passes over the workload's corpus (a formula that
ends undecided is not called again).  The traced run spends half its time
on untraced passes and half on traced ones (the difference is the tracing
overhead), then probes single layers on their own.  Results go to FILE as
JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
from spans import Recorder

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

#: Per-formula timeouts handed to the program.
TIMEOUTS = {"showcase": 60.0, "random": 10.0, "patterns": 2.0, "external": 10.0}
#: Solo engine probes stop at the workload timeout or this, if sooner.
PROBE_CAP = 15.0
#: Formulas of the first traced pass that the solo engine probes replay.
PROBE_SAMPLE = {"showcase": 4, "random": 40, "patterns": 20, "external": 8}

RANDOM_CORPUS = 200
#: At most 49, so that the five undecided formulas hold the 90th percentile.
PATTERNS_CORPUS = 49
#: Every patterns corpus holds the same five formulas a 2 s race leaves
#: undecided: those that need the fewest tableau charges, so engine
#: speed-ups decide them first.  At over 10 % they hold the 90th
#: percentile, which then moves only when one of them gets decided.
PATTERNS_HARD = 5
#: Random formulas whose race took longer when the pool was built (2 of
#: 2000, unsat, tableau-bound under contention) would each swing a pass's
#: wall by more than the bound.  Their kind of cost is what showcase and
#: patterns measure; this workload measures per-race fixed costs.
RANDOM_MAX_RACE_S = 0.5
EXTERNAL_CORPUS = 40
O1_SIZES = (100, 300)  # O1 widths for the external workload: tens of ms a race
STUB_SLEEP = 1.5  # outlives the 1 s kill window, then ends on its own


@dataclass
class Item:
    text: str
    expected: str  # "sat" | "unsat"
    path: Path | None = None  # one-formula input file, for run_file
    formula: object = None  # parsed ahead of the timed call (external)


@dataclass
class Outcome:
    kind: str  # "sat" | "unsat" | "unknown" | "error"
    winner: str
    evidence: tuple | None = None  # (prefix, loop) as the program gave it
    exit_code: int = 0


# ---------------------------------------------------------------------------
# Workloads: a corpus made from the seed, and one call per formula


def _pool(name: str) -> list[dict]:
    """Pool entries whose answer the cross-check settled."""
    entries = json.loads((DATA / f"{name}_pool.json").read_text())
    return [e for e in entries if e["expected"] != "unknown"]


def _o1_text(n: int) -> str:
    # (a1|b1) & ... & (an|bn) & (G c & X !c): unsatisfiable by construction.
    parts = [f"(a{i} | b{i})" for i in range(1, n + 1)]
    return " & ".join(parts + ["(G c & X !c)"])


def spread_sample(rng: random.Random, entries: list[dict], count: int) -> list[dict]:
    """``count`` entries drawn evenly across the pool ranked by race CPU time.

    The ranking is cut into ``count`` equal slices and one entry is drawn
    from each, so corpora from different seeds cost alike, which a plain
    sample of a heavy-tailed pool does not give.
    """
    ranked = sorted(entries, key=lambda e: e["race_cpu_s"])
    edges = [round(i * len(ranked) / count) for i in range(count + 1)]
    return [rng.choice(ranked[a:b]) for a, b in zip(edges, edges[1:])]


def corpus(workload: str, seed: int, scratch: Path) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "showcase":
        return [
            Item("a U b", "sat"),
            Item((DATA / "lift.ltl").read_text(), "sat"),
            Item((DATA / "counter.ltl").read_text(), "sat"),
            Item((DATA / "o1_100.ltl").read_text(), "unsat"),
        ]
    if workload == "random":
        pool = [e for e in _pool("random") if e["race_s"] <= RANDOM_MAX_RACE_S]
        picked = spread_sample(rng, pool, RANDOM_CORPUS)
        rng.shuffle(picked)
        return [Item(e["text"], e["expected"]) for e in picked]
    if workload == "patterns":
        pool = _pool("patterns")
        # "hard" is None where only some build-time races decided in time.
        hard = sorted((e for e in pool if e["hard"] is True), key=lambda e: e["tableau_charges"])
        easy = [e for e in pool if e["hard"] is False]
        picked = hard[:PATTERNS_HARD] + spread_sample(rng, easy, PATTERNS_CORPUS - PATTERNS_HARD)
        rng.shuffle(picked)
        items = []
        folder = scratch / "patterns"
        folder.mkdir(exist_ok=True)
        for k, e in enumerate(picked):
            path = folder / f"{k}.ltl"
            path.write_text(e["text"] + "\n")
            items.append(Item(e["text"], e["expected"], path))
        return items
    if workload == "external":
        from polsat import parse

        lo, hi = O1_SIZES  # one width from each of EXTERNAL_CORPUS equal slices
        step = (hi - lo) / EXTERNAL_CORPUS
        sizes = [int(lo + (k + rng.random()) * step) for k in range(EXTERNAL_CORPUS)]
        rng.shuffle(sizes)
        texts = [_o1_text(n) for n in sizes]
        return [Item(text, "unsat", formula=parse(text)) for text in texts]
    raise ValueError(workload)


class Caller:
    """Calls the program's public entry points, one formula at a time."""

    def __init__(self, workload: str, scratch: Path, recorder: Recorder | None = None):
        import polsat
        from polsat import cli

        self.polsat, self.cli = polsat, cli
        self.workload = workload
        self.timeout = TIMEOUTS[workload]
        self.scratch = scratch
        self.recorder = recorder
        self.race_span = None  # the span of the call in flight, traced runs only
        self.external_runs = 0
        self.solvers = self.solver_set()

    def solver_set(self) -> list:
        return self._internal() + [
            self._external(spec) for spec in self.polsat.Registry.load().specs
        ]

    def _internal(self) -> list:
        return [self.wrap(s) for s in self.polsat.internal_solvers()]

    def _external(self, spec, supports_evidence: bool = True):
        return self.wrap(self.polsat.as_solver_spec(spec, supports_evidence))

    def wrap(self, spec):
        """Give a solver a span per run, parented to the call in flight."""
        if self.recorder is None:
            return spec
        recorder, inner, caller = self.recorder, spec.run, self
        external = spec.kind == "external"

        def run(formula, timeout, cancel):
            parent = caller.race_span
            span = recorder.open("portfolio.run", parent.id, solver=spec.name, external=external)
            record = inner(formula, timeout, cancel)
            recorder.close(span, kind=record.verdict.kind)
            return record

        return self.polsat.SolverSpec(
            spec.name, spec.kind, run, spec.supports_evidence, spec.detail
        )

    @contextlib.contextmanager
    def cli_solvers(self):
        """During a traced pass, the CLI builds its solver set through ``wrap``."""
        if self.recorder is None:
            yield
            return
        cli = self.cli
        saved = cli.internal_solvers, cli.as_solver_spec
        cli.internal_solvers = self._internal
        cli.as_solver_spec = self._external
        try:
            yield
        finally:
            cli.internal_solvers, cli.as_solver_spec = saved

    def call(self, item: Item, index: int) -> Outcome:
        polsat = self.polsat
        if self.workload == "showcase":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), self.cli_solvers():
                code = self.cli.main(["-e", item.text])
            return _transcript(out.getvalue(), code)
        if self.workload == "patterns":
            report = polsat.run_file(
                item.path,
                self.solvers,
                timeout=self.timeout,
                mode="race",
                out_path=self.scratch / "output.txt",
            )
            (outcome,) = report.outcomes
            records = report.records.get(outcome.winner) or []
            evidence = records[0].verdict.evidence if records else None
            return Outcome(outcome.verdict, outcome.winner, _word(evidence))
        if self.workload == "external":
            self.external_runs += 1
            os.environ["PERFBENCH_RACE"] = str(index)
        formula = item.formula or polsat.parse(item.text)
        result = polsat.race(
            formula, self.solvers, self.timeout, want_evidence=self.workload == "random"
        )
        return Outcome(result.verdict.kind, result.winner, _word(result.verdict.evidence))


def _word(lasso) -> tuple | None:
    return None if lasso is None else checker.word_of(lasso)


def _transcript(text: str, code: int) -> Outcome:
    # verdict, [evidence], "from <solver>", "eclipse time: <t>s"
    lines = text.splitlines()
    if len(lines) < 3 or not lines[-2].startswith("from "):
        return Outcome("error", "none", exit_code=code)
    evidence = None
    if len(lines) == 4:
        try:
            evidence = checker.parse_word(lines[1])
        except ValueError:
            return Outcome("error", lines[-2][5:], exit_code=code)
    return Outcome(lines[0].strip(), lines[-2][5:], evidence, code)


def judge(item: Item, outcome: Outcome, formula, want_evidence: bool) -> str | None:
    """Why the outcome is wrong, or None when it is right."""
    if outcome.kind == "unknown":
        return None if outcome.winner == "none" else "unknown verdict from a winner"
    if outcome.kind not in ("sat", "unsat"):
        return f"no verdict: {outcome.kind} from {outcome.winner}, exit {outcome.exit_code}"
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}"
    if outcome.kind != item.expected:
        return f"{outcome.kind}, expected {item.expected}"
    if outcome.kind == "sat":
        if outcome.evidence is None:
            return "missing evidence" if want_evidence else None
        if not checker.holds(*outcome.evidence, formula):
            return "evidence does not satisfy the formula"
    return None


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    wall: float
    times: list[float]  # per call: CPU time if it decided, else wall time
    outcomes: list[Outcome]
    items: list[Item]


def decided(outcome: Outcome) -> bool:
    return outcome.kind in ("sat", "unsat")


def run_pass(caller: Caller, items: list[Item], first_index: int) -> Pass:
    times, outcomes = [], []
    recorder = caller.recorder
    started = time.perf_counter()
    for k, item in enumerate(items):
        if recorder is not None:
            caller.race_span = recorder.open(
                "call", text=item.text, index=first_index + k, wall=time.time()
            )
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outcome = caller.call(item, first_index + k)
        except Exception as exc:  # counted as a failure, never fatal
            outcome = Outcome("error", f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        times.append(time.process_time() - c0 if decided(outcome) else wall)
        outcomes.append(outcome)
        if recorder is not None:
            recorder.close(caller.race_span, winner=outcome.winner, kind=outcome.kind)
    return Pass(time.perf_counter() - started, times, outcomes, items)


def run_passes(caller: Caller, passes_items, seconds: float, index: int = 0) -> list[Pass]:
    """Passes until ``seconds`` are used up; at least one.

    The first pass calls every formula.  A formula that once ends
    undecided is not called again: its time is the timeout, so repeating
    it would only crowd out the repetitions of the others.
    """
    done: list[Pass] = []
    undecided: set[str] = set()
    started = time.perf_counter()
    while True:
        items = [item for item in next(passes_items) if item.text not in undecided]
        if not items:
            return done
        done.append(run_pass(caller, items, index))
        index += len(items)
        undecided.update(i.text for i, o in zip(items, done[-1].outcomes) if not decided(o))
        spent = time.perf_counter() - started
        if spent + statistics.median(p.wall for p in done) > seconds:
            return done


def pass_orders(items: list[Item], seed: int, workload: str):
    rng = random.Random(f"order:{workload}:{seed}")
    while True:
        yield rng.sample(items, len(items))


def quiesce(mark: str, limit: float = 20.0) -> int:
    """Wait for every solver thread and marked process to end.

    Returns how many marked processes were still alive once every solver
    thread had returned, that is after the kill window.
    """
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline and any(
        t.name.startswith("polsat-") for t in threading.enumerate()
    ):
        time.sleep(0.02)
    leaked = len(marked_pids(mark))
    while time.monotonic() < deadline and marked_pids(mark):
        time.sleep(0.05)
    return leaked


def marked_pids(mark: str, prefix: bool = False) -> list[int]:
    """Live (non-zombie) processes, other than this one, carrying the mark."""
    entry = f"PERFBENCH_MARK={mark}".encode()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as fh:
                env = fh.read().split(b"\0")
            if not any(e.startswith(entry) if prefix else e == entry for e in env):
                continue
            with open(f"/proc/{name}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state != b"Z":
            found.append(int(name))
    return found


# ---------------------------------------------------------------------------
# Metrics


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def judge_passes(passes: list[Pass], want_evidence: bool, polsat) -> tuple[int, int, list]:
    attempted = failed = 0
    problems = []
    formulas: dict[str, object] = {}
    for p in passes:
        for item, outcome in zip(p.items, p.outcomes):
            attempted += 1
            try:
                if item.text not in formulas:
                    formulas[item.text] = polsat.parse(item.text)
                why = judge(item, outcome, formulas[item.text], want_evidence)
            except Exception as exc:  # a checker crash is a failed check
                why = f"checker raised {type(exc).__name__}: {exc}"
            if why is not None:
                failed += 1
                if len(problems) < 20:
                    problems.append({"formula": " ".join(item.text.split())[:200], "problem": why})
    return attempted, failed, problems


def calls_by_formula(passes: list[Pass]) -> dict[str, list[tuple[float, bool]]]:
    """Each formula's calls over the passes: (time, decided)."""
    calls: dict[str, list[tuple[float, bool]]] = {}
    for p in passes:
        for item, t, outcome in zip(p.items, p.times, p.outcomes):
            calls.setdefault(item.text, []).append((t, decided(outcome)))
    return calls


def verdict_times(passes: list[Pass]) -> dict[str, float]:
    """Each formula's median time to verdict over its calls."""
    return {
        text: statistics.median(t for t, _ in calls)
        for text, calls in calls_by_formula(passes).items()
    }


def end_to_end(passes: list[Pass]) -> dict:
    """Per formula, the median of its calls; ``wall_s`` is their sum.

    A decided call is timed on the process CPU clock (every thread of
    this process, user and system), an undecided one at its wall time.
    The host of a small cloud guest takes CPU time away in stretches of
    seconds to minutes (steal): on wall time a formula's median moved by
    a third from run to run, and even its fastest call by a quarter,
    while its CPU time stayed within a few percent.
    """
    times = list(verdict_times(passes).values())
    solved = [statistics.fmean(d for _, d in calls)
              for calls in calls_by_formula(passes).values()]
    return {
        "wall_s": sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_p90_s": nearest_rank(times, 0.9),
        "solved_frac": statistics.fmean(solved),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(caller: Caller, recorder: Recorder, traced: list[Pass], probe_items: list[Item]) -> tuple[dict, dict]:
    polsat = caller.polsat
    # The formulas layer, replayed on the first traced pass.
    sizes = []
    for item in traced[0].items:
        span = recorder.open("formulas.parse")
        formula = polsat.parse(item.text)
        recorder.close(span)
        span = recorder.open("formulas.nnf", span.id)
        normal = polsat.nnf(formula)
        recorder.close(span)
        sizes.append((polsat.node_count(formula), polsat.node_count(normal)))

    spans = [s for s in recorder.spans if s.end]
    runs_by_call: dict[int, list] = {}
    for s in spans:
        if s.name == "portfolio.run":
            runs_by_call.setdefault(s.parent, []).append(s)
    calls = [s for s in spans if s.name == "call"]

    overhead, cancel_ack, kill, winner_runs, useful, total = [], [], [], {}, 0.0, 0.0
    for call in calls:
        runs = runs_by_call.get(call.id, [])
        total += sum(r.seconds for r in runs)
        win = [r for r in runs if r.attrs["solver"] == call.attrs["winner"]
               and r.attrs.get("kind") in ("sat", "unsat")]
        if win:
            useful += win[0].seconds
            overhead.append(call.seconds - win[0].seconds)
            winner_runs.setdefault((call.attrs["text"], call.attrs["winner"]), []).append(
                win[0].seconds
            )
        if runs:
            cancel_ack.append(max(0.0, max(r.end for r in runs) - call.end))
        kill.extend(max(0.0, r.end - call.end) for r in runs if r.attrs["external"])

    wins = {name: 0 for name in ("tableau", "lasso", "shortcut")}
    for outcome in traced[0].outcomes:
        if outcome.winner in wins:
            wins[outcome.winner] += 1

    # Winner evidence, replayed through the program's own evaluator.
    validate, states = [], [0]
    for p in traced:
        for item, outcome in zip(p.items, p.outcomes):
            if outcome.kind == "sat" and outcome.evidence is not None:
                word = polsat.LassoWord(*outcome.evidence)
                formula = polsat.parse(item.text)
                t0 = time.perf_counter()
                polsat.evaluate(word, formula)
                validate.append(time.perf_counter() - t0)
                states.append(len(word.prefix) + len(word.loop))

    engine, details = engine_probes(polsat, probe_items, caller.timeout)
    in_race = solo = 0.0
    for row, item, outcome in zip(details, probe_items, traced[0].outcomes):
        runs = winner_runs.get((item.text, outcome.winner))
        if runs and outcome.winner in row["seconds"]:
            row["in_race"] = {outcome.winner: statistics.median(runs)}
            in_race += statistics.median(runs)
            solo += row["seconds"][outcome.winner]

    metrics = {
        "formulas.parse_s": _median(s.seconds for s in spans if s.name == "formulas.parse"),
        "formulas.nnf_s": _median(s.seconds for s in spans if s.name == "formulas.nnf"),
        "formulas.nnf_blowup": sum(b for _, b in sizes) / sum(a for a, _ in sizes),
        **engine,
        "engine.overshoot_s": overshoot(polsat),
        "lasso.validate_s": _median(validate),
        "lasso.evidence_states": max(states),
        **eval_series(polsat),
        "portfolio.overhead_s": _median(overhead),
        "portfolio.contention": in_race / solo if solo else 0.0,
        "portfolio.cancel_ack_s": statistics.fmean(cancel_ack) if cancel_ack else 0.0,
        "portfolio.useful_frac": useful / total if total else 0.0,
        **{f"portfolio.wins.{name}": n for name, n in wins.items()},
        "external.kill_s": _median(kill),
        "external.spawn_s": spawn_seconds(caller.scratch, calls),
    }
    return metrics, {"probes": details}


def engine_probes(polsat, items: list[Item], timeout: float) -> tuple[dict, list]:
    """Each internal solver alone on the probe formulas, under our own Budget."""
    from polsat.engine import run_strategy

    limit = min(timeout, PROBE_CAP)
    seconds = {"tableau": 0.0, "lasso": 0.0, "shortcut": 0.0}
    charges = {"tableau": 0, "lasso": 0}
    hits = 0
    details = []
    for item in items:
        formula = polsat.parse(item.text)
        row = {"formula": item.text[:80], "seconds": {}, "charges": {}, "verdict": {}}
        for solver in ("tableau", "lasso", "shortcut"):
            if solver == "lasso" and item.expected != "sat":
                continue  # sat-only search: on unsat it can only run out the clock
            budget = polsat.Budget(max_nodes=None, deadline=time.monotonic() + limit)
            t0 = time.perf_counter()
            if solver == "tableau":
                verdict = polsat.tableau_check(formula, budget)
            else:
                verdict = run_strategy(solver, formula, budget)
            dt = time.perf_counter() - t0
            seconds[solver] += dt
            row["seconds"][solver] = dt
            row["charges"][solver] = budget.nodes
            row["verdict"][solver] = verdict.kind
            if solver in charges and verdict.is_definitive:
                charges[solver] += budget.nodes
            hits += solver == "shortcut" and verdict.is_sat
        details.append(row)
    metrics = {
        "engine.tableau_s": seconds["tableau"],
        "engine.tableau_charges": charges["tableau"],
        "engine.lasso_s": seconds["lasso"],
        "engine.lasso_charges": charges["lasso"],
        "engine.shortcut_s": seconds["shortcut"],
        "engine.shortcut_hit_frac": hits / len(items),
    }
    return metrics, details


def overshoot(polsat) -> float:
    """How far ``lasso`` on O1_100 runs past a 1 s deadline."""
    from polsat.engine import run_strategy

    formula = polsat.parse((DATA / "o1_100.ltl").read_text())
    deadline = time.monotonic() + 1.0
    run_strategy("lasso", formula, polsat.Budget(max_nodes=None, deadline=deadline))
    return time.monotonic() - deadline


def eval_series(polsat) -> dict:
    """``evaluate`` of G F a on loops of 1k/2k/4k states, one of them with a."""
    formula = polsat.parse("G F a")
    out = {}
    for k, reps in ((1, 3), (2, 3), (4, 1)):
        loop = [frozenset()] * (k * 1000 - 1) + [frozenset({"a"})]
        word = polsat.LassoWord((), tuple(loop))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            polsat.evaluate(word, formula)
            times.append(time.perf_counter() - t0)
        out[f"lasso.eval_gfa_{k}k_s"] = statistics.median(times)
    return out


def spawn_seconds(scratch: Path, calls: list) -> float:
    """From a traced race's start to its stub's first instruction."""
    log = scratch / "spawn.log"
    if not log.exists():
        return 0.0
    stamps = {}
    for line in log.read_text().splitlines():
        race, _, stamp = line.partition(" ")
        stamps.setdefault(race, float(stamp))
    starts = {str(c.attrs["index"]): c.attrs["wall"] for c in calls if "index" in c.attrs}
    return _median(stamps[r] - w for r, w in starts.items() if r in stamps)


# ---------------------------------------------------------------------------
# Entry point


def write_stub(scratch: Path) -> Path:
    stub = scratch / "silent-solver"
    stub.write_text(
        "#!/bin/sh\n"
        "# Never answers: logs when it started, then waits in a child.\n"
        f'date +"$PERFBENCH_RACE %s.%N" >> "{scratch}/spawn.log"\n'
        f"sleep {STUB_SLEEP}\n"
    )
    stub.chmod(0o755)
    return stub


def setup(workload: str, scratch: Path) -> None:
    import polsat

    if workload == "external" and not polsat.Registry.load().specs:
        polsat.register(str(write_stub(scratch)))
    solvers = polsat.internal_solvers() + [
        polsat.as_solver_spec(spec) for spec in polsat.Registry.load().specs
    ]
    expected = 4 if workload == "external" else 3
    if len(solvers) != expected:
        raise SystemExit(f"solver set has {len(solvers)} solvers, expected {expected}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    scratch = Path(os.environ["PERFBENCH_MARK"])
    if args.setup:
        setup(args.workload, scratch)
        return 0

    mark = os.environ["PERFBENCH_MARK"]
    items = corpus(args.workload, args.seed, scratch)
    orders = pass_orders(items, args.seed, args.workload)
    want_evidence = args.workload in ("random", "showcase")
    import polsat

    result: dict = {"formulas_per_pass": len(items)}
    if not args.trace:
        caller = Caller(args.workload, scratch)
        passes = run_passes(caller, orders, args.seconds)
        leaked = quiesce(mark)
        attempted, failed, problems = judge_passes(passes, want_evidence, polsat)
        metrics = end_to_end(passes)
        ranked = sorted(verdict_times(passes).items(), key=lambda kv: kv[1])
        details: dict = {
            "passes": len(passes),
            "pass_walls": [p.wall for p in passes],
            "verdict_times": [[text[:60], t] for text, t in ranked],
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        plain_caller = Caller(args.workload, scratch)
        plain = run_passes(plain_caller, orders, args.seconds / 2)
        quiesce(mark)
        rss = peak_rss_mb()  # before the traced passes and the probes
        recorder = Recorder()
        caller = Caller(args.workload, scratch, recorder)
        traced = run_passes(caller, orders, args.seconds / 2, index=10**6)
        leaked = quiesce(mark)
        attempted, failed, problems = judge_passes(plain + traced, want_evidence, polsat)
        probe_items = traced[0].items[: PROBE_SAMPLE[args.workload]]
        metrics, details = layer_metrics(caller, recorder, traced, probe_items)
        # wall_s traced minus wall_s untraced
        metrics["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(plain)["wall_s"]
        metrics["failed_frac"] = failed / attempted
        metrics["peak_rss_mb"] = rss
        details["passes"] = {"untraced": len(plain), "traced": len(traced)}
        recorder.dump(scratch / "spans.jsonl")
        caller.external_runs += plain_caller.external_runs
    metrics["leaked_procs"] = leaked
    result.update(
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics=metrics,
        details=details,
        external_runs=caller.external_runs,
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
