"""Race solvers on one formula; first definitive verdict wins.

Every configured solver runs on its own thread.  The first Sat/Unsat
answer decides the result; its thread cancels every other solver before it
reports (internal solvers via a flag, external processes via
terminate-then-kill), and a solver not yet started then never starts.
A race's first solver runs alone for one switch interval, as long as a
CPU-bound thread holds the interpreter lock anyway, so a race it settles
that fast wakes no other thread and spawns no process.  ``run_all``
instead lets every solver finish and :func:`arbitrate` checks the answers
for consistency, which is what makes the portfolio usable as a
solver-testing platform.

In a race the internal solvers split the formula once and share which
components they have shown sat; in ``run_all`` every solver works alone.

Both start solvers through one launcher.  It names every record after its
:class:`SolverSpec`, turns a solver that raises into an Unknown(solver-error)
record, and applies one accounting rule: a timed-out run costs exactly the
timeout, and any other run costs at most the timeout plus ``GRACE_SECONDS``.
It is also the one place a sat witness is checked, before its record can
decide a race: a record whose witness does not satisfy the formula keeps
its sat verdict, loses the witness, and says so in its ``detail``, so
races, ``run_all`` and :func:`arbitrate` all read the same checked records.

Solver threads are reused across races; a new one starts only when none is
idle, and one idle for ``GRACE_SECONDS`` exits.  At interpreter exit, runs
still going get up to ``2 * GRACE_SECONDS`` to end, so that a cancelled
external solver is killed rather than left to outlive the interpreter.
"""

from __future__ import annotations

import atexit
import contextvars
import logging
import math
import queue
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .engine import _RACE_SPLIT, _STRATEGIES, Budget, Verdict, _Split, run_strategy
from .formulas import Formula
from .lasso import evaluate

__all__ = [
    "SolverSpec",
    "RunRecord",
    "PortfolioResult",
    "ConsistencyReport",
    "internal_solvers",
    "race",
    "run_all",
    "arbitrate",
]

log = logging.getLogger(__name__)

#: Extra seconds granted past the timeout for workers to report; also how
#: long a terminated external solver has before it is killed.
GRACE_SECONDS = 1.0

Runner = Callable[[Formula, float, threading.Event], "RunRecord"]


@dataclass(frozen=True)
class SolverSpec:
    """A runnable solver: a name, a worker callable, and capabilities."""

    name: str
    kind: str  # "internal" | "external"
    run: Runner
    supports_evidence: bool = True
    detail: str = ""


@dataclass(frozen=True)
class RunRecord:
    """One solver's answer on one formula."""

    solver: str
    verdict: Verdict
    elapsed: float


@dataclass(frozen=True)
class PortfolioResult:
    """A race's verdict, who produced it and when, and every record received."""

    verdict: Verdict
    winner: str
    elapsed: float
    records: tuple[RunRecord, ...] = ()


@dataclass(frozen=True)
class ConsistencyReport:
    """Cross-solver agreement over a set of run records.

    Unknown verdicts never create conflicts; ``verdict_groups`` maps each
    definitive verdict word to the solvers that produced it, and
    ``invalid_evidence`` names solvers whose sat witness the launcher
    rejected.
    """

    consistent: bool
    verdict_groups: dict[str, tuple[str, ...]]
    invalid_evidence: tuple[str, ...] = ()


def internal_solvers() -> list[SolverSpec]:
    """One solver per internal strategy, in order: tableau, lasso, shortcut."""
    return [
        SolverSpec(name, "internal", _internal_runner(name), True, name)
        for name in _STRATEGIES
    ]


def _internal_runner(strategy: str) -> Runner:
    def run(formula: Formula, timeout: float, cancel: threading.Event) -> RunRecord:
        start = time.monotonic()
        budget = Budget(max_nodes=None, deadline=start + timeout, cancel=cancel)
        verdict = run_strategy(strategy, formula, budget)
        return RunRecord(strategy, verdict, time.monotonic() - start)

    return run


#: The detail of a sat verdict whose witness failed the launcher's check.
_REJECTED = "witness does not satisfy the formula; dropped"


#: Inboxes of the solver threads waiting for a run, the latest idle last,
#: and the number of runs handed out and not yet done.
_idle: list[queue.SimpleQueue] = []
_busy = 0
_idle_lock = threading.Lock()


def _submit(name: str, run: Callable[..., None], *args: object) -> None:
    """Hand ``run(*args)`` to an idle solver thread, or else to a new one: a
    run never waits behind a busy thread, such as a cancelled solver's."""
    global _busy
    with _idle_lock:
        inbox = _idle.pop() if _idle else None
        _busy += 1
    if inbox is None:
        inbox = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(inbox,), daemon=True, name=f"polsat-{name}").start()
    inbox.put((name, run, args))


def _serve(inbox: queue.SimpleQueue) -> None:
    """Do the runs that arrive in ``inbox``, each in a fresh context so that it
    drops its ``_RACE_SPLIT``; exit after ``GRACE_SECONDS`` without one."""
    global _busy
    while True:
        try:
            name, run, args = inbox.get(timeout=GRACE_SECONDS)
        except queue.Empty:
            with _idle_lock:
                if inbox in _idle:  # otherwise a run is on its way
                    _idle.remove(inbox)
                    return
            name, run, args = inbox.get()
        threading.current_thread().name = f"polsat-{name}"
        contextvars.Context().run(run, *args)
        threading.current_thread().name = "polsat (idle)"
        run = args = None  # keep nothing of the finished race alive
        with _idle_lock:
            _idle.append(inbox)
            _busy -= 1


@atexit.register
def _drain() -> None:
    """Wait up to ``2 * GRACE_SECONDS`` for the runs still going.  Solver
    threads are daemons: without this wait, a cancelled external solver's
    kill would never run once the interpreter exits."""
    give_up = time.monotonic() + 2 * GRACE_SECONDS
    while _busy and time.monotonic() < give_up:
        time.sleep(0.005)


def _launch(
    formula: Formula,
    solvers: list[SolverSpec],
    timeout: float,
    cancels: list[threading.Event],
    split: _Split | None = None,
    decides: Callable[[Verdict], bool] | None = None,
) -> Iterator[tuple[int, RunRecord]]:
    """Run each solver on a solver thread and yield ``(index, record)``.

    Nothing starts before the first record is asked for, and in a race
    (``decides`` given) only ``solvers[0]`` starts then: the rest start when
    a second record is asked for or ``sys.getswitchinterval()`` passes with
    none, so never if the generator is closed first.  Every record is
    named after its :class:`SolverSpec`; a ``run`` that raises becomes
    Unknown(solver-error); a sat witness that does not satisfy ``formula`` is
    dropped, and the record's detail says so.  A record whose verdict
    ``decides`` sets every cancel before it is posted; a run whose cancel is
    set when it is due to start is skipped as Unknown(cancelled), elapsed 0.
    Records that arrive together come lowest index first.  The iterator ends
    once every solver has reported, or ``2 * GRACE_SECONDS`` after the
    timeout: time for a kill to escalate and for the process to be reaped.
    """
    if not solvers:
        raise ValueError("no solvers configured")
    names = [s.name for s in solvers]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate solver names: {names}")
    if not 0 < timeout < math.inf:  # nan never expires; a timed-out run is charged the timeout
        raise ValueError(f"timeout must be a positive finite number, not {timeout!r}")
    give_up = time.monotonic() + timeout + 2 * GRACE_SECONDS
    results: "queue.SimpleQueue[tuple[int, RunRecord]]" = queue.SimpleQueue()

    def worker(i: int, spec: SolverSpec) -> None:
        _RACE_SPLIT.set(split)  # seen by run_strategy in this run only
        start = time.monotonic()
        try:
            if cancels[i].is_set():  # the race is decided: start nothing
                verdict, elapsed = Verdict.cancelled(), 0.0
            else:
                record = spec.run(formula, timeout, cancels[i])
                verdict, elapsed = record.verdict, record.elapsed
                witness = verdict.evidence
                if verdict.is_sat and witness is not None and not evaluate(witness, formula):
                    log.warning("solver %s returned invalid evidence; dropped", spec.name)
                    verdict = Verdict("sat", detail=_REJECTED)
        except Exception as exc:  # a solver bug must not kill the race
            log.exception("solver %s failed", spec.name)
            verdict = Verdict.error(f"{type(exc).__name__}: {exc}")
            elapsed = time.monotonic() - start
        if verdict.is_timeout:
            elapsed = timeout
        if decides is not None and decides(verdict):
            for event in cancels:
                event.set()
        results.put((i, RunRecord(spec.name, verdict, min(elapsed, timeout + GRACE_SECONDS))))

    started = 1 if decides is not None else len(solvers)  # a race's head start
    for i in range(started):
        _submit(solvers[i].name, worker, i, solvers[i])
    pending = len(solvers)
    while pending:
        wait = max(0.0, give_up - time.monotonic())
        if started < len(solvers):
            wait = min(wait, sys.getswitchinterval())
        try:
            arrived = [results.get(timeout=min(wait, threading.TIMEOUT_MAX))]
        except queue.Empty:
            if started == len(solvers):
                return
            arrived = []
        while not results.empty():  # this generator is the only reader
            arrived.append(results.get_nowait())
        pending -= len(arrived)
        yield from sorted(arrived, key=lambda item: item[0])
        for i in range(started, len(solvers)):  # the head start is over
            _submit(solvers[i].name, worker, i, solvers[i])
        started = len(solvers)


def race(
    formula: Formula,
    solvers: list[SolverSpec],
    timeout: float,
    want_evidence: bool = False,
) -> PortfolioResult:
    """Run all solvers concurrently; the first definitive verdict wins.

    ``solvers[0]`` gets a head start of one switch interval.  On a win every
    other worker is cancelled, by the winner's own thread when its verdict
    settles the race, and one not yet started never starts.
    If ``want_evidence`` is set and the winner has no evidence for a sat
    verdict, evidence-capable solvers keep running until one produces a
    witness that passes the launcher's check, or the timeout expires; the
    witness producer then becomes the winner.  If no solver answers, the
    result is Unknown(timeout) with winner ``"none"``.
    The internal solvers split the formula once and share per-component
    sat results; unsat still rests on the tableau's own check.
    """
    cancels = [threading.Event() for _ in solvers]

    def decides(verdict: Verdict) -> bool:  # ends the loop below whenever it arrives
        return verdict.is_definitive and not (want_evidence and verdict.evidence is None)

    pending = set(range(len(solvers)))
    received: list[RunRecord] = []
    winner: RunRecord | None = None

    try:
        for i, record in _launch(formula, solvers, timeout, cancels, _Split(formula), decides):
            pending.discard(i)
            received.append(record)
            verdict = record.verdict
            if winner is not None:  # held only while hunting for a witness
                if verdict.is_sat and verdict.evidence is not None:
                    winner = record
                    break
            elif verdict.is_definitive:
                winner = record
                if not (
                    want_evidence
                    and verdict.is_sat
                    and verdict.evidence is None
                    and any(solvers[j].supports_evidence for j in pending)
                ):
                    break
                for j in pending:
                    if not solvers[j].supports_evidence:
                        cancels[j].set()
    finally:
        for event in cancels:
            event.set()

    records = tuple(received)
    if winner is not None:
        return PortfolioResult(winner.verdict, winner.solver, winner.elapsed, records)
    return PortfolioResult(Verdict.timeout(), "none", timeout, records)


def run_all(
    formula: Formula, solvers: list[SolverSpec], timeout: float
) -> list[RunRecord]:
    """Run every solver to completion or its own timeout; no cancellation.

    Unlike a race, the solvers share nothing.  Records come back
    fastest-first, checked by the launcher as in a race: a sat witness that
    does not satisfy the formula is dropped and named in the verdict's
    detail.  A solver failure becomes an Unknown(solver-error) record rather
    than an exception.
    """
    never = threading.Event()
    reported = dict(_launch(formula, solvers, timeout, [never] * len(solvers)))
    out = [
        reported.get(i)
        or RunRecord(spec.name, Verdict.error("worker did not report"), timeout)
        for i, spec in enumerate(solvers)
    ]
    out.sort(key=lambda r: r.elapsed)
    return out


def arbitrate(records: list[RunRecord]) -> ConsistencyReport:
    """Check run records, as ``run_all`` or a race returns them, for verdict
    consistency.

    Solvers whose sat witness the launcher rejected are reported per solver,
    but that does not by itself make the verdicts inconsistent.
    """
    groups: dict[str, list[str]] = {}
    for record in records:
        if record.verdict.is_definitive:
            groups.setdefault(record.verdict.kind, []).append(record.solver)
    return ConsistencyReport(
        consistent=len(groups) <= 1,
        verdict_groups={kind: tuple(names) for kind, names in groups.items()},
        invalid_evidence=tuple(r.solver for r in records if r.verdict.detail == _REJECTED),
    )
