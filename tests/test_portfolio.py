import gc
import sys
import threading
import time
import weakref
from dataclasses import replace

import pytest

from polsat import engine, portfolio
from polsat.bench import gen_O1
from polsat.engine import Budget, Verdict, run_strategy
from polsat.external import ExternalSolverSpec, as_solver_spec
from polsat.formulas import _MAX_DEPTH, parse, render
from polsat.lasso import LassoWord, evaluate
from polsat.portfolio import (
    GRACE_SECONDS,
    RunRecord,
    SolverSpec,
    arbitrate,
    internal_solvers,
    race,
    run_all,
)

from conftest import UNDECIDED, sh_stub, sleeper_stub


@pytest.fixture
def stub_solver(stub_dir):
    def make(name, body, supports_evidence=True):
        path = stub_dir(name, body)
        return as_solver_spec(ExternalSolverSpec(path), supports_evidence)

    return make


def crashing_solver(name="crasher"):
    def run(formula, timeout, cancel):
        raise RuntimeError("boom")

    return SolverSpec(name, "external", run)


def scripted_solver(name, verdict, delay):
    def run(formula, timeout, cancel):
        time.sleep(delay)
        return RunRecord(name, verdict, delay)

    return SolverSpec(name, "external", run)


#: 22 variable-disjoint sat components.
#: 22 variable-disjoint components, each with both polarities of its
#: propositions, so the split's simplification leaves them all.
SPLIT = " & ".join(
    [f"(a{i} | b{i}) & (!a{i} | !b{i})" for i in range(1, 21)]
    + ["G F c", "(!c | X c)", "F G !d", "(d | X !d)"]
)


class TestRace:
    def test_internal_solvers_agree_on_until(self):
        f = parse("a U b")
        result = race(f, internal_solvers(), 60.0)
        assert result.verdict.is_sat
        assert result.winner in ("tableau", "lasso", "shortcut")
        assert result.verdict.kind == "sat"

    def test_split_formula_evidence_is_valid(self):
        # 22 variable-disjoint components; every solver alone must merge
        # its per-component lassos into one word the race accepts.
        f = parse(SPLIT)
        for spec in internal_solvers():
            result = race(f, [spec], 10.0, want_evidence=True)
            assert result.winner == spec.name
            assert result.verdict.is_sat and result.verdict.evidence is not None
            assert evaluate(result.verdict.evidence, f)

    def test_fast_stub_beats_sleeper(self, stub_solver):
        f = parse("a U b")
        fast = stub_solver("fastsat", sh_stub(["sat"]))
        slow = stub_solver("slowpoke", sleeper_stub(10))
        t0 = time.monotonic()
        result = race(f, [slow, fast], 10.0)
        elapsed = time.monotonic() - t0
        assert result.verdict.is_sat
        assert result.winner == "fastsat"
        assert elapsed < 1.0

    def test_stub_wins_while_the_first_solver_is_busy(self, stub_solver):
        # tableau holds the interpreter through its head start and beyond; the
        # stub must still start soon after it and answer first.
        instant = stub_solver("instant", sh_stub(["unsat"]))
        t0 = time.monotonic()
        result = race(parse(UNDECIDED), internal_solvers() + [instant], 30.0)
        elapsed = time.monotonic() - t0
        assert result.winner == "instant"
        assert elapsed < 1.0

    def test_sleeper_only_times_out_with_exact_accounting(self, stub_solver):
        slow = stub_solver("slowpoke", sleeper_stub(5))
        result = race(parse("a U b"), [slow], 0.2)
        assert result.verdict.kind == "unknown"
        assert result.verdict.reason == "timeout"
        assert result.winner == "none"
        assert result.elapsed == 0.2

    def test_never_returns_cancelled(self, stub_solver):
        fast = stub_solver("fastsat", sh_stub(["sat"]))
        slow = stub_solver("slowpoke", sleeper_stub(5))
        for _ in range(5):
            result = race(parse("a U b"), [slow, fast], 5.0)
            assert not result.verdict.is_cancelled

    def test_evidence_hunt_switches_winner(self, stub_solver):
        f = parse("a U b")
        bare = stub_solver("baresat", sh_stub(["sat"]), supports_evidence=False)
        helpful = stub_solver(
            "helpful",
            "#!/usr/bin/env python3\nimport time\ntime.sleep(0.3)\n"
            "print('sat')\nprint('(b)')\n",
        )
        result = race(f, [bare, helpful], 10.0, want_evidence=True)
        assert result.verdict.is_sat
        assert result.winner == "helpful"
        assert result.verdict.evidence == LassoWord([], [{"b"}])

    def test_evidence_hunt_cancels_only_solvers_without_evidence(self):
        # "bare" wins without evidence, after the head start; the hunt cancels
        # "mute", which cannot give evidence, and lets "witness" run on to
        # answer with a lasso.
        muted = threading.Event()
        witness_cancelled = []

        def mute(formula, timeout, cancel):
            if cancel.wait(5.0):
                muted.set()
            return RunRecord("mute", Verdict.cancelled(), 0.0)

        def witness(formula, timeout, cancel):
            muted.wait(5.0)
            witness_cancelled.append(cancel.is_set())
            return RunRecord("witness", Verdict.sat(LassoWord([], [{"a"}])), 0.0)

        solvers = [
            scripted_solver("bare", Verdict.sat(None), 0.05),
            SolverSpec("mute", "external", mute, supports_evidence=False),
            SolverSpec("witness", "external", witness),
        ]
        result = race(parse("a"), solvers, 10.0, want_evidence=True)
        assert muted.is_set()
        assert witness_cancelled == [False]
        assert result.winner == "witness"
        assert result.verdict.evidence == LassoWord([], [{"a"}])

    def test_evidence_hunt_inside_the_head_start_never_calls_the_cancelled(self):
        # "bare" answers before the others are submitted: the hunt cancels
        # "mute" before its run is due, so it is skipped, not called.
        called = []

        def mute(formula, timeout, cancel):
            called.append(True)
            return RunRecord("mute", Verdict.cancelled(), 0.0)

        def witness(formula, timeout, cancel):
            return RunRecord("witness", Verdict.sat(LassoWord([], [{"a"}])), 0.0)

        solvers = [
            scripted_solver("bare", Verdict.sat(None), 0.0),
            SolverSpec("mute", "external", mute, supports_evidence=False),
            SolverSpec("witness", "external", witness),
        ]
        result = race(parse("a"), solvers, 10.0, want_evidence=True)
        assert called == []
        assert RunRecord("mute", Verdict.cancelled(), 0.0) in result.records
        assert result.winner == "witness"
        assert result.verdict.evidence == LassoWord([], [{"a"}])

    def test_evidence_hunt_falls_back_to_first_winner(self, stub_solver):
        bare = stub_solver("baresat", sh_stub(["sat"]), supports_evidence=False)
        result = race(parse("a U b"), [bare], 1.0, want_evidence=True)
        assert result.verdict.is_sat
        assert result.winner == "baresat"
        assert result.verdict.evidence is None

    def test_invalid_external_evidence_is_dropped(self, stub_solver):
        # Stub claims sat on an unsat-looking evidence word; validation
        # strips the bogus witness but keeps the verdict.
        lying = stub_solver("liar", sh_stub(["sat", "(q)"]))
        f = parse("G p")
        result = race(f, [lying], 5.0)
        assert result.verdict.is_sat
        assert result.verdict.evidence is None

    def test_unsat_neither_wins_nor_ends_an_evidence_hunt(self):
        # A bare sat starts the hunt, an unsat arrives during it, and a
        # witness that honours its cancel arrives last: only a cancel from
        # the unsat could keep the witness from winning.
        def witness(formula, timeout, cancel):
            if cancel.wait(0.4):
                return RunRecord("witness", Verdict.cancelled(), 0.4)
            return RunRecord("witness", Verdict.sat(LassoWord([], [{"a"}])), 0.4)

        solvers = [
            scripted_solver("bare", Verdict.sat(None), 0.0),
            scripted_solver("no", Verdict.unsat(), 0.2),
            SolverSpec("witness", "external", witness),
        ]
        result = race(parse("a"), solvers, 10.0, want_evidence=True)
        assert result.winner == "witness"
        assert result.verdict.evidence == LassoWord([], [{"a"}])
        assert [r.solver for r in result.records] == ["bare", "no", "witness"]

    def test_lying_witness_cannot_settle_the_race(self):
        def honest(formula, timeout, cancel):
            if cancel.wait(0.3):
                return RunRecord("honest", Verdict.cancelled(), 0.3)
            return RunRecord("honest", Verdict.sat(LassoWord([], [{"p"}])), 0.3)

        solvers = [
            scripted_solver("liar", Verdict.sat(LassoWord([], [{"q"}])), 0.0),
            SolverSpec("honest", "external", honest),
        ]
        result = race(parse("G p"), solvers, 10.0, want_evidence=True)
        assert result.winner == "honest"
        assert result.verdict.evidence == LassoWord([], [{"p"}])
        liar = next(r for r in result.records if r.solver == "liar")
        assert liar.verdict.is_sat and liar.verdict.evidence is None
        assert liar.verdict.detail == portfolio._REJECTED

    def test_no_solvers_is_an_error(self):
        with pytest.raises(ValueError):
            race(parse("a"), [], 1.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="positive finite"):
            race(parse("a"), internal_solvers(), timeout)

    def test_timeout_beyond_the_platform_wait_limit(self):
        assert threading.TIMEOUT_MAX < 1e300
        result = race(parse("a U b"), internal_solvers(), 1e300)
        assert result.verdict.is_sat

    def test_duplicate_names_rejected(self, stub_solver):
        a = stub_solver("same", sh_stub(["sat"]))
        with pytest.raises(ValueError):
            race(parse("a"), [a, a], 1.0)

    def test_crashing_solver_does_not_stop_the_race(self):
        result = race(parse("a U b"), [crashing_solver()] + internal_solvers()[:1], 10.0)
        assert result.verdict.is_sat
        assert result.winner == "tableau"

    def test_shared_components_give_valid_evidence(self, monkeypatch):
        # The winner's lasso may merge lassos the other solvers posted for
        # components they settled, in an order that varies from run to run.  Six
        # solver threads and a short switch interval stress the sharing.
        splits = []
        real = engine._components
        monkeypatch.setattr(engine, "_components", lambda g: splits.append(g) or real(g))
        solvers = internal_solvers()
        solvers += [replace(s, name=s.name + "-2") for s in solvers]
        f = parse(SPLIT)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for k in range(20):
                result = race(f, solvers, 10.0, want_evidence=True)
                assert result.verdict.is_sat and result.verdict.evidence is not None
                assert evaluate(result.verdict.evidence, f)
                assert len(splits) == k + 1
        finally:
            sys.setswitchinterval(interval)

    def test_race_shares_one_lasso_per_component(self, monkeypatch):
        splits = []

        class TrackedSplit(engine._Split):
            def __init__(self, formula):
                super().__init__(formula)
                splits.append(self)

        monkeypatch.setattr(portfolio, "_Split", TrackedSplit)
        assert race(parse(SPLIT), internal_solvers(), 10.0).verdict.is_sat
        (split,) = splits
        components = split.components()
        assert sorted(split.sat) == list(range(len(components)))
        for i, component in enumerate(components):
            assert isinstance(split.sat[i], LassoWord)
            assert evaluate(split.sat[i], component)

    def test_race_splits_the_formula_once(self, monkeypatch):
        calls = {"_nnf_literals": 0, "_components": 0}
        for name in calls:

            def counted(g, real=getattr(engine, name), name=name):
                calls[name] += 1
                return real(g)

            monkeypatch.setattr(engine, name, counted)
        result = race(gen_O1(50), internal_solvers(), 30.0)
        assert result.verdict.is_unsat and result.winner == "tableau"
        assert calls == {"_nnf_literals": 1, "_components": 1}

    def test_sat_components_do_not_decide_an_undecided_one(self):
        fresh = " & ".join(f"(F x{i} | G y{i})" for i in range(10))
        f = parse(f"({UNDECIDED}) & {fresh}")
        t0 = time.monotonic()
        result = race(f, internal_solvers(), 0.05)
        assert time.monotonic() - t0 < 1.0
        assert result.verdict.is_timeout and result.winner == "none"
        assert result.elapsed == 0.05

    def test_records_in_arrival_order(self):
        early = scripted_solver("early", Verdict.incomplete("gave up"), 0.0)
        late = scripted_solver("late", Verdict.unsat(), 0.2)
        result = race(parse("p & !p"), [late, early], 5.0)
        assert result.winner == "late"
        assert result.records == (
            RunRecord("early", Verdict.incomplete("gave up"), 0.0),
            RunRecord("late", Verdict.unsat(), 0.2),
        )

    def test_timed_out_race_keeps_its_records(self):
        result = race(parse(UNDECIDED), internal_solvers(), 0.05)
        assert result.winner == "none"
        reasons = {r.solver: r.verdict.reason for r in result.records}
        assert reasons == {
            "tableau": "timeout",
            "lasso": "timeout",
            "shortcut": "incomplete",
        }

    def test_winner_verdict_provenance(self, stub_solver):
        # The winner's own record carries the reported verdict.
        unsat_stub = stub_solver("sayno", sh_stub(["unsat"]))
        result = race(parse("p & !p"), [unsat_stub], 5.0)
        assert result.winner == "sayno"
        assert result.verdict.is_unsat

    def test_formulas_at_the_nesting_limit_are_decided_in_threads(self):
        # Every pass that recurses on a formula (nnf, the pre-pass, the
        # solvers, evaluate, render and parsing the rendering) handles the
        # deepest formula parse accepts, off the main thread.
        results = {}

        def run():
            for text in (
                "X " * (_MAX_DEPTH - 2) + "(a & !a)",
                "X " * (_MAX_DEPTH - 3) + "(a & X !a)",
            ):
                f = parse(text)
                result = race(f, internal_solvers(), 60.0, want_evidence=True)
                results[text] = result, parse(render(f)) == f

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(120.0)
        assert not worker.is_alive()
        (unsat, unsat_roundtrip), (sat, sat_roundtrip) = results.values()
        assert unsat.verdict.is_unsat and sat.verdict.is_sat
        assert sat.verdict.evidence is not None
        assert unsat_roundtrip and sat_roundtrip
        for result in (unsat, sat):
            assert all(r.verdict.reason != "solver-error" for r in result.records)


class TestSolverThreads:
    def test_threads_are_reused_then_exit(self):
        f = parse("a U b")
        used, names, ended = set(), set(), [0.0]

        def recorded(spec, delay=0.0):
            def run(formula, timeout, cancel):
                used.add(threading.get_ident())
                names.add(threading.current_thread().name)
                cancel.wait(delay)  # outlast the head start: every solver starts
                try:
                    return spec.run(formula, timeout, cancel)
                finally:
                    ended[0] = max(ended[0], time.monotonic())

            return replace(spec, run=run)

        first, *rest = internal_solvers()
        solvers = [recorded(first, 0.02)] + [recorded(spec) for spec in rest]
        for _ in range(20):
            assert race(f, solvers, 10.0).verdict.is_sat
        # A thread per solver per race would be 60.  Cancelled solvers still
        # winding down when the next race starts keep a few more in the pool.
        assert len(used) <= 15
        assert names == {"polsat-tableau", "polsat-lasso", "polsat-shortcut"}

        def alive():
            return used & {t.ident for t in threading.enumerate()}

        while alive() and time.monotonic() < ended[0] + GRACE_SECONDS + 0.5:
            time.sleep(0.02)
        assert not alive()

    def test_finished_race_split_is_freed(self, monkeypatch):
        splits = []

        class TrackedSplit(engine._Split):
            def __init__(self, formula):
                super().__init__(formula)
                splits.append(weakref.ref(self))

        monkeypatch.setattr(portfolio, "_Split", TrackedSplit)
        assert race(parse(SPLIT), internal_solvers(), 10.0).verdict.is_sat
        # Wait for every run, started or skipped, to be done.
        deadline = time.monotonic() + 10.0
        while portfolio._busy and time.monotonic() < deadline:
            time.sleep(0.005)
        assert portfolio._busy == 0
        # An idle thread that kept the split would hold it for GRACE_SECONDS.
        deadline = time.monotonic() + GRACE_SECONDS / 2
        while splits[0]() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert len(splits) == 1 and splits[0]() is None

    def test_run_whose_cancel_is_set_never_starts(self):
        started = []

        def run(formula, timeout, cancel):
            started.append(True)
            return RunRecord("skipped", Verdict.sat(None), 0.0)

        solvers = [
            scripted_solver("first", Verdict.unsat(), 0.0),
            SolverSpec("skipped", "external", run),
        ]
        cancels = [threading.Event(), threading.Event()]
        cancels[1].set()
        records = dict(portfolio._launch(parse("a"), solvers, 5.0, cancels))
        assert started == []
        assert records[1] == RunRecord("skipped", Verdict.cancelled(), 0.0)
        assert records[0] == RunRecord("first", Verdict.unsat(), 0.0)

    def test_first_solver_deciding_in_its_head_start_runs_alone(self):
        calls = []

        def counted(name):
            def run(formula, timeout, cancel):
                calls.append(name)
                return RunRecord(name, Verdict.unsat(), 0.0)

            return SolverSpec(name, "internal", run)

        solvers = [counted("first"), counted("second"), counted("third")]
        for _ in range(20):
            result = race(parse("a"), solvers, 5.0)
            assert result.winner == "first"
            assert result.records == (RunRecord("first", Verdict.unsat(), 0.0),)
        assert calls == ["first"] * 20

    def test_deciders_racing_to_cancel_leave_a_definitive_winner(self):
        # Six solvers that all answer unless cancelled cancel one another
        # from their own threads, under a short switch interval.
        def polite(name):
            def run(formula, timeout, cancel):
                verdict = Verdict.cancelled() if cancel.is_set() else Verdict.unsat()
                return RunRecord(name, verdict, 0.0)

            return SolverSpec(name, "internal", run)

        solvers = [polite(f"polite{i}") for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = [race(parse("a"), solvers, 5.0) for _ in range(50)]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert result.verdict.is_unsat and result.winner.startswith("polite")
            assert result.records[-1].solver == result.winner

    def test_no_run_waits_behind_a_busy_thread(self):
        def stubborn(name):
            def run(formula, timeout, cancel):
                time.sleep(1.0)  # ignores the cancel event
                return RunRecord(name, Verdict.timeout(), 1.0)

            return SolverSpec(name, "internal", run)

        f = parse("a U b")
        instant = scripted_solver("instant", Verdict.unsat(), 0.0)
        start = time.monotonic()
        first = race(f, [stubborn(f"stubborn{i}") for i in range(3)] + [instant], 10.0)
        second = race(f, [instant], 10.0)
        assert first.winner == second.winner == "instant"
        assert time.monotonic() - start < 0.5

    def test_concurrent_races_lose_no_run(self, monkeypatch):
        # Idle threads exit after 1 ms here, so hand-offs race with exits; a
        # lost run leaves its race waiting out the timeout, answering "none".
        monkeypatch.setattr(portfolio, "GRACE_SECONDS", 0.001)
        instant = scripted_solver("instant", Verdict.unsat(), 0.0)
        winners = []

        def races():
            for _ in range(50):
                winners.append(race(parse("a"), [instant], 2.0).winner)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=races) for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=20.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert winners == ["instant"] * 200


class TestRunAll:
    def test_all_internal_records_present_and_sorted(self):
        f = parse("a U b")
        records = run_all(f, internal_solvers(), 10.0)
        assert [r.solver for r in records] != []
        assert len(records) == 3
        assert all(r.verdict.is_sat for r in records)
        elapsed = [r.elapsed for r in records]
        assert elapsed == sorted(elapsed)

    def test_single_solver(self):
        records = run_all(parse("a"), internal_solvers()[:1], 10.0)
        assert len(records) == 1
        assert records[0].solver == "tableau"

    def test_no_cancellation_between_solvers(self, stub_solver):
        # The sleeper runs into its own timeout even though others finished.
        fast = stub_solver("fastsat", sh_stub(["sat"]))
        slow = stub_solver("slowpoke", sleeper_stub(5))
        t0 = time.monotonic()
        records = run_all(parse("a U b"), [fast, slow], 0.5)
        assert time.monotonic() - t0 >= 0.5
        by_name = {r.solver: r for r in records}
        assert by_name["fastsat"].verdict.is_sat
        assert by_name["slowpoke"].verdict.reason == "timeout"
        assert by_name["slowpoke"].elapsed == 0.5

    def test_timeout_beyond_the_platform_wait_limit(self):
        records = run_all(parse("a U b"), internal_solvers(), 1e300)
        assert [r.verdict.kind for r in records] == ["sat"] * 3

    def test_invalid_witness_is_dropped(self, stub_solver):
        # The liar's witness never has p, so it fails G p: its record keeps
        # sat, loses the witness and says why.
        lying = stub_solver("liar", sh_stub(["sat", "(q)"]))
        f = parse("G p")
        records = {r.solver: r.verdict for r in run_all(f, [lying] + internal_solvers(), 10.0)}
        assert records["liar"].is_sat
        assert records["liar"].evidence is None
        assert "does not satisfy" in records["liar"].detail
        for verdict in records.values():
            assert verdict.evidence is None or evaluate(verdict.evidence, f)

    def test_crashing_solver_yields_a_measured_error_record(self):
        records = run_all(parse("a U b"), [crashing_solver()] + internal_solvers()[:1], 10.0)
        crashed = {r.solver: r for r in records}["crasher"]
        assert crashed.verdict.kind == "unknown"
        assert crashed.verdict.reason == "solver-error"
        assert "boom" in crashed.verdict.detail
        assert crashed.elapsed < 1.0  # measured, not charged the 10 s timeout

    def test_internal_solvers_work_alone(self):
        # Unlike a race, run_all shares nothing: each solver's record is
        # the verdict it reaches on its own.
        f = gen_O1(50)
        records = {r.solver: r.verdict for r in run_all(f, internal_solvers(), 30.0)}
        for name, kind, reason in (
            ("tableau", "unsat", None),
            ("lasso", "unknown", "incomplete"),
            ("shortcut", "unknown", "incomplete"),
        ):
            solo = run_strategy(name, f, Budget(max_nodes=None))
            assert (solo.kind, solo.reason) == (kind, reason)
            assert (records[name].kind, records[name].reason) == (kind, reason)

    def test_disagreement_left_to_arbitrate(self, stub_solver):
        wrong = stub_solver("sayno", sh_stub(["unsat"]))
        f = parse("a U b")
        records = run_all(f, internal_solvers()[:1] + [wrong], 10.0)
        assert len(records) == 2
        report = arbitrate(records)
        assert not report.consistent
        assert set(report.verdict_groups) == {"sat", "unsat"}
        assert report.verdict_groups["sat"] == ("tableau",)
        assert report.verdict_groups["unsat"] == ("sayno",)


class TestArbitrate:
    def test_all_sat_consistent(self):
        records = [
            RunRecord("a", Verdict.sat(), 0.1),
            RunRecord("b", Verdict.sat(), 0.2),
        ]
        assert arbitrate(records).consistent

    def test_empty_is_consistent(self):
        assert arbitrate([]).consistent

    def test_conflict_names_both_solvers(self):
        records = [
            RunRecord("yes", Verdict.sat(), 0.1),
            RunRecord("no", Verdict.unsat(), 0.2),
        ]
        report = arbitrate(records)
        assert not report.consistent
        assert report.verdict_groups["sat"] == ("yes",)
        assert report.verdict_groups["unsat"] == ("no",)

    def test_unknown_never_conflicts(self):
        records = [
            RunRecord("a", Verdict.sat(), 0.1),
            RunRecord("b", Verdict.timeout(), 1.0),
            RunRecord("c", Verdict.error("boom"), 0.5),
        ]
        assert arbitrate(records).consistent

    def test_invalid_evidence_reported_per_solver(self, stub_solver):
        honest = stub_solver("honest", sh_stub(["sat", "(p)"]))
        lying = stub_solver("liar", sh_stub(["sat", "(q)"]))
        report = arbitrate(run_all(parse("G p"), [honest, lying], 10.0))
        assert report.consistent  # verdicts agree
        assert report.invalid_evidence == ("liar",)

    def test_race_records_name_invalid_evidence(self, stub_solver):
        lying = stub_solver("liar", sh_stub(["sat", "(q)"]))
        honest = stub_solver("honest", "#!/bin/sh\nsleep 0.2\necho sat\necho '(p)'\n")
        result = race(parse("G p"), [lying, honest], 10.0, want_evidence=True)
        assert result.winner == "honest"
        assert arbitrate(result.records).invalid_evidence == ("liar",)
