"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion 1 is the heavyweight one (an exhaustive
small-formula equivalence check against a brute-force oracle) and takes a
few minutes on its own; everything else is fast.
"""

import contextlib
import gc
import re
import subprocess
import sys
import time

import pytest

from polsat.bench import cactus, gen_conjunction, gen_O1, run_file
from polsat.cli import main as cli_main
from polsat.engine import Budget, run_strategy, tableau_check
from polsat.external import ENV_REGISTRY, ExternalSolverSpec, as_solver_spec
from polsat.formulas import (
    ALTERNATE_DIALECT,
    DEFAULT_DIALECT,
    FALSE,
    TRUE,
    Prop,
    nnf,
    parse,
    render,
)
from polsat.lasso import LassoWord, evaluate
from polsat.portfolio import internal_solvers, race, run_all, arbitrate

from conftest import (
    UNDECIDED,
    child_env,
    fixture_text,
    live_processes,
    random_formula,
    requires_proc,
    sh_stub,
    sleeper_stub,
)
from oracle import VectorOracle, stream_formulas

TIME_LINE_RE = re.compile(r"^eclipse time: \d+(\.\d+)?s$")
REPORT_LINE_RE = re.compile(r"^\d+\t(sat|unsat|unknown|error)\t\S+\t\d+(\.\d+)?$")


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


@pytest.fixture(autouse=True)
def isolated_registry(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_REGISTRY, str(tmp_path / "acceptance-registry.txt"))


def cli_lines(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out.splitlines()
    return code, out


def assert_three_line_transcript(lines, expected_verdict):
    assert lines[0] == expected_verdict
    assert lines[1].startswith("from ")
    assert len(lines[1]) > len("from ")
    assert TIME_LINE_RE.match(lines[2]), lines[2]


# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_1_oracle_equivalence():
    """Exhaustive small-formula agreement with the brute-force lasso oracle."""
    with criterion(1, "oracle equivalence on all formulas of size <= 7"):
        t_start = time.monotonic()
        oracle = VectorOracle(("p", "q"), max_prefix=3, max_loop=3)
        leaves = (TRUE, FALSE, Prop("p"), Prop("q"))

        # The tableau verdict is a pure function of the negation normal
        # form, so formulas are grouped by NNF and the tableau runs once
        # per group; the oracle bit is computed per formula and must be
        # constant within a group, which cross-checks the grouping.
        groups: dict = {}

        def visit(f, oracle_sat):
            key = nnf(f)
            prev = groups.get(key)
            if prev is None:
                groups[key] = (f, oracle_sat)
            else:
                assert prev[1] == oracle_sat, f

        # Formula nodes are acyclic, but the cyclic GC tracks the millions
        # the groups keep alive and rescans them all on every full collection.
        gc.disable()
        try:
            total = stream_formulas(7, leaves, oracle, visit)
            assert total == 1_941_556  # exhaustive: every formula of size <= 7
            t_stream = time.monotonic()

            disagreements = []
            for representative, oracle_sat in groups.values():
                verdict = tableau_check(representative, Budget(max_nodes=1_000_000))
                if not verdict.is_definitive:
                    disagreements.append((representative, "no verdict"))
                elif verdict.is_sat:
                    if not evaluate(verdict.evidence, representative):
                        disagreements.append((representative, "bad evidence"))
                elif oracle_sat:
                    disagreements.append((representative, "missed sat"))
        finally:
            gc.enable()
        assert disagreements == []
        t_end = time.monotonic()
        wall = t_end - t_start
        print(
            f"  criterion 1: {total} formulas, {len(groups)} NNF groups, {wall:.0f}s"
            f" (oracle stream {t_stream - t_start:.0f}s, tableau {t_end - t_stream:.0f}s)"
        )
        assert wall < 300.0


def test_criterion_2_evidence_validity():
    """Every sat verdict from any engine carries evidence that evaluates true."""
    with criterion(2, "100% valid evidence across 500 seeded random formulas"):
        import random

        rng = random.Random(20_240_815)
        sat_seen = 0
        for _ in range(500):
            f = random_formula(rng, rng.randint(1, 25), ("a", "b", "c"))
            verdicts = [
                tableau_check(f, Budget(max_nodes=300_000)),
                run_strategy("lasso", f, Budget(max_nodes=300_000)),
                run_strategy("shortcut", f, Budget()),
            ]
            for verdict in verdicts:
                if verdict.is_sat:
                    sat_seen += 1
                    assert verdict.evidence is not None, f
                    assert evaluate(verdict.evidence, f), f
        assert sat_seen > 300  # the family is overwhelmingly satisfiable


def test_criterion_2_golden_b_loop_models_a_until_b():
    """The one-state loop where only b holds is a model of ``a U b``."""
    with criterion(2, "golden: b-loop satisfies a U b"):
        b_forever = LassoWord([], [{"b"}])
        assert evaluate(b_forever, parse("a U b"))


def test_criterion_3_paper_fixtures(capsys):
    """The showcase formulas get the right verdicts within 60 s each."""
    with criterion(3, "fixture verdicts and transcript shape"):
        code, lines = cli_lines(capsys, "a U b")
        assert code == 0
        assert_three_line_transcript(lines, "sat")

        t0 = time.monotonic()
        code, lines = cli_lines(capsys, fixture_text("lift.ltl"))
        assert time.monotonic() - t0 < 60.0
        assert code == 0
        assert_three_line_transcript(lines, "sat")

        t0 = time.monotonic()
        code, lines = cli_lines(capsys, render(gen_O1(100)))
        assert time.monotonic() - t0 < 60.0
        assert code == 0
        assert_three_line_transcript(lines, "unsat")

        t0 = time.monotonic()
        code, lines = cli_lines(capsys, fixture_text("counter.ltl"))
        assert time.monotonic() - t0 < 60.0
        assert code == 0
        assert_three_line_transcript(lines, "sat")


@requires_proc
def test_criterion_4_race_semantics(stub_dir):
    """Fast stub wins quickly; the sleeper is killed; nothing is orphaned."""
    with criterion(4, "first-winner race cancels and kills losers"):
        fast = as_solver_spec(
            ExternalSolverSpec(stub_dir("faststub", "#!/bin/sh\nsleep 0.01\necho sat\n"))
        )
        sleeper_path = stub_dir("sleepstub", sleeper_stub(10))
        sleeper = as_solver_spec(ExternalSolverSpec(sleeper_path))
        f = parse("a U b")
        for _ in range(20):
            t0 = time.monotonic()
            result = race(f, [sleeper, fast], 10.0)
            elapsed = time.monotonic() - t0
            assert result.verdict.is_sat
            assert result.winner == "faststub"
            assert elapsed < 0.2, f"race took {elapsed:.3f}s"
            deadline = time.monotonic() + 1.5
            while live_processes(sleeper_path):
                assert time.monotonic() < deadline, "sleeper outlived the kill window"
                time.sleep(0.02)
        assert live_processes(sleeper_path) == []


def test_criterion_5_timeout_accounting(stub_dir, tmp_path):
    """A timed-out run is accounted at exactly the timeout value."""
    with criterion(5, "timeout accounting is exact"):
        sleeper = as_solver_spec(ExternalSolverSpec(stub_dir("sleepstub", sleeper_stub(5))))
        t0 = time.monotonic()
        result = race(parse("a U b"), [sleeper], 0.2)
        wall = time.monotonic() - t0
        assert result.verdict.kind == "unknown"
        assert result.verdict.reason == "timeout"
        assert result.elapsed == 0.2  # accounting value, exact
        assert wall < 3.0

        src = tmp_path / "one.txt"
        src.write_text("a U b\n")
        report = run_file(
            src, [sleeper], timeout=0.2, out_path=tmp_path / "output.txt"
        )
        assert report.totals["sleepstub"] == 0.2  # exact, not measured


def test_criterion_6_consistency_platform(stub_dir):
    """run_all plus arbitrate exposes solver disagreement by name."""
    with criterion(6, "arbitration reports conflicts and consistency"):
        wrong = as_solver_spec(ExternalSolverSpec(stub_dir("wrongstub", sh_stub(["unsat"]))))
        f = parse("a U b")
        records = run_all(f, internal_solvers()[:1] + [wrong], 30.0)
        report = arbitrate(records)
        assert not report.consistent
        assert report.verdict_groups["sat"] == ("tableau",)
        assert report.verdict_groups["unsat"] == ("wrongstub",)

        records = run_all(f, internal_solvers(), 30.0)
        report = arbitrate(records)
        assert report.consistent


def test_criterion_7_parser_fidelity():
    """Appendix-style fixtures parse; parse/render round-trips per dialect."""
    with criterion(7, "parser fidelity and round-trip identity"):
        import random

        for name in ("lift.ltl", "counter.ltl", "o1_100.ltl"):
            parse(fixture_text(name))
        assert parse(fixture_text("o1_100.ltl")) == gen_O1(100)

        for dialect in (DEFAULT_DIALECT, ALTERNATE_DIALECT):
            rng = random.Random(424_242)
            for _ in range(1000):
                f = random_formula(rng, rng.randint(1, 40), ("a", "b", "c"))
                assert parse(render(f, dialect)) == f


def test_criterion_8_benchmark_shape(tmp_path):
    """run_file emits the documented report schema and cactus data."""
    with criterion(8, "benchmark report schema and cactus series"):
        src = tmp_path / "conjunctions.txt"
        lines = []
        for i in range(100):
            n = (i % 20) + 1
            lines.append(render(gen_conjunction(n, seed=1000 + i)))
        src.write_text("".join(line + "\n" for line in lines))

        out = tmp_path / "output.txt"
        report = run_file(
            src, internal_solvers(), timeout=0.5, mode="race", out_path=out
        )
        assert report.formula_count == 100

        text = out.read_text().splitlines()
        header = [l for l in text if l.startswith("#")]
        assert any("timeout" in l for l in header)
        assert any("solvers" in l for l in header)
        data = [l for l in text if not l.startswith("#")]
        outcome_lines, totals_lines = data[:100], data[100:]
        assert len(outcome_lines) == 100
        for line in outcome_lines:
            assert REPORT_LINE_RE.match(line), line
        totals = [float(l.split("\t")[1]) for l in totals_lines]
        assert totals == sorted(totals)  # fastest first

        assert report.summary_lines()[-1] == "The generated file is output.txt."

        series = cactus(report)
        for values in series.series.values():
            assert list(values) == sorted(values)
            assert all(v >= 0 for v in values)


def test_criterion_9_registration_persists(tmp_path):
    """-add survives a process restart and the stub joins the solver set."""
    with criterion(9, "external registration persists across restarts"):
        registry = tmp_path / "registry.txt"
        stub = tmp_path / "quickstub"
        stub.write_text("#!/bin/sh\necho sat\n")
        stub.chmod(0o755)
        env = child_env(**{ENV_REGISTRY: str(registry)})

        add = subprocess.run(
            [sys.executable, "-m", "polsat", "-add", str(stub)],
            capture_output=True,
            text=True,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        assert add.returncode == 0
        assert f"{stub} is added." in add.stdout.splitlines()
        assert registry.read_text().strip() == str(stub)

        # Fresh process: the registered stub must take part in a race.  No
        # internal solver decides UNDECIDED for many seconds, so the instant
        # stub is the only one that can answer in time.
        oneshot = subprocess.run(
            [sys.executable, "-m", "polsat", "--timeout", "30", UNDECIDED],
            capture_output=True,
            text=True,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        assert oneshot.returncode == 0
        lines = oneshot.stdout.splitlines()
        assert lines[0] == "sat"
        assert lines[1] == "from quickstub"

        separate = subprocess.run(
            [sys.executable, "-m", "polsat", "-s", "a U b"],
            capture_output=True,
            text=True,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        assert separate.returncode == 0
        assert any(
            line.startswith("quickstub: sat") for line in separate.stdout.splitlines()
        )
