import random
import re

import pytest

from polsat.bench import (
    cactus,
    cactus_text,
    format_seconds,
    gen_O1,
    gen_conjunction,
    gen_random,
    run_file,
)
from polsat.engine import tableau_check
from polsat.external import ExternalSolverSpec, as_solver_spec
from polsat.formulas import And, Globally, Next, Not, Or, Prop, node_count, parse, render
from polsat.lasso import evaluate
from polsat.patterns import PATTERNS
from polsat.portfolio import internal_solvers

from conftest import UNDECIDED, sh_stub, sleeper_stub

LINE_RE = re.compile(r"^\d+\t(sat|unsat|unknown|error)\t\S+\t\d+(\.\d+)?$")


class TestGenRandom:
    def test_deterministic(self):
        assert gen_random(100, 3, 7) == gen_random(100, 3, 7)

    def test_different_seeds_differ(self):
        assert gen_random(100, 3, 7) != gen_random(100, 3, 8)

    def test_node_count_within_tolerance(self):
        for seed in range(100):
            n = node_count(gen_random(150, 3, seed))
            assert 135 <= n <= 165

    def test_roundtrips_at_paper_sizes(self):
        for length in (100, 125, 150, 175, 200):
            for seed in range(10):
                f = gen_random(length, 3, seed)
                assert parse(render(f)) == f

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random(0, 3, 1)
        with pytest.raises(ValueError):
            gen_random(5, 0, 1)


class TestGenConjunction:
    def test_single_pattern_instance(self):
        f = gen_conjunction(1, 3)
        # one conjunct: must match some pattern shape after instantiation
        assert node_count(f) >= 1

    def test_library_is_large_enough(self):
        assert len(PATTERNS) >= 10
        names = [p.name for p in PATTERNS]
        assert len(set(names)) == len(names)

    def test_conjunction_count(self):
        f = gen_conjunction(5, 11)
        conjuncts = []
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, And):
                stack.extend((g.left, g.right))
            else:
                conjuncts.append(g)
        # patterns themselves may contain And nodes, so at least n conjuncts
        assert len(conjuncts) >= 5

    def test_deterministic_and_roundtrips(self):
        for n in range(1, 21):
            f = gen_conjunction(n, n * 17)
            assert f == gen_conjunction(n, n * 17)
            assert parse(render(f)) == f


class TestGenO1:
    def test_smallest_instance_shape(self):
        expected = And(
            Or(Prop("a1"), Prop("b1")),
            And(Globally(Prop("c")), Next(Not(Prop("c")))),
        )
        assert gen_O1(1) == expected

    def test_unsat_for_all_sizes(self):
        for n in (1, 5, 20):
            assert tableau_check(gen_O1(n)).is_unsat

    def test_roundtrip(self):
        f = gen_O1(10)
        assert parse(render(f)) == f


class TestRunFile:
    def test_separate_mode_report(self, tmp_path):
        src = tmp_path / "formulas.txt"
        src.write_text("# header comment\n\na U b\np & !p\nbad ( syntax\n")
        out = tmp_path / "output.txt"
        report = run_file(src, internal_solvers(), timeout=5.0, out_path=out)
        assert report.formula_count == 3
        verdicts = [o.verdict for o in report.outcomes]
        assert verdicts == ["sat", "unsat", "error"]
        text = out.read_text().splitlines()
        data_lines = [l for l in text if not l.startswith("#")]
        assert len(data_lines) == 3 + 3  # outcomes + per-solver totals
        for line in data_lines[:3]:
            assert LINE_RE.match(line), line

    def test_separate_mode_returns_only_checked_witnesses(self, tmp_path, stub_dir):
        # The liar's witness never has p, so it fails G p.
        liar = as_solver_spec(ExternalSolverSpec(stub_dir("liar", sh_stub(["sat", "(q)"]))))
        src = tmp_path / "one.txt"
        src.write_text("G p\n")
        report = run_file(
            src, [liar] + internal_solvers(), timeout=10.0, out_path=tmp_path / "output.txt"
        )
        assert report.records["liar"][0].verdict.is_sat
        for records in report.records.values():
            (record,) = records
            witness = record.verdict.evidence
            assert witness is None or evaluate(witness, parse("G p")), record.solver

    def test_too_deeply_nested_line_is_an_error(self, tmp_path):
        src = tmp_path / "formulas.txt"
        src.write_text("a U b\n" + "(" * 4_000 + "a" + ")" * 4_000 + "\np & !p\n")
        report = run_file(src, internal_solvers(), timeout=5.0, out_path=tmp_path / "out.txt")
        assert [o.verdict for o in report.outcomes] == ["sat", "error", "unsat"]

    def test_empty_file(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        out = tmp_path / "output.txt"
        report = run_file(src, internal_solvers(), timeout=1.0, out_path=out)
        assert report.formula_count == 0
        assert all(total == 0.0 for total in report.totals.values())
        assert report.summary_lines()[-1] == "The generated file is output.txt."

    def test_timeout_total_is_exact(self, tmp_path, stub_dir):
        slow = as_solver_spec(ExternalSolverSpec(stub_dir("slowpoke", sleeper_stub(5))))
        src = tmp_path / "one.txt"
        src.write_text("a U b\n")
        out = tmp_path / "output.txt"
        report = run_file(src, [slow], timeout=0.2, out_path=out)
        assert report.totals["slowpoke"] == 0.2

    def test_race_mode_charges_everyone_on_timeout(self, tmp_path, stub_dir):
        slow = as_solver_spec(ExternalSolverSpec(stub_dir("slowpoke", sleeper_stub(5))))
        slow2 = as_solver_spec(
            ExternalSolverSpec(stub_dir("slowpoke2", sleeper_stub(5)))
        )
        src = tmp_path / "one.txt"
        src.write_text("a U b\n")
        out = tmp_path / "output.txt"
        report = run_file(src, [slow, slow2], timeout=0.2, mode="race", out_path=out)
        assert report.totals == {"slowpoke": 0.2, "slowpoke2": 0.2}

    def test_race_mode_charges_each_record(self, tmp_path):
        # shortcut gives up at once; tableau and lasso run to the timeout.
        src = tmp_path / "one.txt"
        src.write_text(UNDECIDED + "\n")
        out = tmp_path / "output.txt"
        report = run_file(src, internal_solvers(), timeout=0.5, mode="race", out_path=out)
        assert [o.verdict for o in report.outcomes] == ["unknown"]
        assert report.totals["tableau"] == report.totals["lasso"] == 0.5
        assert report.totals["shortcut"] < 0.1
        for name in ("tableau", "lasso", "shortcut"):
            (record,) = report.records[name]
            assert record.solver == name
            assert report.totals[name] == record.elapsed
        assert report.records["shortcut"][0].verdict.reason == "incomplete"

    def test_race_mode_keeps_the_winning_record(self, tmp_path):
        src = tmp_path / "one.txt"
        src.write_text("G a & F b\n")
        out = tmp_path / "output.txt"
        report = run_file(src, internal_solvers(), timeout=5.0, mode="race", out_path=out)
        (outcome,) = report.outcomes
        assert outcome.verdict == "sat"
        winning = report.records[outcome.winner][0]
        assert winning.verdict.is_sat and winning.elapsed == outcome.seconds
        assert evaluate(winning.verdict.evidence, parse("G a & F b"))
        assert report.totals[outcome.winner] == winning.elapsed

    def test_determinism_of_verdicts(self, tmp_path):
        src = tmp_path / "formulas.txt"
        src.write_text(
            "".join(render(gen_conjunction(n, n)) + "\n" for n in range(1, 6))
        )
        out = tmp_path / "output.txt"
        first = run_file(src, internal_solvers(), timeout=10.0, out_path=out)
        second = run_file(src, internal_solvers(), timeout=10.0, out_path=out)
        assert [o.verdict for o in first.outcomes] == [
            o.verdict for o in second.outcomes
        ]

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            run_file(tmp_path / "missing.txt", internal_solvers(), timeout=1.0)

    def test_summary_sorted_fastest_first(self, tmp_path):
        src = tmp_path / "formulas.txt"
        src.write_text("a U b\nG p -> F p\n")
        out = tmp_path / "output.txt"
        report = run_file(src, internal_solvers(), timeout=5.0, out_path=out)
        ranked = report.ranked_totals()
        assert [t for _, t in ranked] == sorted(t for _, t in ranked)

    def test_aggregation_identity(self, tmp_path):
        # Per-solver total == sum over formulas of min(elapsed, timeout).
        src = tmp_path / "formulas.txt"
        src.write_text("a U b\nG p\np & !p\n")
        out = tmp_path / "output.txt"
        timeout = 5.0
        report = run_file(src, internal_solvers(), timeout=timeout, out_path=out)
        for name in report.solver_names:
            expected = sum(min(r.elapsed, timeout) for r in report.records[name])
            assert report.totals[name] == pytest.approx(expected)


class TestCactus:
    def test_sort_and_prefix_sum(self, tmp_path):
        from polsat.bench import BenchReport
        from polsat.engine import Verdict
        from polsat.portfolio import RunRecord

        report = BenchReport(mode="separate", timeout=60.0, solver_names=["s"])
        report.records = {
            "s": [
                RunRecord("s", Verdict.sat(), 3.0),
                RunRecord("s", Verdict.sat(), 1.0),
                RunRecord("s", Verdict.unsat(), 2.0),
            ]
        }
        series = cactus(report)
        assert series.series["s"] == (1.0, 3.0, 6.0)

    def test_timeouts_excluded_from_series_but_in_totals(self, tmp_path, stub_dir):
        slow = as_solver_spec(ExternalSolverSpec(stub_dir("slowpoke", sleeper_stub(5))))
        src = tmp_path / "one.txt"
        src.write_text("a U b\n")
        report = run_file(src, [slow], timeout=0.2, out_path=tmp_path / "o.txt")
        series = cactus(report)
        assert series.series["slowpoke"] == ()
        assert report.totals["slowpoke"] == 0.2

    def test_empty_report(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        report = run_file(src, internal_solvers(), timeout=1.0, out_path=tmp_path / "o.txt")
        series = cactus(report)
        assert all(s == () for s in series.series.values())

    def test_series_nondecreasing(self, tmp_path):
        src = tmp_path / "formulas.txt"
        src.write_text("a U b\nG p\nF q\np & !p\n")
        report = run_file(
            src, internal_solvers(), timeout=5.0, out_path=tmp_path / "o.txt"
        )
        for values in cactus(report).series.values():
            assert list(values) == sorted(values)

    def test_text_rendering(self):
        from polsat.bench import BenchReport, CactusSeries

        text = cactus_text(CactusSeries({"s": (1.0, 3.0)}))
        assert text == "# s\n1\t1\n2\t3\n"


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, "0"), (0.001, "0.001"), (0.0026, "0.0026"), (60.0, "60"), (1.5, "1.5")],
    )
    def test_examples(self, value, expected):
        assert format_seconds(value) == expected

    def test_tiny_values_have_no_exponent(self):
        assert "e" not in format_seconds(5.3e-05)
