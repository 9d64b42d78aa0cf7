import random
import time

import pytest

from polsat.formulas import And, Globally, Next, Not, Prop, parse
from polsat.lasso import (
    EvidenceError,
    LassoWord,
    evaluate,
    parse_evidence,
    print_evidence,
)

from conftest import all_lassos, random_formula, random_lasso
from oracle import holds

PROPS = ("a", "b", "c")


def word(prefix, loop):
    return LassoWord(prefix, loop)


class TestEvaluate:
    def test_b_loop_satisfies_a_until_b(self):
        assert evaluate(word([], [{"b"}]), parse("a U b"))

    def test_true_holds_on_empty_loop(self):
        assert evaluate(word([], [{}]), parse("true"))

    def test_globally_with_next_negation(self):
        w = word([{"c"}], [{"c"}, {"c"}])
        f = parse("(G c) & (X ! c)")
        assert not evaluate(w, f)
        # No lasso over {c} alone can satisfy it either.
        assert not any(
            evaluate(v, f) for v in all_lassos(("c",), max_prefix=2, max_loop=2)
        )

    def test_unrolling_invariance(self):
        rng = random.Random(161)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 20), PROPS)
            w = random_lasso(rng, PROPS)
            assert evaluate(w, f) == evaluate(LassoWord(w.prefix + w.loop, w.loop), f)

    def test_negation_and_conjunction_pointwise(self):
        rng = random.Random(5)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 12), PROPS)
            g = random_formula(rng, rng.randint(1, 12), PROPS)
            w = random_lasso(rng, PROPS)
            assert evaluate(w, Not(f)) == (not evaluate(w, f))
            assert evaluate(w, And(f, g)) == (evaluate(w, f) and evaluate(w, g))

    def test_next_shifts_prefix(self):
        w = word([{"a"}], [{"b"}])
        assert not evaluate(w, Next(Prop("a")))
        assert evaluate(w, Next(Prop("b")))

    def test_next_rotates_loop(self):
        w = word([], [{"a"}, {"b"}])
        assert evaluate(w, Next(Prop("b")))
        assert evaluate(w, Next(Next(Prop("a"))))
        assert not evaluate(w, Next(Prop("a")))

    def test_globally_on_small_loops_is_conjunction_over_states(self):
        for w in all_lassos(("p", "q"), max_prefix=0, max_loop=4):
            expected = all("p" in s for s in w.loop)
            assert evaluate(w, Globally(Prop("p"))) == expected

    def test_finally_reaches_loop(self):
        w = word([{}, {}], [{}, {"p"}])
        assert evaluate(w, parse("F p"))
        assert not evaluate(w, parse("p"))

    def test_until_needs_left_to_hold(self):
        w = word([{"a"}, {}], [{"b"}])
        assert not evaluate(w, parse("a U b"))
        assert evaluate(word([{"a"}, {"a"}], [{"b"}]), parse("a U b"))


class TestAgainstReference:
    """``evaluate`` against the per-word reference ``oracle.holds``."""

    def test_long_random_lassos(self):
        rng = random.Random(1_703)
        for _ in range(3_000):
            density = rng.choice((0.05, 0.5, 0.95))  # so that G and F both vary

            def state():
                return frozenset(p for p in PROPS if rng.random() < density)

            prefix = [state() for _ in range(rng.randint(0, 40))]
            w = word(prefix, [state() for _ in range(rng.randint(1, 100))])
            f = random_formula(rng, rng.randint(1, 25), PROPS)
            assert evaluate(w, f) == holds(w, f), (print_evidence(w), f)

    @pytest.mark.parametrize(
        "evidence, text, expected",
        [
            # A run of ``a`` that wraps the loop before it meets ``b``.
            ("(b,a,a)", "X (a U b)", True),
            ("(b,a,a)", "X X (a U b)", True),
            ("(b,a,a)", "X (!b R !a)", False),
            ("(b,a,a)", "X (!a R !b)", False),
            ("c;(b,a,a)", "X X X (a U b)", True),
            ("(c,a,a)", "X (a U b)", False),
            ("(c,a,a)", "X (!a R !b)", True),
            ("(a,a,a)", "a U b", False),
            ("(a,a,a)", "!a R !b", True),
            ("a;(c,b,a,a)", "X X X (a U b)", False),
        ],
    )
    def test_runs_that_wrap_the_loop(self, evidence, text, expected):
        w, f = parse_evidence(evidence), parse(text)
        assert holds(w, f) is expected
        assert evaluate(w, f) is expected


class TestLinearTime:
    @pytest.mark.parametrize("text", ["G F a", "(!a) U (a & X G F a)"])
    def test_long_loop_is_validated_in_under_a_second(self, text):
        loop = [frozenset()] * 200_000
        loop[100_000] = frozenset({"a"})
        w, f = word([], loop), parse(text)
        start = time.perf_counter()
        assert evaluate(w, f)
        assert time.perf_counter() - start < 1.0


class TestLassoWord:
    def test_loop_must_be_nonempty(self):
        with pytest.raises(ValueError):
            LassoWord((), ())

    def test_invalid_proposition_name(self):
        with pytest.raises(ValueError):
            LassoWord([], [{"not valid"}])

    def test_state_at_wraps(self):
        w = word([{"a"}], [{"b"}, {"c"}])
        assert w.state_at(0) == {"a"}
        assert w.state_at(1) == {"b"}
        assert w.state_at(2) == {"c"}
        assert w.state_at(3) == {"b"}


class TestEvidenceText:
    def test_single_loop_state(self):
        assert print_evidence(word([], [{"b"}])) == "(b)"
        assert parse_evidence("(b)") == word([], [{"b"}])

    def test_prefix_and_loop(self):
        assert parse_evidence("a,b;(c)") == word([{"a"}, {"b"}], [{"c"}])

    def test_empty_state(self):
        assert print_evidence(word([], [{}])) == "()"
        assert parse_evidence("()") == word([], [{}])

    def test_multi_proposition_state(self):
        w = word([{"a"}], [{"a", "b"}])
        assert print_evidence(w) == "a;(a b)"
        assert parse_evidence("a;(a b)") == w

    def test_empty_prefix_state_roundtrip(self):
        w = word([{}], [{"b"}])
        text = print_evidence(w)
        assert text == ";(b)"
        assert parse_evidence(text) == w

    def test_roundtrip_random(self):
        rng = random.Random(77)
        for _ in range(500):
            w = random_lasso(rng, PROPS, max_prefix=4, max_loop=4)
            assert parse_evidence(print_evidence(w)) == w

    @pytest.mark.parametrize(
        "text",
        ["", "abc", "(a", "a)", "a;b", "(a);b", "(a b,)extra", "(1bad)", "a..b;(c)"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(EvidenceError):
            parse_evidence(text)
