import random

import pytest

from polsat.formulas import (
    _MAX_DEPTH,
    ALTERNATE_DIALECT,
    DEFAULT_DIALECT,
    FALSE,
    RESERVED_WORDS,
    TRUE,
    And,
    Finally,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Prop,
    Release,
    TrueConst,
    Until,
    closure,
    nnf,
    node_count,
    parse,
    render,
)
from polsat.lasso import LassoWord, evaluate

from conftest import fixture_text, random_formula, random_lasso

PROPS = ("a", "b", "c")


class TestParse:
    def test_until(self):
        assert parse("a U b") == Until(Prop("a"), Prop("b"))

    def test_true_literal(self):
        assert parse("true") == TRUE
        assert parse("TRUE") == TRUE
        assert parse("false") == FALSE

    def test_alternative_spellings_build_identical_trees(self):
        f = parse("[] p <-> G p")
        assert isinstance(f, Iff)
        assert f.left == f.right == Globally(Prop("p"))
        assert parse("~x") == parse("!x")
        assert parse("a && b") == parse("a & b")
        assert parse("a || b") == parse("a | b")
        assert parse("a V b") == parse("a R b")
        assert parse("<> q") == parse("F q")

    def test_until_binds_tighter_than_and(self):
        assert parse("a U b & c") == And(Until(Prop("a"), Prop("b")), Prop("c"))

    def test_and_binds_tighter_than_or(self):
        assert parse("a & b | c") == Or(And(Prop("a"), Prop("b")), Prop("c"))

    def test_or_binds_tighter_than_implies(self):
        assert parse("a | b -> c") == Implies(Or(Prop("a"), Prop("b")), Prop("c"))

    def test_implies_binds_tighter_than_iff(self):
        assert parse("a <-> b -> c") == Iff(Prop("a"), Implies(Prop("b"), Prop("c")))

    def test_right_associativity(self):
        assert parse("a U b U c") == Until(Prop("a"), Until(Prop("b"), Prop("c")))
        assert parse("a R b U c") == Release(Prop("a"), Until(Prop("b"), Prop("c")))
        assert parse("a -> b -> c") == Implies(Prop("a"), Implies(Prop("b"), Prop("c")))
        assert parse("a <-> b <-> c") == Iff(Prop("a"), Iff(Prop("b"), Prop("c")))

    def test_unary_binds_smallest_following_formula(self):
        assert parse("X a U b") == Until(Next(Prop("a")), Prop("b"))
        assert parse("! a & b") == And(Not(Prop("a")), Prop("b"))
        assert parse("G a -> F a") == Implies(Globally(Prop("a")), Finally(Prop("a")))
        assert parse("X G a") == Next(Globally(Prop("a")))

    def test_identifiers_use_maximal_munch(self):
        # A word is split off whole; only exact reserved words are operators.
        assert parse("Xu") == Prop("Xu")
        assert parse("X u") == Next(Prop("u"))
        assert parse("Gap") == Prop("Gap")
        assert parse("True") == Prop("True")  # only true/TRUE are reserved

    def test_whitespace_insignificant(self):
        assert parse("aU") == Prop("aU")
        assert parse("[]p") == Globally(Prop("p"))
        assert parse("a\n&\tb") == And(Prop("a"), Prop("b"))
        assert parse("  a U   b  ") == Until(Prop("a"), Prop("b"))

    def test_greedy_tokenization(self):
        assert parse("a<->b") == Iff(Prop("a"), Prop("b"))
        assert parse("<>a") == Finally(Prop("a"))

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 1),
            ("a U", 4),
            ("(a", 3),
            ("a b", 3),
            ("U a", 1),
            ("a & & b", 5),
            ("a ? b", 3),
        ],
    )
    def test_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    def test_nesting_past_the_limit_is_a_parse_error(self):
        # One operator past the limit, or parentheses past the parser's own
        # recursion, is a ParseError rather than a RecursionError.
        for text in (
            "X " * (_MAX_DEPTH + 1) + "a",
            "a & " * (_MAX_DEPTH + 1) + "a",
            "(" * 4_000 + "a" + ")" * 4_000,
            "!" * 10_000 + "a",
        ):
            with pytest.raises(ParseError, match="nested deeper"):
                parse(text)

    def test_reserved_word_is_not_a_proposition(self):
        with pytest.raises(ParseError, match="reserved word"):
            parse("V")
        with pytest.raises(ParseError, match="reserved word"):
            parse("a & U")
        with pytest.raises(ValueError):
            Prop("X")
        with pytest.raises(ValueError):
            Prop("")
        with pytest.raises(ValueError):
            Prop("2x")

    def test_non_ascii_rejected(self):
        with pytest.raises(ParseError):
            parse("a ∧ b")

    def test_fixture_formulas_parse(self):
        for name in ("lift.ltl", "counter.ltl", "o1_100.ltl"):
            parse(fixture_text(name))


class TestLexer:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("a @ b", "position 3: unexpected character '@'"),
            ("(a", "position 3: expected ')', found end of input"),
            ("a b", "position 3: expected end of input or a binary operator, found 'b'"),
            ("U", "position 1: reserved word 'U' cannot be used as a proposition"),
        ],
    )
    def test_error_text(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"parse error at {message}"

    def test_ascii_whitespace_separates_tokens(self):
        # Exactly the ASCII characters str.isspace() accepts, \x1c-\x1f included.
        assert parse("\x1ca\x1f&\tb") == And(Prop("a"), Prop("b"))

    @pytest.mark.parametrize("text", ["a\x85b", "a\xa0b"])
    def test_non_ascii_whitespace_rejected(self, text):
        with pytest.raises(ParseError, match="non-ASCII character") as err:
            parse(text)
        assert err.value.position == 2

    def test_reserved_words(self):
        assert RESERVED_WORDS == {"true", "TRUE", "false", "FALSE", "X", "U", "R", "V", "G", "F"}


class TestRender:
    def test_default_spelling(self):
        assert render(Until(Prop("a"), Prop("b"))) == "(a U b)"

    def test_alternate_globally_spelling(self):
        assert render(Globally(Prop("p")), ALTERNATE_DIALECT) == "([] p)"

    def test_atoms_render_bare(self):
        assert render(Prop("a")) == "a"
        assert render(TRUE) == "true"
        assert render(TRUE, ALTERNATE_DIALECT) == "TRUE"

    @pytest.mark.parametrize("dialect", [DEFAULT_DIALECT, ALTERNATE_DIALECT])
    def test_roundtrip_identity(self, dialect):
        rng = random.Random(20_240_501)
        for _ in range(1000):
            f = random_formula(rng, rng.randint(1, 40), PROPS)
            assert parse(render(f, dialect)) == f


class TestNnf:
    def test_negated_until_dualizes(self):
        f = Not(Until(Prop("a"), Prop("b")))
        assert nnf(f) == Release(Not(Prop("a")), Not(Prop("b")))

    def test_double_negation(self):
        assert nnf(Not(Not(Prop("p")))) == Prop("p")

    def test_finally_becomes_until(self):
        assert nnf(Finally(Prop("p"))) == Until(TRUE, Prop("p"))

    def test_globally_becomes_release(self):
        assert nnf(Globally(Prop("p"))) == Release(FALSE, Prop("p"))

    def test_core_operators_unchanged(self):
        f = Until(Prop("a"), Not(Prop("b")))
        assert nnf(f) == f

    def test_iff_on_ab_loop(self):
        f = Iff(Prop("a"), Prop("b"))
        w = random_lasso(random.Random(0), ("a", "b"))
        for word in [w, LassoWord(w.prefix + w.loop, w.loop)]:
            assert evaluate(word, f) == evaluate(word, nnf(f))

    def test_negated_release_dualizes(self):
        f = Not(Release(Prop("a"), Prop("b")))
        assert nnf(f) == Until(Not(Prop("a")), Not(Prop("b")))

    def test_only_core_operators_and_literal_negation(self):
        rng = random.Random(13)
        for _ in range(300):
            f = nnf(random_formula(rng, rng.randint(1, 30), PROPS))
            for g in closure(f):
                assert not isinstance(g, (Implies, Iff, Globally, Finally))
                if isinstance(g, Not):
                    assert isinstance(g.operand, Prop)

    def test_semantics_preserved(self):
        rng = random.Random(31337)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 20), PROPS)
            w = random_lasso(rng, PROPS)
            assert evaluate(w, f) == evaluate(w, nnf(f))

    def test_iff_chain_stays_a_linear_dag(self):
        # Its tree has 2^200 nodes; each input node is normalised once per
        # polarity, so the distinct compound result objects stay linear
        # (literals are rebuilt per use and are not counted).
        f = Prop("p200")
        for i in reversed(range(200)):
            f = Iff(Prop(f"p{i}"), f)
        seen, stack = set(), [nnf(f)]
        while stack:
            g = stack.pop()
            if not isinstance(g, (Prop, Not)) and id(g) not in seen:
                seen.add(id(g))
                stack.extend(g.children())
        assert len(seen) <= 8 * 200

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 25), PROPS)
            once = nnf(f)
            assert nnf(once) == once


class TestClosure:
    def test_until_closure(self):
        f = Until(Prop("a"), Prop("b"))
        assert closure(f) == (f, Prop("a"), Prop("b"))

    def test_leaf(self):
        assert closure(Prop("p")) == (Prop("p"),)

    def test_order_is_preorder_first_appearance(self):
        f = And(Or(Prop("a"), Prop("b")), Prop("a"))
        assert closure(f) == (f, Or(Prop("a"), Prop("b")), Prop("a"), Prop("b"))

    def test_size_bounded_by_node_count(self):
        rng = random.Random(23)
        for _ in range(1000):
            f = random_formula(rng, rng.randint(1, 40), PROPS)
            assert len(closure(f)) <= node_count(f)
