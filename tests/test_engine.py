import random
import threading
import time

from polsat import engine
from polsat.bench import gen_conjunction, gen_O1, gen_random
from polsat.engine import (
    Budget,
    _components,
    _lasso_component,
    _simplify,
    _tableau_component,
    run_strategy,
    tableau_check,
)
from polsat.formulas import FALSE, TRUE, And, Iff, Prop, _nnf_literals, nnf, parse
from polsat.lasso import evaluate, print_evidence

from conftest import UNDECIDED, binary_counter, child_env, fixture_text, random_formula
from oracle import VectorOracle, stream_formulas


class TestTableau:
    def test_until_is_sat_with_valid_evidence(self):
        # Before the accepting cycle, the search closes one that owes an
        # Until on every transition; the transition into that cycle owes
        # nothing and must not make it accepting.
        for text in ("a U b", "G ((X (G a)) <-> a)"):
            v = tableau_check(parse(text))
            assert v.is_sat, text
            assert evaluate(v.evidence, parse(text)), text

    def test_false_is_unsat(self):
        assert tableau_check(FALSE).is_unsat

    def test_contradiction_is_unsat(self):
        assert tableau_check(parse("p & !p")).is_unsat

    def test_globally_next_contradiction_is_unsat(self):
        # The second formula's only cycle owes its Until on every
        # transition; the transition into it owes nothing and must not make
        # it accepting.
        for text in ("(G c) & (X ! c)", "X (F (a & !(F a)))"):
            assert tableau_check(parse(text)).is_unsat, text

    def test_true_is_sat(self):
        v = tableau_check(TRUE)
        assert v.is_sat and evaluate(v.evidence, TRUE)

    def test_deterministic(self):
        f = gen_random(40, 3, 12345)
        first = tableau_check(f)
        second = tableau_check(f)
        assert first == second

    def test_deterministic_across_processes(self):
        # Verdict and evidence must not depend on the interpreter's hash
        # seed (everything hot is integer-encoded in closure order).
        import subprocess
        import sys

        snippet = (
            "from polsat.bench import gen_random\n"
            "from polsat.engine import Budget, run_strategy, tableau_check\n"
            "from polsat.lasso import print_evidence\n"
            "for seed in (1, 2, 3, 4):\n"
            "    f = gen_random(30, 3, seed)\n"
            "    for v in (tableau_check(f), run_strategy('lasso', f, Budget())):\n"
            "        line = v.kind\n"
            "        if v.evidence is not None:\n"
            "            line += ' ' + print_evidence(v.evidence)\n"
            "        print(line)\n"
        )
        outputs = set()
        for seed in ("0", "1", "random"):
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_lift_decided_before_its_sccs_complete(self):
        # lift alone is decided in 662 charges and its whole graph costs
        # 22,204, so a 3-bit counter that steps on ``s & u`` and may wrap
        # joins its states into larger SCCs: testing acceptance only on
        # complete SCCs then takes about 0.75 M charges, against 2,620.
        counter = [
            "G ((s & u) -> (c0 <-> X !c0))",
            "G ((s & u) -> ((c1 <-> X c1) <-> !c0))",
            "G ((s & u) -> ((c2 <-> X c2) <-> !(c0 & c1)))",
        ] + [f"G (!(s & u) -> (c{i} <-> X c{i}))" for i in range(3)]
        f = parse(f"({fixture_text('lift.ltl')}) & " + " & ".join(counter))
        v = tableau_check(f, Budget(max_nodes=100_000))
        assert v.is_sat and evaluate(v.evidence, f)

    def test_branch_search_charges(self):
        # Sure formulas first, semantic branching and no branch on a formula
        # a literal of the node already makes true: the branch search
        # without them took 15,708 charges on lift and 585 on counter.
        for name, bound in (("lift.ltl", 1_000), ("counter.ltl", 200)):
            budget = Budget(max_nodes=None)
            assert run_strategy("tableau", parse(fixture_text(name)), budget).is_sat
            assert budget.nodes <= bound, name

    def test_second_alternatives_keep_their_models(self):
        # Each formula's models all take, at the first position, the second
        # alternative of a branch whose first one is a literal: the right
        # operand of an Or, the delay of an Until, the keep-releasing of a
        # Release.  That branch carries the complement of that literal only.
        for text in (
            "(p | q) & (!p | r) & !r & F !q",
            "(p U q) & !q & F !p",
            "!p & (p R q) & F !q",
        ):
            f = parse(text)
            v = tableau_check(f)
            assert v.is_sat and evaluate(v.evidence, f), text

    def test_node_budget_stops_at_the_step_that_exceeds_it(self):
        # Expansion charges in batches, never past max_nodes + 1.  The
        # 8-bit counter takes 36,117 charges.
        f = parse(binary_counter(8))
        for n in (1, 255, 256, 257, 1000):
            budget = Budget(max_nodes=n)
            assert tableau_check(f, budget).is_timeout
            assert budget.nodes == n + 1

    def test_dense_graph_answers_within_its_deadline(self):
        # 4,096 nodes share one X-label, so the search walks one state
        # whose transitions its expansion, which polls the deadline, built.
        # Each p_i and q_i occurs in both polarities, so no proposition is
        # pure and the split's simplification leaves the formula as it is.
        f = parse(
            "G (!a & "
            + " & ".join(f"(p{i} | q{i}) & (!p{i} | !q{i})" for i in range(12))
            + ") & G F a"
        )
        start = time.monotonic()
        v = run_strategy("tableau", f, Budget(max_nodes=None, deadline=start + 0.5))
        assert v.is_unsat or v.is_timeout
        assert time.monotonic() - start < 1.0

    def test_budget_exhaustion_reports_timeout(self):
        f = gen_random(120, 3, 5)
        v = tableau_check(f, Budget(max_nodes=10))
        assert v.kind == "unknown" and v.reason == "timeout"

    def test_cancellation_is_prompt(self):
        # A deeply nested iff tower makes the expansion slog (alone,
        # ``tableau`` is still undecided after a minute and 50 M charges, so
        # it cannot finish first); cancellation must cut it off almost
        # immediately.
        tower = Prop("a")
        rng = random.Random(3)
        for _ in range(12):
            tower = Iff(tower, random_formula(rng, 9, ("a", "b", "c")))
        # Past the root, the dense formula has one state per subset of
        # {b0, ..., b7}, all but one with transitions to all 256: after they are
        # expanded, ``lasso``'s deepening passes walk cached states for many
        # seconds, and only the charge per visited state polls the cancel
        # event.  The literals at the first position put every a_i and b_i
        # in both polarities, so the split's simplification fixes none.
        dense = parse(
            "G F (d & c) & G (c -> !d) & "
            + " & ".join(f"a{i} & !b{i} & G ((a{i} & c) -> X b{i})" for i in range(8))
        )
        cases = [
            ("tableau", tower, 0.05),
            ("lasso", parse(UNDECIDED), 0.5),
            ("lasso", dense, 2.0),
        ]
        for name, f, running in cases:
            cancel = threading.Event()
            results = {}

            def run():
                budget = Budget(max_nodes=None, cancel=cancel)
                results["verdict"] = run_strategy(name, f, budget)

            t = threading.Thread(target=run)
            t.start()
            time.sleep(running)
            cancel.set()
            t0 = time.monotonic()
            t.join(5.0)
            waited = time.monotonic() - t0
            assert not t.is_alive(), name
            verdict = results["verdict"]
            assert verdict.kind == "unknown" and verdict.reason == "cancelled", name
            assert waited < 0.2, name

    def test_iff_towers_decided_in_time(self):
        # Normalising the tower once per subformula keeps it linear: the
        # 16-level tower and the same tower taken twice are both decided
        # well within a second.
        tower = "a"
        for _ in range(16):
            tower = f"({tower} <-> (a <-> b))"
        for text in (tower, f"({tower}) & ({tower})"):
            f = parse(text)
            for name in ("tableau", "shortcut"):
                budget = Budget(max_nodes=None, deadline=time.monotonic() + 1.0)
                v = run_strategy(name, f, budget)
                assert v.is_sat, (name, text, v)
                assert evaluate(v.evidence, f)

    def test_oracle_agreement_small_exhaustive(self):
        # Every formula of up to 5 nodes over {p, q}: the brute-force lasso
        # oracle and the tableau must agree; sat evidence must check out.
        oracle = VectorOracle(("p", "q"))
        leaves = (TRUE, FALSE, Prop("p"), Prop("q"))

        def check(f, oracle_sat):
            verdict = tableau_check(f)
            assert verdict.is_definitive, f
            if verdict.is_sat:
                assert evaluate(verdict.evidence, f), f
            else:
                assert not oracle_sat, f

        checked = stream_formulas(5, leaves, oracle, check)
        assert checked > 15_000


class TestThreePropAgreement:
    def test_random_formulas_against_oracle(self):
        # Three propositions bring the component splitter into play more
        # often; the lasso family here is smaller than the oracle's
        # guarantee needs for completeness claims, so the check is
        # one-sided where it must be: oracle-sat implies tableau-sat, and
        # every tableau answer is validated or cross-checked.
        oracle = VectorOracle(("p", "q", "r"), max_prefix=2, max_loop=3)
        rng = random.Random(987_654)
        for _ in range(250):
            f = random_formula(rng, rng.randint(1, 12), ("p", "q", "r"))
            verdict = tableau_check(f)
            assert verdict.is_definitive
            if verdict.is_sat:
                assert evaluate(verdict.evidence, f), f
            else:
                assert not oracle.sat(f), f


class TestComponentMerging:
    def test_disjoint_conjuncts_yield_valid_merged_evidence(self):
        # Variable-disjoint conjuncts are solved independently; the merged
        # lasso must still satisfy the whole conjunction.
        rng = random.Random(555)
        alphabets = (("a", "b"), ("c", "d"), ("e",))
        for _ in range(120):
            parts = [
                random_formula(rng, rng.randint(1, 10), props)
                for props in alphabets
            ]
            f = parts[0]
            for part in parts[1:]:
                f = And(f, part)
            verdict = tableau_check(f)
            assert verdict.is_definitive
            expected = all(tableau_check(p).is_sat for p in parts)
            assert verdict.is_sat == expected
            if verdict.is_sat:
                assert verdict.evidence is not None
                assert evaluate(verdict.evidence, f)


class TestSimplify:
    def test_verdicts_match_the_unsimplified_check(self):
        # tableau_check goes through the split's simplification; the
        # component check on the plain NNF does not.
        rng = random.Random(2_013)
        compared = 0
        for _ in range(2_500):
            f = random_formula(rng, rng.randint(3, 18), ("p", "q", "r"))
            verdict = tableau_check(f, Budget(max_nodes=200_000))
            try:
                plain = _tableau_component(nnf(f), Budget(max_nodes=200_000))
            except engine._Stop:
                continue
            if not verdict.is_definitive:
                continue
            compared += 1
            assert verdict.is_sat == (plain is not None), f
            if verdict.is_sat:
                assert evaluate(verdict.evidence, f), f
        assert compared > 2_400

    def test_opposite_g_units_are_unsat(self):
        assert _simplify(nnf(parse("G p & G !p")))[0] == FALSE
        assert tableau_check(parse("G p & G !p")).is_unsat

    def test_fixed_propositions_hold_in_every_state(self):
        # r is a G-unit and s is pure; p keeps both polarities, so the
        # lasso has a prefix.
        f = parse("G r & F s & X X (p & X !p)")
        assert _simplify(nnf(f))[1] == {"r", "s"}
        for name in ("tableau", "lasso"):
            evidence = run_strategy(name, f, Budget()).evidence
            assert evidence.prefix
            for state in evidence.prefix + evidence.loop:
                assert {"r", "s"} <= state, name
            assert evaluate(evidence, f)

    def test_o1_folds_to_false(self):
        assert _simplify(nnf(gen_O1(300)))[0] == FALSE

    def test_reduct_is_a_fixpoint(self):
        # The first round's census comes from the NNF pass, later ones from
        # a walk; either way a reduct has nothing left to fix.
        rng = random.Random(2_020)
        formulas = [gen_random(rng.randint(5, 60), rng.randint(2, 6), k) for k in range(300)]
        formulas += [gen_conjunction(rng.randint(1, 12), k) for k in range(100)]
        for f in formulas:
            reduct = _simplify(*_nnf_literals(f))[0]
            again, fixed = _simplify(reduct)
            assert again is reduct and fixed == frozenset(), f

    def test_a_constant_right_operand_skips_the_left_one(self, monkeypatch):
        # The final conjunct folds to false with c fixed, so none of the
        # thousand (a | b) conjuncts before it is visited.
        calls = []

        def counted(g, value, memo, real=engine._fold):
            calls.append(g)
            return real(g, value, memo)

        monkeypatch.setattr(engine, "_fold", counted)
        assert engine._fold(nnf(gen_O1(1_000)), {"c": True}, {}) == FALSE
        assert len(calls) <= 5


class TestVectorOracle:
    def test_matches_plain_evaluator(self):
        # The bitset oracle and the per-lasso evaluator implement the same
        # semantics; pin them to each other on a small family.
        oracle = VectorOracle(("p", "q"), max_prefix=1, max_loop=2)
        rng = random.Random(2024)
        for _ in range(150):
            f = random_formula(rng, rng.randint(1, 12), ("p", "q"))
            slow = any(evaluate(w, f) for w in oracle.lassos)
            assert oracle.sat(f) == slow, f

    def test_start_bit_matches_evaluate_on_every_lasso(self):
        # Per lasso, not only per family: the oracle's bit at lasso i's
        # start must equal evaluate(lasso_i, f).  Loops of length 1 to 3
        # exercise every wrap-around shift of the successor map.
        oracle = VectorOracle(("p", "q"), max_prefix=2, max_loop=3)
        rng = random.Random(1311)
        for _ in range(60):
            f = random_formula(rng, rng.randint(1, 12), ("p", "q"))
            bits = oracle.start_bits(oracle.vec(f))
            for i, w in enumerate(oracle.lassos):
                assert (bits >> i) & 1 == evaluate(w, f), (f, w)

    def test_witness_actually_satisfies(self):
        oracle = VectorOracle(("p", "q"), max_prefix=2, max_loop=2)
        rng = random.Random(6)
        for _ in range(100):
            f = random_formula(rng, rng.randint(1, 10), ("p", "q"))
            w = oracle.witness(f)
            if w is not None:
                assert evaluate(w, f)


def lasso(f):
    """The ``lasso`` solver's evidence for ``f``, or None when it gives up."""
    return run_strategy("lasso", f, Budget()).evidence


def shortcut(f):
    """The ``shortcut`` solver's evidence for ``f``, or None when it gives up."""
    return run_strategy("shortcut", f, Budget()).evidence


class TestLassoSearch:
    def test_finds_shallow_witness(self):
        f = parse("a U b")
        w = lasso(f)
        assert w is not None and evaluate(w, f)

    def test_never_claims_unsat_formula(self):
        verdict = run_strategy("lasso", parse("(G c) & (X ! c)"), Budget())
        assert verdict.kind == "unknown" and verdict.reason == "incomplete"

    def test_true_at_depth_one(self):
        f = TRUE
        w = lasso(f)
        assert w is not None and evaluate(w, f)

    def test_subset_of_tableau_sat(self):
        rng = random.Random(88)
        for _ in range(150):
            f = random_formula(rng, rng.randint(1, 15), ("p", "q"))
            w = lasso(f)
            if w is not None:
                assert evaluate(w, f)
                assert tableau_check(f).is_sat


class TestSatShortcut:
    def test_globally_and_eventually(self):
        f = parse("G a & F b")
        w = shortcut(f)
        assert w is not None
        assert w.loop == (frozenset({"a", "b"}),)
        assert evaluate(w, f)

    def test_contradictory_literals_give_nothing(self):
        assert shortcut(parse("p & !p")) is None

    def test_o1_candidates_rejected_by_evaluation(self):
        assert shortcut(gen_O1(1)) is None
        assert shortcut(gen_O1(3)) is None

    def test_family_cap_gives_up(self):
        assert shortcut(gen_O1(100)) is None
        # One component (every conjunct mentions p) whose product family
        # outgrows the cap, though {p} alone would be a model.  Every
        # proposition occurs in both polarities, so none is fixed first.
        f = parse(" & ".join(f"(p | a{i}) & (!p | !a{i})" for i in range(1, 14)))
        assert tableau_check(f).is_sat
        assert shortcut(f) is None

    def test_split_families_add_up(self):
        # Twenty variable-disjoint choices: a product family of 4^20 sets,
        # but twenty families of four, one component at a time.
        f = parse(" & ".join(f"(a{i} | b{i}) & (!a{i} | !b{i})" for i in range(1, 21)))
        verdict = run_strategy("shortcut", f, Budget())
        assert verdict.is_sat and evaluate(verdict.evidence, f)

    def test_never_unsound(self):
        rng = random.Random(99)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 20), ("p", "q", "r"))
            w = shortcut(f)
            if w is not None:
                assert evaluate(w, f)


class TestEngineAgreement:
    def test_definitive_verdicts_never_conflict(self):
        rng = random.Random(20_240_202)
        budget_nodes = 200_000
        for _ in range(500):
            f = random_formula(rng, rng.randint(1, 25), ("p", "q", "r"))
            verdicts = {
                "tableau": tableau_check(f, Budget(max_nodes=budget_nodes)),
                "lasso": run_strategy("lasso", f, Budget(max_nodes=budget_nodes)),
                "shortcut": run_strategy("shortcut", f, Budget()),
            }
            definitive = {k: v for k, v in verdicts.items() if v.is_definitive}
            kinds = {v.kind for v in definitive.values()}
            assert len(kinds) <= 1, (f, definitive)
            for v in definitive.values():
                if v.is_sat and v.evidence is not None:
                    assert evaluate(v.evidence, f)

    def test_strategy_wrappers(self):
        f = parse("a U b")
        budget = Budget()
        assert run_strategy("tableau", f, budget).is_sat
        assert run_strategy("lasso", f, Budget()).is_sat
        assert run_strategy("shortcut", f, Budget()).is_sat
        no_win = run_strategy("shortcut", parse("p & !p"), Budget())
        assert no_win.kind == "unknown" and no_win.reason == "incomplete"
        gave_up = run_strategy("lasso", parse("p & !p"), Budget())
        assert gave_up.kind == "unknown" and gave_up.reason == "incomplete"
        # Three components, each with both polarities of its propositions:
        # the third candidate is one past the budget.
        f = parse("(a | !b) & (!a | b) & (c | !d) & (!c | d) & (e | !f) & (!e | f)")
        out_of_nodes = run_strategy("shortcut", f, Budget(max_nodes=2))
        assert out_of_nodes.kind == "unknown" and out_of_nodes.reason == "timeout"

    def test_lasso_strategy_deepens_one_graph(self, monkeypatch):
        # Deepening reuses one graph per component instead of rebuilding it
        # at every depth.
        built = []

        class Counting(engine._Tableau):
            def __init__(self, root, budget):
                built.append(root)
                super().__init__(root, budget)

        monkeypatch.setattr(engine, "_Tableau", Counting)
        f = parse(fixture_text("counter.ltl"))
        verdict = run_strategy("lasso", f, Budget())
        assert verdict.is_sat and evaluate(verdict.evidence, f)
        assert built == _components(nnf(f))

    def test_sat_only_solvers_give_up_at_the_unsat_component(self):
        # The last component, c & G (c -> X c) & F !c, has no lasso; the
        # sat-only solvers stop there instead of searching the 4^300-branch
        # product.  Every proposition occurs in both polarities, so the
        # split's simplification leaves all 301 components.
        f = parse(
            " & ".join(f"(a{i} | b{i}) & (!a{i} | !b{i})" for i in range(1, 301))
            + " & c & G (c -> X c) & F !c"
        )
        for name in ("lasso", "shortcut"):
            budget = Budget(max_nodes=None, deadline=time.monotonic() + 5.0)
            start = time.monotonic()
            verdict = run_strategy(name, f, budget)
            assert verdict.kind == "unknown" and verdict.reason == "incomplete"
            assert time.monotonic() - start < 1.0

    def test_o1_family_unsat_via_tableau(self):
        for n in (1, 5, 20, 100):
            assert tableau_check(gen_O1(n)).is_unsat

    def test_extraction_after_the_search_charges_nothing(self, monkeypatch):
        # A component check builds its lasso right after its graph search;
        # the extraction walks only transitions the search cached.
        extract = engine._extract_word
        charges = []

        def counted(tab, path, members):
            before = tab.budget.nodes
            word = extract(tab, path, members)
            charges.append(tab.budget.nodes - before)
            return word

        monkeypatch.setattr(engine, "_extract_word", counted)
        texts = [fixture_text("lift.ltl"), fixture_text("counter.ltl")]
        for text in texts + ["G F a & G F !a & (b U c)"]:
            for component in _components(nnf(parse(text))):
                for check in (_tableau_component, _lasso_component):
                    word = check(component, Budget(max_nodes=None))
                    assert word is not None and evaluate(word, component)
        assert charges and set(charges) == {0}
