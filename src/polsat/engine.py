"""Internal reference decision procedures.

Three in-process solvers back the portfolio so it works without any
third-party binaries.  Each is reached by name through :func:`run_strategy`:

* ``tableau`` -- a complete, sound (within budget) graph tableau.  Its
  states are obligation sets: the root formula, then the X-labels of the
  locally consistent, fully expanded formula sets (nodes) that discharge a
  state's obligations.  A transition goes to a node's X-label, carries the
  Untils the node does not owe as its acceptance mark, and keeps the
  node's propositions as its letter.  An accepting lasso is a reachable
  cycle whose marks cover every Until, found on the fly by Couvreur's
  emptiness check while the graph is still being built, and is returned
  directly as evidence.  :func:`tableau_check` runs it alone.
* ``lasso`` -- the same check on the same graph, iteratively deepened:
  the search path is held to 1, 2, 3, ... states, and the first accepting
  cycle a pass finds is the evidence; once a pass is not cut short, the
  whole graph was searched and it gives up.  Sat-only.
* ``shortcut`` -- a cheap syntactic filter that proposes one-state loops
  from "obligation" literal sets and keeps a proposal only if the trace
  evaluator confirms it; sat-only, never authoritative on its own.

Each checks the variable-disjoint components (groups of top-level
conjuncts) of the formula's NNF after :func:`_simplify` one at a time,
builds each sat one's lasso at once, stops at the first it cannot show sat
(Unsat for the tableau, Unknown(incomplete) for the sat-only two), and
merges the lassos once every component is sat.  The solvers of one race
share that split and its lassos, and skip the components already sat.
The NNF pass hands :func:`_simplify` its first literal census, and
:func:`_fold` skips an operand that its folded sibling makes moot.

Expansion rules: ``a U b`` expands to ``b | (a & X(a U b))``, ``a R b`` to
``b & (a | X(a R b))``; And/Or saturate; a node's X-label, the state it
passes on, is the set of operands of its X-formulas.  The formulas that
never branch (literals, X, And, G) are expanded before those that may (Or,
U, R).  A branch is skipped when a literal of the node already makes its
formula true, and its second alternative carries the complement of the
first alternative's literal (semantic branching).
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import count
from math import lcm
from typing import Iterator

from .formulas import (
    FALSE,
    TRUE,
    And,
    FalseConst,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Release,
    TrueConst,
    Until,
    _nnf_literals,
    closure,
    prop_names,
)
from .lasso import LassoWord, evaluate

__all__ = [
    "Budget",
    "Verdict",
    "tableau_check",
    "run_strategy",
]

#: Cap on the merged-evidence word length when independent subproblems are
#: recombined; beyond this the Sat verdict is returned without evidence.
_MERGE_CAP = 100_000

#: Obligation families larger than this make shortcut give up.
_FAMILY_CAP = 4096

#: Expansion steps counted between two budget charges.
_CHARGE_BATCH = 256


class _Stop(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class Budget:
    """Work budget for a single check: node count, deadline, cancellation.

    ``deadline`` is an absolute ``time.monotonic()`` value.  The cancel
    event and the deadline are polled on every :meth:`charge`.  Graph
    expansion charges its steps, once every 256 and at the end of each
    expansion; ``lasso``'s depth-bounded searches add one per visited state
    and ``shortcut`` one per candidate, while the unbounded ``tableau``
    search adds nothing: its walk over a state's transitions is bounded by
    the steps that state's expansion charged.  ``max_nodes`` stops a search
    at exactly the step that exceeds it.
    """

    max_nodes: int | None = 1_000_000
    deadline: float | None = None
    cancel: threading.Event | None = None
    nodes: int = 0

    def charge(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.cancel is not None and self.cancel.is_set():
            raise _Stop("cancelled")
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Stop("timeout")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop("timeout")

    def _batch(self) -> int:
        """Steps to count before the next charge: never past ``max_nodes``."""
        if self.max_nodes is None:
            return _CHARGE_BATCH
        return max(1, min(_CHARGE_BATCH, self.max_nodes + 1 - self.nodes))


@dataclass(frozen=True)
class Verdict:
    """Solver answer: sat (with optional evidence), unsat, or unknown."""

    kind: str  # "sat" | "unsat" | "unknown"
    evidence: LassoWord | None = None
    # for unknown: "timeout" | "cancelled" | "incomplete" | "solver-error"
    reason: str | None = None
    detail: str | None = None

    @classmethod
    def sat(cls, evidence: LassoWord | None = None) -> "Verdict":
        return cls("sat", evidence=evidence)

    @classmethod
    def unsat(cls) -> "Verdict":
        return cls("unsat")

    @classmethod
    def timeout(cls) -> "Verdict":
        return cls("unknown", reason="timeout")

    @classmethod
    def cancelled(cls) -> "Verdict":
        return cls("unknown", reason="cancelled")

    @classmethod
    def incomplete(cls, detail: str) -> "Verdict":
        """A sat-only solver gave up: it can show sat, never unsat."""
        return cls("unknown", reason="incomplete", detail=detail)

    @classmethod
    def error(cls, detail: str) -> "Verdict":
        return cls("unknown", reason="solver-error", detail=detail)

    @property
    def is_sat(self) -> bool:
        return self.kind == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.kind == "unsat"

    @property
    def is_definitive(self) -> bool:
        return self.kind in ("sat", "unsat")

    @property
    def is_timeout(self) -> bool:
        return self.kind == "unknown" and self.reason == "timeout"

    @property
    def is_cancelled(self) -> bool:
        return self.kind == "unknown" and self.reason == "cancelled"


# Node kinds for the integer-encoded formula universe.
_K_TRUE, _K_FALSE, _K_LIT, _K_NEXT, _K_AND, _K_OR, _K_UNTIL, _K_RELEASE = range(8)

_KIND_OF = {
    TrueConst: _K_TRUE,
    FalseConst: _K_FALSE,
    Prop: _K_LIT,
    Not: _K_LIT,
    Next: _K_NEXT,
    And: _K_AND,
    Or: _K_OR,
    Until: _K_UNTIL,
    Release: _K_RELEASE,
}


class _Tableau:
    """The lazily expanded graph that ``tableau`` and ``lasso`` search with
    :func:`_accepting_scc`.

    A state is an obligation set: ``1`` (the root formula, rank 0) and then
    the X-labels of expanded nodes, since a node's successors depend only
    on its X-label.  Formulas are encoded as dense integer ranks (closure
    order) and formula sets (nodes, states) as int bitmasks over those
    ranks, so the hot set operations are integer operations.  All iteration
    orders are pinned (formulas that never branch first, each kind by rank;
    branches left-first; transitions by completion), which makes verdicts
    and evidence deterministic for a fixed formula and budget.
    """

    def __init__(self, root: Formula, budget: Budget) -> None:
        self.budget = budget
        order = closure(root)
        rank = {g: r for r, g in enumerate(order)}
        n = len(order)
        kind = [0] * n
        arg1 = [-1] * n  # operand / left (the proposition, for a negation)
        arg2 = [-1] * n  # right
        clash = [0] * n  # bit of the complementary literal, if any
        holds = [0] * n  # the bits of which any in a node makes the formula hold there
        props: list[tuple[int, str]] = []  # (bit, name) per proposition
        true_bit = branching = 0  # branching: Ors, Us and Rs whose left is not false
        untils: list[tuple[int, int, int]] = []  # (Until bit, right rank, mark bit)
        late = []  # the Ors whose ``holds`` the loop built from an unfinished operand
        for r in reversed(range(n)):  # operands mostly come after their formula
            g = order[r]
            t = type(g)
            k = kind[r] = _KIND_OF.get(t)
            if k is None or (t is Not and type(g.operand) is not Prop):
                raise TypeError(f"formula not in negation normal form: {g!r}")
            holds[r] = 1 << r
            if k >= _K_AND:
                a = arg1[r] = rank[g.left]
                b = arg2[r] = rank[g.right]
                if k >= _K_OR and type(g.left) is not FalseConst:
                    branching |= 1 << r
                if k == _K_OR:
                    holds[r] |= holds[a] | holds[b]
                    if a < r or b < r:
                        late.append(r)
                elif k == _K_UNTIL:
                    untils.append((1 << r, b, 1 << len(untils)))
            elif k == _K_NEXT:
                arg1[r] = rank[g.operand]
            elif t is Not:
                a = arg1[r] = rank[g.operand]
                clash[r], clash[a] = 1 << a, 1 << r
            elif t is Prop:
                props.append((1 << r, g.name))
            elif k == _K_TRUE:
                true_bit, holds[r] = 1 << r, -1  # every node makes true hold
        for r in reversed(late):
            holds[r] |= holds[arg1[r]] | holds[arg2[r]]

        self._kind = kind
        self._arg1 = arg1
        self._arg2 = arg2
        self._clash = clash
        self._true_bit = true_bit
        self._sure = ~branching
        self._holds = holds
        self._untils = tuple(untils)
        self._props = tuple(props)
        # A transition's mark has bit i set when its node does not owe
        # Until i or fulfils it.  A cycle is accepting when the union of
        # its transitions' marks is ``full_mark``.
        self.full_mark = (1 << len(untils)) - 1
        self._expand_cache: dict[int, tuple[tuple[int, int, int], ...]] = {}

    def expand(self, state: int) -> tuple[tuple[int, int, int], ...]:
        """The transitions out of ``state`` as (next state, mark, node)
        triples: one per distinct (next state, mark), in the order the
        left-first branch search completes them, and witnessed by the first
        fully expanded node that completes it."""
        cached = self._expand_cache.get(state)
        if cached is not None:
            return cached
        kind, arg1, arg2 = self._kind, self._arg1, self._arg2
        clash, true_bit, sure, holds = self._clash, self._true_bit, self._sure, self._holds
        untils, full = self._untils, self.full_mark
        budget = self.budget
        steps, batch = 0, budget._batch()
        out: dict[tuple[int, int], tuple[int, int, int]] = {}
        # Each branch is (done, todo, label): the formulas the node holds,
        # those still to expand, and the obligations it passes on.
        stack: list[tuple[int, int, int]] = [(0, state & ~true_bit, 0)]
        while stack:
            done, todo, label = stack.pop()
            # Follow one branch to its end; alternatives wait on ``stack``.
            while True:
                steps += 1
                if steps == batch:
                    budget.charge(batch)
                    steps, batch = 0, budget._batch()
                if not todo:
                    mark = full
                    for u, r, m in untils:
                        if done & u and not done & holds[r]:
                            mark ^= m
                    out.setdefault((label, mark), (label, mark, done))
                    break
                pick = todo & sure or todo  # sure formulas first, then by rank
                bit = pick & -pick
                todo ^= bit
                g = bit.bit_length() - 1
                k = kind[g]
                if k == _K_LIT:
                    if done & clash[g]:
                        break
                    done |= bit
                elif k == _K_NEXT:
                    done |= bit
                    label |= 1 << arg1[g] & ~true_bit
                elif k == _K_AND:
                    done |= bit
                    todo |= ((1 << arg1[g]) | (1 << arg2[g])) & ~(done | true_bit)
                elif k == _K_OR:
                    done |= bit
                    a, b = arg1[g], arg2[g]
                    if done & (holds[a] | holds[b]):
                        continue
                    if kind[a] == _K_FALSE or done & clash[a]:
                        todo |= 1 << b
                    elif kind[b] == _K_FALSE or done & clash[b]:
                        todo |= 1 << a
                    else:
                        stack.append((done | clash[a], todo | 1 << b, label))  # explored second
                        todo |= 1 << a
                elif k == _K_UNTIL:
                    done |= bit
                    if not done & holds[arg2[g]]:
                        # delay (explored second) or fulfil now
                        delay = todo | 1 << arg1[g] & ~true_bit
                        stack.append((done | clash[arg2[g]], delay, label | bit))
                        todo |= 1 << arg2[g] & ~true_bit
                elif k == _K_RELEASE:
                    done |= bit
                    todo |= 1 << arg2[g] & ~(done | true_bit)
                    if kind[arg1[g]] == _K_FALSE:  # G: never released
                        label |= bit
                    elif not (done & holds[arg1[g]] or label & bit):
                        # keep releasing (explored second) or release now
                        stack.append((done | clash[arg1[g]], todo, label | bit))
                        todo |= 1 << arg1[g] & ~true_bit
                elif k == _K_FALSE:
                    break
                # True holds everywhere: it never enters ``todo`` or a node.
        if steps:
            budget.charge(steps)
        result = self._expand_cache[state] = tuple(out.values())
        return result

    def state_of(self, node: int) -> frozenset[str]:
        """The letter of ``node``: the propositions it holds."""
        return frozenset([name for bit, name in self._props if node & bit])


# ---------------------------------------------------------------------------
# Complete check


def tableau_check(f: Formula, budget: Budget | None = None) -> Verdict:
    """Decide satisfiability of ``f`` within ``budget``.

    Sat verdicts carry a lasso extracted from an accepting cycle of the
    tableau graph; Unsat means the graph was exhausted without one; budget
    exhaustion yields Unknown(timeout), cancellation Unknown(cancelled).

    Variable-disjoint components are checked one at a time, which keeps
    wide but loosely coupled conjunctions tractable; each component's lasso
    is extracted as it is shown sat, and merged once all are.
    """
    return run_strategy("tableau", f, Budget() if budget is None else budget)


class _Split:
    """A formula's components, split once from its :func:`_simplify`-ed
    NNF, the propositions that pass fixed true, and the lasso of each
    component shown sat, by component index: the first one posted."""

    def __init__(self, formula: Formula) -> None:
        self.formula = formula
        self.sat: dict[int, LassoWord] = {}
        self.fixed_true: frozenset[str] = frozenset()
        self._lock = threading.Lock()
        self._components: list[Formula] | None = None

    def components(self) -> list[Formula]:
        with self._lock:  # the other solvers wait instead of splitting too
            if self._components is None:
                g, self.fixed_true = _simplify(*_nnf_literals(self.formula))
                self._components = _components(g)
        return self._components


#: The split of the race whose solver thread this is; None outside a race.
_RACE_SPLIT: ContextVar[_Split | None] = ContextVar("polsat_race_split", default=None)


def _components(g: Formula) -> list[Formula]:
    """Split a conjunction into variable-disjoint groups of conjuncts."""
    parts: list[Formula] = []
    stack = [g]
    while stack:
        h = stack.pop()
        if type(h) is And:
            stack.append(h.right)
            stack.append(h.left)
        else:
            parts.append(h)
    if len(parts) <= 1:
        return [g]
    part_props = [prop_names(p) for p in parts]
    parent = list(range(len(parts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[str, int] = {}
    for i, props in enumerate(part_props):
        for name in props:
            j = owner.setdefault(name, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[Formula]] = {}
    for i, part in enumerate(parts):
        groups.setdefault(find(i), []).append(part)
    components = []
    for key in sorted(groups):
        conjuncts = groups[key]
        acc = conjuncts[0]
        for part in conjuncts[1:]:
            acc = And(acc, part)
        components.append(acc)
    return components


def _simplify(g: Formula, census: tuple | None = None) -> tuple[Formula, frozenset[str]]:
    """An equisatisfiable reduct of the NNF formula ``g``, and the
    propositions it fixed true: a model of the reduct with those added to
    every state is a model of ``g``.

    Until nothing changes, each proposition that is pure (an NNF formula is
    monotone in each literal: Davis and Putnam's rule) or that a top-level
    conjunct ``false R l`` names in a literal ``l`` (a G-unit) is fixed to
    that polarity, and the constants this leaves are folded.  The first
    round's literal census is ``census`` when given (the split's NNF pass
    takes it); a round without one walks the formula once.
    """
    fixed: dict[str, bool] = {}
    while True:
        pos, neg = census or (set(), set())
        if census is None:
            walked: set[int] = set()  # ids of the compound nodes already walked
            nodes = [g]
            for h in nodes:
                t = type(h)
                if t is Prop:
                    pos.add(h.name)
                elif t is Not:
                    neg.add(h.operand.name)
                elif id(h) not in walked and t is not TrueConst and t is not FalseConst:
                    walked.add(id(h))
                    nodes += (h.operand,) if t is Next else (h.left, h.right)
        census = None
        new = {name: name in pos for name in pos ^ neg}
        conjuncts = [g]
        for h in conjuncts:
            if type(h) is And:
                conjuncts += h.left, h.right
            elif type(h) is Release and type(h.left) is FalseConst:
                if type(h.right) in (Prop, Not):  # of G p and G !p, the first wins
                    (name,) = prop_names(h.right)
                    new.setdefault(name, type(h.right) is Prop)
        if not new:
            return g, frozenset(name for name, value in fixed.items() if value)
        fixed.update(new)
        g = _fold(g, new, {})


#: The left unit of each binary operator: true & b = false | b = false U b = true R b = b.
_LEFT_UNIT = {And: TrueConst, Or: FalseConst, Until: FalseConst, Release: TrueConst}


def _fold(g: Formula, value: dict[str, bool], memo: dict) -> Formula:
    """``g`` with the propositions of ``value`` replaced by constants, and
    constants and the idempotent ``a op a`` folded, once per input node
    (``memo``, by id); the left operand is skipped when the right one decides."""
    t = type(g)
    if t is Prop or t is Not:
        v = value.get(g.name if t is Prop else g.operand.name)
        return g if v is None else TRUE if v == (t is Prop) else FALSE
    if t is TrueConst or t is FalseConst:
        return g
    h = memo.get(id(g))
    if h is not None:
        return h
    if t is Next:
        a = _fold(g.operand, value, memo)
        h = a if type(a) in (TrueConst, FalseConst) else g if a is g.operand else Next(a)
    else:
        b = _fold(g.right, value, memo)
        tb = type(b)
        unit, boolean = _LEFT_UNIT[t], t is And or t is Or
        if (tb is TrueConst or tb is FalseConst) and not (boolean and tb is unit):
            h = b  # a & false = false, a | true = true, a U c = a R c = c
        else:
            a = _fold(g.left, value, memo)
            if type(a) is unit or a == b:
                h = b
            elif tb is unit or boolean and type(a) in (TrueConst, FalseConst):
                h = a
            else:
                h = g if a is g.left and b is g.right else t(a, b)
    memo[id(g)] = h
    return h


def _merge_words(words: list[LassoWord], fixed: frozenset[str]) -> LassoWord | None:
    """Pointwise union of lassos over disjoint proposition sets, with the
    propositions ``fixed`` added to every state."""
    if not words:
        return None
    if len(words) == 1 and not fixed:
        return words[0]
    prefix_len = max(len(w.prefix) for w in words)
    loop_len = lcm(*(len(w.loop) for w in words))
    if prefix_len + loop_len > _MERGE_CAP:
        return None
    prefix = tuple(
        fixed.union(*(w.state_at(k) for w in words)) for k in range(prefix_len)
    )
    loop = tuple(
        fixed.union(*(w.state_at(prefix_len + k) for w in words))
        for k in range(loop_len)
    )
    return LassoWord(prefix, loop)


def _tableau_component(g: Formula, budget: Budget) -> LassoWord | None:
    tab = _Tableau(g, budget)
    found, _ = _accepting_scc(tab)
    return None if found is None else _extract_word(tab, *found)


def _lasso_component(g: Formula, budget: Budget) -> LassoWord | None:
    """Iterative deepening of :func:`_accepting_scc` on one graph of the NNF
    component ``g``: the first accepting partial SCC found with the search
    path held to 1, 2, 3, ... states, or None once a pass is not cut short,
    since the whole graph was then searched.  Never concludes unsat."""
    tab = _Tableau(g, budget)
    for depth in count(1):
        found, limited = _accepting_scc(tab, depth)
        if found is not None:
            return _extract_word(tab, *found)
        if not limited:
            return None


def _accepting_scc(
    tab: _Tableau, depth: int | None = None
) -> tuple[tuple[list[int], list[int]] | None, bool]:
    """The witness nodes of a path of transitions from the initial state to
    a state ``r``, and strongly connected states, ``r`` first, whose inner
    transitions' marks fill ``full_mark``, or None; and whether ``depth``
    cut the search short.

    Couvreur's on-the-fly emptiness check with the marks on transitions:
    each root of a partial SCC of the lazy depth-first search keeps the
    mark of the transition the search entered it by and the union of the
    marks inside its partial SCC.  A transition into an active state merges
    roots: the surviving root gains the closing transition's mark and both
    marks of every root merged into it, but not its own entry mark, which
    lies outside.  The search stops as soon as a merged union is full,
    before the SCC is complete.  With ``depth``, unvisited successors are
    skipped once the search path holds ``depth`` states, and each visit is
    charged: a deeper pass re-walks states whose transitions are cached,
    which charges nothing else.  A cycle found on that subgraph is still a
    cycle of the graph.
    """
    full, charge = tab.full_mark, tab.budget.charge
    limited = False
    # Visited state -> its position in ``stack``, or -1 once its SCC is done.
    pos: dict[int, int] = {}
    stack: list[int] = []
    # Per partial SCC: its root's stack position, the mark of the
    # transition into that root, and the union of the marks inside it.
    roots: list[tuple[int, int, int]] = []
    # (state, witness node of the transition into it, its transitions)
    work: list[tuple[int, int, Iterator[tuple[int, int, int]]]] = []

    def visit(v: int, mark: int, node: int) -> None:
        if depth is not None:
            charge()
        pos[v] = len(stack)
        roots.append((len(stack), mark, 0))
        stack.append(v)
        work.append((v, node, iter(tab.expand(v))))

    visit(1, 0, 0)  # the root formula has rank 0
    while work:
        v, _, succ = work[-1]
        for w, mark, node in succ:
            at = pos.get(w)
            if at is None:
                if len(work) == depth:
                    limited = True
                    continue
                visit(w, mark, node)
                break
            if at >= 0:
                # The closing mark, and both marks of each root merged away.
                while roots[-1][0] > at:
                    _, entry, inner = roots.pop()
                    mark |= entry | inner
                at, entry, inner = roots[-1]
                roots[-1] = at, entry, inner | mark
                if inner | mark == full:
                    # Roots lie on the search path, so ``work`` holds the
                    # path from the initial state to this one.
                    states = [x for x, _, _ in work]
                    path = [x for _, x, _ in work[1 : states.index(stack[at]) + 1]]
                    return (path, stack[at:]), limited
        else:
            work.pop()
            at = pos[v]
            if roots[-1][0] == at:  # v's SCC is complete, and not accepting
                roots.pop()
                for w in stack[at:]:
                    pos[w] = -1
                del stack[at:]
    return None, limited


def _extract_word(tab: _Tableau, path: list[int], members: list[int]) -> LassoWord:
    """The lasso whose prefix is the letters of the witness nodes ``path``
    and whose loop goes around a cycle within the states ``members``,
    starting and ending at the first: from there it takes, for each mark
    bit not yet covered, the nearest transition inside ``members`` that
    carries it, and then returns.  It walks cached transitions only, so it
    charges nothing."""
    inside = set(members)
    root, owed = members[0], tab.full_mark
    loop: list[int] = []
    state = root
    while owed or state != root or not loop:
        hops = _path_within(tab, inside, state, root, owed)
        for state, mark, node in hops:
            owed &= ~mark
            loop.append(node)
    return LassoWord(tuple(map(tab.state_of, path)), tuple(map(tab.state_of, loop)))


def _path_within(
    tab: _Tableau, members: set[int], source: int, target: int, owed: int
) -> list[tuple[int, int, int]]:
    """The transitions of a shortest path inside ``members`` from ``source``
    to the first transition that carries a bit of ``owed`` or, when nothing
    is owed, that enters ``target``.

    When source equals target this finds a nontrivial cycle back to it.
    """
    parent: dict[int, tuple[int, int, int]] = {}  # state -> transition into it
    queue = [source]
    for v in queue:
        for w, mark, node in tab.expand(v):
            if w not in members:
                continue
            if mark & owed if owed else w == target:
                hops = [(w, mark, node)]
                while v != source:
                    u, m, n = parent[v]
                    hops.append((v, m, n))
                    v = u
                hops.reverse()
                return hops
            if w != source and w not in parent:
                parent[w] = (v, mark, node)
                queue.append(w)
    raise AssertionError("members are strongly connected; path must exist")


# ---------------------------------------------------------------------------
# Syntactic shortcut

Literal = tuple[str, bool]


def _shortcut_component(g: Formula, budget: Budget) -> LassoWord | None:
    """Propose one-state loops from syntactic obligation sets.

    Obligations: a literal obliges itself; X/U/R defer to the operand or
    right-hand side; conjunction takes pairwise unions; disjunction takes
    either side's family.  A consistent obligation set yields the candidate
    word looping its positive literals forever, which is kept only if the
    trace evaluator confirms it.  Soundness comes entirely from that
    confirmation; this is a filter, not a solver.  Each variable-disjoint
    component gets its own family, so families add, not multiply.
    """
    for literals in _obligation_family(g, {}) or ():
        budget.charge()
        by_name: dict[str, bool] = {}
        if any(by_name.setdefault(name, pos) != pos for name, pos in literals):
            continue
        word = LassoWord((), (frozenset(name for name, pos in literals if pos),))
        if evaluate(word, g):
            return word
    return None


def _obligation_family(g: Formula, memo: dict) -> list[frozenset[Literal]] | None:
    """The obligation family of ``g``, or None when it outgrows the cap;
    computed once per distinct subformula (``memo``), so shared subterms
    of an :func:`nnf` DAG cost one visit."""
    if g not in memo:
        memo[g] = _obligations(g, memo)
    return memo[g]


def _obligations(g: Formula, memo: dict) -> list[frozenset[Literal]] | None:
    t = type(g)
    if t is TrueConst:
        return [frozenset()]
    if t is FalseConst:
        return []
    if t is Prop:
        return [frozenset({(g.name, True)})]
    if t is Not:
        return [frozenset({(g.operand.name, False)})]
    if t is Next:
        return _obligation_family(g.operand, memo)
    if t in (Until, Release):
        return _obligation_family(g.right, memo)
    if t is Or:
        left = _obligation_family(g.left, memo)
        if left is None:
            return None
        right = _obligation_family(g.right, memo)
        if right is None:
            return None
        merged = list(dict.fromkeys(left + right))
        return merged if len(merged) <= _FAMILY_CAP else None
    if t is And:
        left = _obligation_family(g.left, memo)
        if left is None:
            return None
        right = _obligation_family(g.right, memo)
        if right is None:
            return None
        if len(left) * len(right) > _FAMILY_CAP:
            return None
        product = list(dict.fromkeys(a | b for a in left for b in right))
        return product if len(product) <= _FAMILY_CAP else None
    raise TypeError(f"formula not in negation normal form: {g!r}")


# ---------------------------------------------------------------------------
# Uniform strategy interface for the portfolio

def run_strategy(name: str, f: Formula, budget: Budget) -> Verdict:
    """Run one internal solver to a verdict under ``budget``.

    Each solver checks the variable-disjoint components of ``f`` in turn,
    and its check returns a component's lasso or None.  The first None ends
    the run: the sat-only searches report Unknown(incomplete), so the
    portfolio keeps waiting on the others.  In a race the solvers share one
    :class:`_Split` and skip the components another has shown sat.
    """
    if name not in _STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    check, unanswered = _STRATEGIES[name]
    split = _RACE_SPLIT.get()
    if split is None or split.formula is not f:
        split = _Split(f)
    try:
        words = []
        for i, component in enumerate(split.components()):
            word = split.sat.get(i)
            if word is None:
                word = check(component, budget)
                if word is None:
                    return unanswered
                word = split.sat.setdefault(i, word)  # the first word posted wins
            words.append(word)
    except _Stop as stop:
        return Verdict("unknown", reason=stop.reason)
    return Verdict.sat(_merge_words(words, split.fixed_true))


#: Per internal solver, in portfolio order: its check on one component, and
#: the verdict for a formula with a component that check cannot show sat.
_STRATEGIES = {
    "tableau": (_tableau_component, Verdict.unsat()),
    "lasso": (_lasso_component, Verdict.incomplete("no accepting lasso in a component")),
    "shortcut": (_shortcut_component, Verdict.incomplete("no candidate in a component")),
}
