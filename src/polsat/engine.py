"""Internal reference decision procedures.

Three in-process solvers back the portfolio so it works without any
third-party binaries.  Each is reached by name through :func:`run_strategy`:

* ``tableau`` -- a complete, sound (within budget) graph tableau.  Nodes are
  locally consistent, fully expanded formula sets; an accepting lasso is a
  reachable cycle fulfilling every Until-eventuality on it, found on the fly
  by Couvreur's emptiness check while the graph is still being built, and is
  returned directly as evidence.  :func:`tableau_check` runs it alone.
* ``lasso`` -- the same check on the same graph, iteratively deepened:
  the search path is held to 1, 2, 3, ... nodes, and the first accepting
  cycle a pass finds is the evidence; once a pass is not cut short, the
  whole graph was searched and it gives up.  Sat-only.
* ``shortcut`` -- a cheap syntactic filter that proposes one-state loops
  from "obligation" literal sets and keeps a proposal only if the trace
  evaluator confirms it; sat-only, never authoritative on its own.

Each checks the variable-disjoint components (groups of top-level
conjuncts) one at a time, stops at the first component it cannot show sat
(Unsat for the tableau, Unknown(incomplete) for the sat-only two), and
builds evidence only once every component is sat.  The solvers of one race
share the split and skip the components another of them has shown sat.

Expansion rules: ``a U b`` expands to ``b | (a & X(a U b))``, ``a R b`` to
``b & (a | X(a R b))``; And/Or saturate; the successor obligation set is the
set of operands of X-formulas in a node.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import count
from math import lcm
from typing import Callable, Iterator

from .formulas import (
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
    closure,
    nnf,
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
    expansion; ``lasso``'s depth-bounded searches add one per visited node
    and ``shortcut`` one per candidate, while the unbounded ``tableau``
    search adds nothing.  ``max_nodes`` stops a search at exactly the step
    that exceeds it.
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

    Formulas are encoded as dense integer ranks (closure order) and formula
    sets (nodes, obligations) as int bitmasks over those ranks, so the hot
    set operations are integer operations.  All iteration orders are pinned
    (formulas by rank, branches left-first, nodes by creation id), which
    makes verdicts and evidence deterministic for a fixed formula and
    budget.
    """

    def __init__(self, root: Formula, budget: Budget) -> None:
        self.budget = budget
        order = closure(root)
        rank = {g: r for r, g in enumerate(order)}
        kind: list[int] = []
        arg1: list[int] = []  # operand / left (the proposition, for a negation)
        arg2: list[int] = []  # right
        props: list[tuple[int, str]] = []  # (bit, name) per proposition
        for r, g in enumerate(order):
            t = type(g)
            k = _KIND_OF.get(t)
            if k is None or (t is Not and type(g.operand) is not Prop):
                raise TypeError(f"formula not in negation normal form: {g!r}")
            kind.append(k)
            if k >= _K_AND:
                arg1.append(rank[g.left])
                arg2.append(rank[g.right])
            else:
                arg1.append(rank[g.operand] if k == _K_NEXT or t is Not else -1)
                arg2.append(-1)
                if t is Prop:
                    props.append((1 << r, g.name))

        n = len(kind)
        next_rank = {arg1[r]: r for r in range(n) if kind[r] == _K_NEXT}
        clash = [0] * n  # bit of the complementary literal, when in the universe
        next_of = [-1] * n  # rank of X(g) for Until/Release g
        true_bit = 0
        # Acceptance obligations as (Until bit, right-side bit).  An Until
        # whose right side is ``true`` is fulfilled at every position (and
        # True never appears in node sets, so it could not be marked), hence
        # it imposes no obligation.
        untils: list[tuple[int, int]] = []
        for r in range(n):
            k = kind[r]
            if k == _K_LIT and arg1[r] >= 0:
                clash[r] = 1 << arg1[r]
                clash[arg1[r]] = 1 << r
            elif k == _K_TRUE:
                true_bit = 1 << r
            elif k >= _K_UNTIL:
                # X(g), ranked after the closure in closure order unless the
                # closure already holds it.
                next_of[r] = next_rank.get(r, len(kind))
                if next_of[r] == len(kind):
                    kind.append(_K_NEXT)
                    arg1.append(r)
                if k == _K_UNTIL and kind[arg2[r]] != _K_TRUE:
                    untils.append((1 << r, 1 << arg2[r]))

        self._kind = kind
        self._arg1 = arg1
        self._arg2 = arg2
        self._clash = clash
        self._next_of = next_of
        self._true_bit = true_bit
        self.untils = tuple(untils)
        # (bit of X(g), bit of g) per Next formula, and (bit, name) per Prop.
        self._nexts = tuple(
            (1 << r, 1 << arg1[r]) for r, k in enumerate(kind) if k == _K_NEXT
        )
        self._props = tuple(props)
        # Successor ids by X-label (the obligations a node passes on).
        self._expand_cache: dict[int, tuple[int, ...]] = {}
        self.nodes: dict[int, int] = {}
        self.node_sets: list[int] = []
        self._succ: list[tuple[int, ...] | None] = []
        # Acceptance mark per node id: bit i is set when the node does not
        # owe Until i or fulfils it.  A cycle is accepting when the union
        # of its marks is ``full_mark``.
        self.marks: list[int] = []
        self.full_mark = (1 << len(untils)) - 1

    # -- expansion ---------------------------------------------------------

    def expand(self, obligations: int) -> tuple[int, ...]:
        """Ids of the fully expanded nodes that discharge ``obligations``,
        interned in the order the left-first branch search completes them."""
        cached = self._expand_cache.get(obligations)
        if cached is not None:
            return cached
        kind, arg1, arg2 = self._kind, self._arg1, self._arg2
        clash, next_of, true_bit = self._clash, self._next_of, self._true_bit
        budget = self.budget
        steps, batch = 0, budget._batch()
        out: dict[int, None] = {}
        stack: list[tuple[int, int]] = [(0, obligations & ~true_bit)]
        while stack:
            done, todo = stack.pop()
            # Follow one branch to its end; alternatives wait on ``stack``.
            while True:
                steps += 1
                if steps == batch:
                    budget.charge(batch)
                    steps, batch = 0, budget._batch()
                if not todo:
                    out[done] = None
                    break
                bit = todo & -todo  # lowest rank first
                todo ^= bit
                g = bit.bit_length() - 1
                k = kind[g]
                if k == _K_LIT:
                    if done & clash[g]:
                        break
                    done |= bit
                elif k == _K_NEXT:
                    done |= bit
                elif k == _K_AND:
                    done |= bit
                    todo |= ((1 << arg1[g]) | (1 << arg2[g])) & ~(done | true_bit)
                elif k == _K_OR:
                    done |= bit
                    a, b = arg1[g], arg2[g]
                    if ((1 << a) | (1 << b)) & (done | true_bit):
                        continue
                    if kind[a] == _K_FALSE or done & clash[a]:
                        todo |= 1 << b
                    elif kind[b] == _K_FALSE or done & clash[b]:
                        todo |= 1 << a
                    else:
                        stack.append((done, todo | 1 << b))  # explored second
                        todo |= 1 << a
                elif k == _K_UNTIL:
                    done |= bit
                    if not done & 1 << arg2[g]:
                        # delay (explored second) or fulfil now
                        delay = (1 << arg1[g] | 1 << next_of[g]) & ~true_bit
                        stack.append((done, todo | delay))
                        todo |= 1 << arg2[g] & ~true_bit
                elif k == _K_RELEASE:
                    done |= bit
                    todo |= 1 << arg2[g] & ~(done | true_bit)
                    if kind[arg1[g]] == _K_FALSE:  # G: never released
                        todo |= 1 << next_of[g] & ~done
                    elif not done & (1 << arg1[g] | 1 << next_of[g]):
                        # keep releasing (explored second) or release now
                        stack.append((done, todo | 1 << next_of[g]))
                        todo |= 1 << arg1[g] & ~true_bit
                elif k == _K_FALSE:
                    break
                # True holds everywhere: it never enters ``todo`` or a node.
        if steps:
            budget.charge(steps)
        nodes, node_sets = self.nodes, self.node_sets
        for node in out:
            if node not in nodes:
                nodes[node] = len(node_sets)
                node_sets.append(node)
                self._succ.append(None)
                mark = 0
                for i, (u, r) in enumerate(self.untils):
                    if not node & u or node & r:
                        mark |= 1 << i
                self.marks.append(mark)
        result = self._expand_cache[obligations] = tuple(map(nodes.__getitem__, out))
        return result

    # -- graph -------------------------------------------------------------

    def initial_ids(self) -> list[int]:
        return list(self.expand(1))  # the root has rank 0

    def successors(self, node_id: int) -> tuple[int, ...]:
        succ = self._succ[node_id]
        if succ is None:
            node = self.node_sets[node_id]
            label = 0
            for bit, operand in self._nexts:
                if node & bit:
                    label |= operand
            succ = self._succ[node_id] = self.expand(label)
        return succ

    def state_of(self, node_id: int) -> frozenset[str]:
        node = self.node_sets[node_id]
        return frozenset([name for bit, name in self._props if node & bit])


# ---------------------------------------------------------------------------
# Complete check


def tableau_check(f: Formula, budget: Budget | None = None) -> Verdict:
    """Decide satisfiability of ``f`` within ``budget``.

    Sat verdicts carry a lasso extracted from an accepting cycle of the
    tableau graph; Unsat means the graph was exhausted without one; budget
    exhaustion yields Unknown(timeout), cancellation Unknown(cancelled).

    Variable-disjoint components are checked one at a time, which keeps
    wide but loosely coupled conjunctions tractable; lassos are extracted,
    and merged, only once every component is sat.
    """
    return run_strategy("tableau", f, Budget() if budget is None else budget)


class _Split:
    """A formula's components, split once, and the lasso builder of each
    component shown sat.  A builder only walks edges its search cached, so
    it charges nothing, even after its solver has been cancelled."""

    def __init__(self, formula: Formula) -> None:
        self.formula = formula
        self.sat: dict[int, Callable[[], LassoWord]] = {}
        self._lock = threading.Lock()
        self._components: list[Formula] | None = None

    def components(self) -> list[Formula]:
        with self._lock:  # the other solvers wait instead of splitting too
            if self._components is None:
                self._components = _components(nnf(self.formula))
        return self._components


#: The split of the race whose solver thread this is; None outside a race.
_RACE_SPLIT: ContextVar[_Split | None] = ContextVar("polsat_race_split", default=None)


def _by_component(
    f: Formula,
    budget: Budget,
    check: Callable[[Formula, Budget], Callable[[], LassoWord] | None],
    unanswered: Verdict,
) -> Verdict:
    """Run ``check`` on each variable-disjoint component of ``f`` in turn.

    For a component it shows sat, ``check`` returns a function that builds
    the component's lasso; otherwise None.  The first None ends the run with
    ``unanswered``: no later component can make the whole formula sat.  The
    lassos are built, and merged, only once every component is sat.  In a
    race the solvers share one :class:`_Split`, so none re-checks a
    component another has shown sat.
    """
    split = _RACE_SPLIT.get()
    if split is None or split.formula is not f:
        split = _Split(f)
    try:
        builds = []
        for i, component in enumerate(split.components()):
            build = split.sat.get(i)
            if build is None:
                build = check(component, budget)
                if build is None:
                    return unanswered
                split.sat[i] = build
            builds.append(build)
        return Verdict.sat(_merge_words([build() for build in builds]))
    except _Stop as stop:
        return Verdict("unknown", reason=stop.reason)


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


def _merge_words(words: list[LassoWord]) -> LassoWord | None:
    """Pointwise union of lassos over disjoint proposition sets."""
    if not words:
        return None
    if len(words) == 1:
        return words[0]
    prefix_len = max(len(w.prefix) for w in words)
    loop_len = lcm(*(len(w.loop) for w in words))
    if prefix_len + loop_len > _MERGE_CAP:
        return None
    prefix = tuple(
        frozenset().union(*(w.state_at(k) for w in words)) for k in range(prefix_len)
    )
    loop = tuple(
        frozenset().union(*(w.state_at(prefix_len + k) for w in words))
        for k in range(loop_len)
    )
    return LassoWord(prefix, loop)


def _tableau_component(g: Formula, budget: Budget) -> Callable[[], LassoWord] | None:
    tab = _Tableau(g, budget)
    found, _ = _accepting_scc(tab)
    return None if found is None else lambda: _extract_word(tab, *found)


def _lasso_component(g: Formula, budget: Budget) -> Callable[[], LassoWord] | None:
    """Iterative deepening of :func:`_accepting_scc` on one graph of the NNF
    component ``g``: the first accepting partial SCC found with the search
    path held to 1, 2, 3, ... nodes, or None once a pass is not cut short,
    since the whole graph was then searched.  Never concludes unsat."""
    tab = _Tableau(g, budget)
    for depth in count(1):
        found, limited = _accepting_scc(tab, depth)
        if found is not None:
            return lambda: _extract_word(tab, *found)
        if not limited:
            return None


def _accepting_scc(
    tab: _Tableau, depth: int | None = None
) -> tuple[tuple[list[int], list[int]] | None, bool]:
    """A path from an initial node to a node ``r``, and strongly connected
    nodes, ``r`` first, whose marks fill ``full_mark``, or None; and whether
    ``depth`` cut the search short.

    Couvreur's on-the-fly emptiness check: each root of a partial SCC of
    the lazy depth-first search carries the union of its nodes' marks.  An
    edge into an active node merges roots, and the search stops as soon as
    a merged union is full, before the SCC is complete.  With ``depth``,
    unvisited successors are skipped once the search path holds ``depth``
    nodes, and each visit is charged: a deeper pass re-walks nodes whose
    successors are cached, which charges nothing else.  A cycle found on
    that subgraph is still a cycle of the graph.
    """
    marks, full, charge = tab.marks, tab.full_mark, tab.budget.charge
    limited = False
    visited: set[int] = set()
    on_stack: dict[int, int] = {}  # active node -> its position in ``stack``
    stack: list[int] = []
    root_at: list[int] = []  # stack position of each partial SCC's root
    root_mark: list[int] = []  # union of that partial SCC's marks
    work: list[tuple[int, Iterator[int]]] = []

    def visit(v: int) -> None:
        if depth is not None:
            charge()
        visited.add(v)
        on_stack[v] = len(stack)
        root_at.append(len(stack))
        root_mark.append(marks[v])
        stack.append(v)
        work.append((v, iter(tab.successors(v))))

    for start in tab.initial_ids():
        if start not in visited:
            visit(start)
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in visited:
                    if len(work) == depth:
                        limited = True
                        continue
                    visit(w)
                    break
                at = on_stack.get(w)
                if at is not None:
                    union = 0
                    while root_at[-1] > at:
                        root_at.pop()
                        union |= root_mark.pop()
                    root_mark[-1] |= union
                    if root_mark[-1] == full:
                        # Roots lie on the search path, so ``work`` holds
                        # the path from ``start`` to this one.
                        root = stack[root_at[-1]]
                        path = [x for x, _ in work]
                        found = path[: path.index(root) + 1], stack[root_at[-1] :]
                        return found, limited
            else:
                work.pop()
                at = on_stack[v]
                if root_at[-1] == at:  # v's SCC is complete, and not accepting
                    root_at.pop()
                    root_mark.pop()
                    for w in stack[at:]:
                        del on_stack[w]
                    del stack[at:]
    return None, limited


def _extract_word(tab: _Tableau, path: list[int], members: list[int]) -> LassoWord:
    """The lasso along ``path`` into ``members`` (which start at the path's
    last node) and then around a cycle within them through one
    fulfillment witness per pending Until."""
    inside = set(members)
    node_sets, marks = tab.node_sets, tab.marks
    entry = path[-1]
    cycle = [entry]
    for k, (u, _) in enumerate(tab.untils):
        if not any(node_sets[i] & u for i in members):
            continue
        witness = next(i for i in members if marks[i] >> k & 1)
        if witness != cycle[-1]:
            cycle.extend(_path_within(tab, inside, cycle[-1], witness))
    cycle.extend(_path_within(tab, inside, cycle[-1], entry))
    cycle.pop()  # final entry duplicates cycle[0]

    prefix = tuple(map(tab.state_of, path[:-1]))
    loop = tuple(map(tab.state_of, cycle))
    return LassoWord(prefix, loop)


def _path_within(
    tab: _Tableau, members: set[int], source: int, target: int
) -> list[int]:
    """Nodes after ``source`` up to and including ``target``, inside ``members``.

    When source equals target this finds a nontrivial cycle back to it.
    """
    parent: dict[int, int] = {}
    queue = [source]
    for v in queue:
        for w in tab.successors(v):
            if w not in members or w in parent:
                continue
            if w == target:
                hops = [w]
                while v != source:
                    hops.append(v)
                    v = parent[v]
                hops.reverse()
                return hops
            parent[w] = v
            queue.append(w)
    raise AssertionError("members are strongly connected; path must exist")


# ---------------------------------------------------------------------------
# Syntactic shortcut

Literal = tuple[str, bool]


def _shortcut_component(g: Formula, budget: Budget) -> Callable[[], LassoWord] | None:
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
            return lambda: word
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

    Each solver checks the variable-disjoint components of ``f`` one at a
    time.  The sat-only searches report Unknown(incomplete) at the first
    component they cannot show sat, so the portfolio keeps waiting on the
    others.
    """
    if name not in _STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    return _by_component(f, budget, *_STRATEGIES[name])


#: Per internal solver: its check on one component, and the verdict for a
#: formula with a component that check cannot show sat.
_STRATEGIES = {
    "tableau": (_tableau_component, Verdict.unsat()),
    "lasso": (_lasso_component, Verdict.incomplete("no accepting lasso in a component")),
    "shortcut": (_shortcut_component, Verdict.incomplete("no candidate in a component")),
}
