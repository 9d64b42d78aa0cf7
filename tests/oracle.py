"""Brute-force lasso-family satisfaction oracle on Python-int bitsets.

The oracle answers "does any lasso with bounded prefix/loop over the given
propositions satisfy this formula" by evaluating all lassos at once: every
formula maps to one bitset over the positions of every lasso in the family,
built compositionally (Until/Release as fixpoint iterations over the
position-successor map).  Bits are laid out column-major: bit ``k*N + i``
is offset ``k`` of lasso ``i`` (``N`` lassos), so the bits of every lasso's
start are the low ``N`` bits, and the successor map is one right shift by
``N`` plus one masked left shift per loop length.  Offsets past a lasso's
end are kept at zero.  This is independent of the solver code under test;
only the tiny per-lasso evaluator in ``polsat.lasso`` shares the semantics,
and the two are cross-checked against each other in the test suite.

:func:`holds` is a second, per-word reference for long lassos, written
without the bitset tricks of either evaluator.
"""

from __future__ import annotations

from typing import Callable, Iterable

from polsat.formulas import (
    And,
    FalseConst,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    TrueConst,
    Until,
)
from polsat.lasso import LassoWord

from conftest import all_lassos

UNARY_OPS = (Not, Next, Globally, Finally)
BINARY_OPS = (And, Or, Implies, Iff, Until, Release)


def holds(word: LassoWord, formula: Formula) -> bool:
    """Reference ``word |= formula``: one list of truth values per subformula.

    Until and Release walk backwards over the positions, twice around the
    loop and then through the prefix (Markey & Schnoebelen's pass over an
    ultimately periodic word).  The first lap starts from the fixpoint's
    start value past the loop's end and is exact at the loop's start, so
    the second lap is exact everywhere.
    """
    states = word.prefix + word.loop
    start, m = len(word.prefix), len(states)
    succ = list(range(1, m)) + [start]
    order = [*range(m - 1, start - 1, -1)] * 2 + [*range(start - 1, -1, -1)]

    def walk(a: list[bool], b: list[bool], strong: bool) -> list[bool]:
        out, val = [False] * m, not strong  # l U r is least, l R r greatest
        for i in order:
            val = (b[i] or a[i] and val) if strong else (b[i] and (a[i] or val))
            out[i] = val
        return out

    def truth(f: Formula) -> list[bool]:
        t = type(f)
        if t in (TrueConst, FalseConst):
            return [t is TrueConst] * m
        if t is Prop:
            return [f.name in s for s in states]
        if t is Not:
            return [not x for x in truth(f.operand)]
        if t is Next:
            v = truth(f.operand)
            return [v[succ[i]] for i in range(m)]
        if t in (Globally, Finally):
            return walk([t is Finally] * m, truth(f.operand), t is Finally)
        a, b = truth(f.left), truth(f.right)
        if t in (Until, Release):
            return walk(a, b, t is Until)
        op = {And: bool.__and__, Or: bool.__or__, Iff: bool.__eq__, Implies: bool.__le__}
        return [op[t](x, y) for x, y in zip(a, b)]

    return truth(formula)[0]


class VectorOracle:
    def __init__(
        self, props: tuple[str, ...], max_prefix: int = 3, max_loop: int = 3
    ) -> None:
        self.lassos: list[LassoWord] = list(all_lassos(props, max_prefix, max_loop))
        n = self.n = len(self.lassos)
        self._starts = (1 << n) - 1
        valid = 0
        not_last = 0
        ends: dict[int, int] = {}  # loop length -> bits of the lasso ends
        prop_bits = dict.fromkeys(props, 0)
        for i, w in enumerate(self.lassos):
            states = w.prefix + w.loop
            for k, state in enumerate(states):
                bit = 1 << (k * n + i)
                valid |= bit
                if k + 1 < len(states):
                    not_last |= bit
                else:
                    ends[len(w.loop)] = ends.get(len(w.loop), 0) | bit
                for p in state:
                    prop_bits[p] |= bit
        self._true = valid
        self._not_last = not_last
        # A lasso's end steps back to its loop start, ``loop - 1`` offsets
        # earlier: a left shift by ``(loop - 1) * N`` masked to those ends.
        self._wraps = tuple((mask, (loop - 1) * n) for loop, mask in ends.items())
        self._props = prop_bits

    # -- primitive bitset operations ----------------------------------------

    def leaf_vec(self, f: Formula) -> int:
        t = type(f)
        if t is TrueConst:
            return self._true
        if t is FalseConst:
            return 0
        if t is Prop:
            return self._props[f.name]
        raise TypeError(f"not a leaf: {f!r}")

    def _shift(self, v: int) -> int:
        out = (v >> self.n) & self._not_last
        for mask, shift in self._wraps:
            out |= (v << shift) & mask
        return out

    def _until(self, left: int, right: int) -> int:
        v = right
        while True:
            nv = right | (left & self._shift(v))
            if nv == v:
                return v
            v = nv

    def _release(self, left: int, right: int) -> int:
        v = self._true
        while True:
            nv = right & (left | self._shift(v))
            if nv == v:
                return v
            v = nv

    def unary_vec(self, op: type, v: int) -> int:
        if op is Not:
            return v ^ self._true
        if op is Next:
            return self._shift(v)
        if op is Globally:
            return self._release(0, v)
        if op is Finally:
            return self._until(self._true, v)
        raise TypeError(op)

    def binary_vec(self, op: type, a: int, b: int) -> int:
        if op is And:
            return a & b
        if op is Or:
            return a | b
        if op is Implies:
            return (a ^ self._true) | b
        if op is Iff:
            return a ^ b ^ self._true
        if op is Until:
            return self._until(a, b)
        if op is Release:
            return self._release(a, b)
        raise TypeError(op)

    # -- formula-level interface ---------------------------------------------

    def vec(self, f: Formula) -> int:
        t = type(f)
        if t in (TrueConst, FalseConst, Prop):
            return self.leaf_vec(f)
        if t in UNARY_OPS:
            return self.unary_vec(t, self.vec(f.operand))
        return self.binary_vec(t, self.vec(f.left), self.vec(f.right))

    def start_bits(self, v: int) -> int:
        """Bit ``i`` is set iff lasso ``i`` satisfies the formula of ``v``."""
        return v & self._starts

    def sat_bit(self, v: int) -> bool:
        return bool(v & self._starts)

    def sat(self, f: Formula) -> bool:
        return self.sat_bit(self.vec(f))

    def witness(self, f: Formula) -> LassoWord | None:
        hits = self.start_bits(self.vec(f))
        if not hits:
            return None
        return self.lassos[(hits & -hits).bit_length() - 1]


def stream_formulas(
    max_size: int,
    leaves: tuple[Formula, ...],
    oracle: VectorOracle,
    visit: Callable[[Formula, bool], None],
) -> int:
    """Call ``visit(formula, oracle_sat)`` for EVERY formula of AST size up
    to ``max_size`` whose leaves come from ``leaves``.

    Vectors stay resident only for sizes up to ``max_size - 2`` (what binary
    roots need); the last two levels stream, so memory stays bounded while
    the enumeration is exhaustive.  Returns the number of formulas visited.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    count = 0

    def emit(f: Formula, v: int) -> None:
        nonlocal count
        count += 1
        visit(f, oracle.sat_bit(v))

    resident_limit = max(1, max_size - 2)
    objs: dict[int, list[Formula]] = {1: list(leaves)}
    vecs: dict[int, list[int]] = {1: [oracle.leaf_vec(f) for f in leaves]}
    for f, v in zip(objs[1], vecs[1]):
        emit(f, v)

    def build_level(n: int) -> Iterable[tuple[Formula, int]]:
        for f, v in zip(objs[n - 1], vecs[n - 1]):
            for op in UNARY_OPS:
                yield op(f), oracle.unary_vec(op, v)
        for left_size in range(1, n - 1):
            right_size = n - 1 - left_size
            for fl, vl in zip(objs[left_size], vecs[left_size]):
                for fr, vr in zip(objs[right_size], vecs[right_size]):
                    for op in BINARY_OPS:
                        yield op(fl, fr), oracle.binary_vec(op, vl, vr)

    for n in range(2, resident_limit + 1):
        objs[n], vecs[n] = [], []
        for f, v in build_level(n):
            emit(f, v)
            objs[n].append(f)
            vecs[n].append(v)

    if max_size == 2:
        for f, v in build_level(2):
            emit(f, v)
    elif max_size >= 3:
        # Second-to-last level streams; its unary parents (the only
        # top-level formulas needing it) are emitted inline.
        for f, v in build_level(max_size - 1):
            emit(f, v)
            for op in UNARY_OPS:
                emit(op(f), oracle.unary_vec(op, v))
        # Binary roots of the last level pair resident children.
        for left_size in range(1, max_size - 1):
            right_size = max_size - 1 - left_size
            for fl, vl in zip(objs[left_size], vecs[left_size]):
                for fr, vr in zip(objs[right_size], vecs[right_size]):
                    for op in BINARY_OPS:
                        emit(op(fl, fr), oracle.binary_vec(op, vl, vr))
    return count
