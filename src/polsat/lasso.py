"""Ultimately periodic words and the satisfaction check behind ``-e``.

A :class:`LassoWord` denotes the infinite word ``prefix . loop^omega`` where
every position is the set of propositions that hold there (anything absent
is false).  :func:`evaluate` decides ``word |= formula`` exactly, via
fixpoint computation over the finitely many positions of the lasso.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .formulas import (
    IDENTIFIER_RE,
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

__all__ = ["LassoWord", "evaluate", "parse_evidence", "print_evidence", "EvidenceError"]

State = frozenset[str]


def _as_state(props: Iterable[str]) -> State:
    state = frozenset(props)
    for name in state:
        if not isinstance(name, str) or not IDENTIFIER_RE.fullmatch(name):
            raise ValueError(f"invalid proposition name in state: {name!r}")
    return state


@dataclass(frozen=True)
class LassoWord:
    """The infinite word ``prefix . loop^omega``; the loop is nonempty."""

    prefix: tuple[State, ...]
    loop: tuple[State, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(_as_state(s) for s in self.prefix))
        object.__setattr__(self, "loop", tuple(_as_state(s) for s in self.loop))
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    def state_at(self, i: int) -> State:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]


def evaluate(word: LassoWord, formula: Formula) -> bool:
    """Exact decision of ``word |= formula`` under standard LTL semantics.

    Works over positions ``0 .. len(prefix)+len(loop)-1`` with the loop-back
    successor; Until/Finally are least fixpoints, Release/Globally their
    duals, so the answer is exact rather than a bounded approximation.
    A formula's truth over all positions is one int bitset (bit ``i`` is
    position ``i``), so each fixpoint step is a few integer operations.
    """
    states = word.prefix + word.loop
    loop_start = len(word.prefix)
    last = len(states) - 1
    full = (1 << len(states)) - 1

    def step(v: int) -> int:
        # Bit i of the result is bit succ(i) of v.
        return (v >> 1) | (((v >> loop_start) & 1) << last)

    memo: dict[Formula, int] = {}

    def vec(f: Formula) -> int:
        cached = memo.get(f)
        if cached is not None:
            return cached
        t = type(f)
        if t is TrueConst:
            v = full
        elif t is FalseConst:
            v = 0
        elif t is Prop:
            # Built from a binary string: linear in the word's length.
            v = int("".join("1" if f.name in s else "0" for s in reversed(states)), 2)
        elif t is Not:
            v = full ^ vec(f.operand)
        elif t is Next:
            v = step(vec(f.operand))
        elif t is And:
            v = vec(f.left) & vec(f.right)
        elif t is Or:
            v = vec(f.left) | vec(f.right)
        elif t is Implies:
            v = (full ^ vec(f.left)) | vec(f.right)
        elif t is Iff:
            v = full ^ vec(f.left) ^ vec(f.right)
        elif t is Until:
            v = _lfp(vec(f.left), vec(f.right), step)
        elif t is Release:
            # a R b  ==  !(!a U !b)
            v = full ^ _lfp(full ^ vec(f.left), full ^ vec(f.right), step)
        elif t is Globally:
            # G x  ==  false R x  ==  !(true U !x)
            v = full ^ _lfp(full, full ^ vec(f.operand), step)
        elif t is Finally:
            # F x  ==  true U x
            v = _lfp(full, vec(f.operand), step)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = v
        return v

    holds = bool(vec(formula) & 1)
    del vec  # it refers to itself; unlinked, no cyclic garbage is left behind
    return holds


def _lfp(left: int, right: int, step: Callable[[int], int]) -> int:
    # Least fixpoint of  v[i] = right[i] or (left[i] and v[succ[i]]).
    v = 0
    while True:
        nv = right | (left & step(v))
        if nv == v:
            return v
        v = nv


# ---------------------------------------------------------------------------
# Evidence text format
#
# A state lists the true propositions separated by spaces; prefix states are
# joined with "," and separated from the loop by ";"; the loop is always
# wrapped in "(...)".  "(b)" is the word with empty prefix and the one-state
# loop where only b holds; "a,b;(c)" has prefix [{a},{b}] and loop [{c}].


class EvidenceError(ValueError):
    """Malformed evidence text."""


def print_evidence(word: LassoWord) -> str:
    """Canonical text for a lasso word (propositions sorted inside states)."""
    loop = ",".join(_state_text(s) for s in word.loop)
    if word.prefix:
        prefix = ",".join(_state_text(s) for s in word.prefix)
        return f"{prefix};({loop})"
    return f"({loop})"


def _state_text(state: State) -> str:
    return " ".join(sorted(state))


def parse_evidence(text: str) -> LassoWord:
    """Inverse of :func:`print_evidence`."""
    s = text.strip()
    if not s:
        raise EvidenceError("empty evidence text")
    if ";" in s:
        prefix_text, loop_text = s.split(";", 1)
        prefix = tuple(_parse_state(part) for part in prefix_text.split(","))
    else:
        prefix_text, loop_text = None, s
        prefix = ()
    loop_text = loop_text.strip()
    if not (loop_text.startswith("(") and loop_text.endswith(")")):
        raise EvidenceError(f"loop part must be parenthesized: {text!r}")
    inner = loop_text[1:-1]
    loop = tuple(_parse_state(part) for part in inner.split(","))
    return LassoWord(prefix, loop)


def _parse_state(part: str) -> State:
    names = part.split()
    for name in names:
        if not IDENTIFIER_RE.fullmatch(name):
            raise EvidenceError(f"invalid proposition name in evidence: {name!r}")
    return frozenset(names)
