"""Ultimately periodic words and the satisfaction check behind ``-e``.

A :class:`LassoWord` denotes the infinite word ``prefix . loop^omega`` where
every position is the set of propositions that hold there (anything absent
is false).  :func:`evaluate` decides ``word |= formula`` exactly, in time
linear in the word's length, over the finitely many positions of the lasso.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    A formula's truth over all positions is one int bitset, so the check is
    linear in the word's length.  The positions are the prefix, then two
    copies of the loop; position ``i`` is bit ``n-1-i``, so a successor is
    the next lower bit.  Until carries ``b`` back through each run of
    ``a``-and-not-``b`` with one addition (Markey & Schnoebelen's backward
    pass over an ultimately periodic word).  Two copies let the carry go
    once around the loop, so the first copy is exact; it then overwrites
    the second, whose last position has no successor in the bitset.
    """
    states = word.prefix + word.loop
    width = len(word.loop)
    n = len(states) + width
    full = (1 << n) - 1
    low = (1 << width) - 1  # the second loop copy

    def tracked(v: int) -> int:  # the second loop copy repeats the first
        return v & ~low | (v >> width) & low

    def until(a: int, b: int) -> int:
        run = a & ~b
        return tracked(b | run & ~(run + (b << 1)))

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
            v = int("".join("1" if f.name in s else "0" for s in states), 2)
            v = v << width | v & low
        elif t is Not:
            v = full ^ vec(f.operand)
        elif t is Next:
            v = tracked((vec(f.operand) << 1) & full)
        elif t is And:
            v = vec(f.left) & vec(f.right)
        elif t is Or:
            v = vec(f.left) | vec(f.right)
        elif t is Implies:
            v = (full ^ vec(f.left)) | vec(f.right)
        elif t is Iff:
            v = full ^ vec(f.left) ^ vec(f.right)
        elif t is Until:
            v = until(vec(f.left), vec(f.right))
        elif t is Release:
            # a R b  ==  !(!a U !b)
            v = full ^ until(full ^ vec(f.left), full ^ vec(f.right))
        elif t is Globally:
            # G x  ==  false R x  ==  !(true U !x)
            v = full ^ until(full, full ^ vec(f.operand))
        elif t is Finally:
            # F x  ==  true U x
            v = until(full, vec(f.operand))
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = v
        return v

    holds = bool(vec(formula) >> (n - 1) & 1)
    del vec  # it refers to itself; unlinked, no cyclic garbage is left behind
    return holds


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
