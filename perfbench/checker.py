"""Correctness gate: an evidence checker of the benchmark's own.

It deliberately shares no code with ``polsat.lasso``: it has its own
evidence-text parser and its own satisfaction check.  Where ``evaluate``
iterates fixpoints, this walks backwards over the positions of the lasso,
twice around the loop for each Until/Release (the ultimately-periodic path
check of Markey & Schnoebelen, CONCUR 2003).  Formulas are read by the
class names and fields of the syntax tree only.
"""

from __future__ import annotations

import re

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_word(text: str) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
    """``"a,b;(c)"`` -> (prefix, loop).  Raises ValueError when malformed."""
    text = text.strip()
    prefix_text, sep, loop_text = text.rpartition(";")
    if not sep:
        prefix_text, loop_text = "", text
    loop_text = loop_text.strip()
    if not (loop_text.startswith("(") and loop_text.endswith(")")):
        raise ValueError(f"loop not parenthesised: {text!r}")
    prefix = [_state(part) for part in prefix_text.split(",")] if sep else []
    loop = [_state(part) for part in loop_text[1:-1].split(",")]
    return prefix, loop


def _state(part: str) -> frozenset[str]:
    names = part.split()
    for name in names:
        if not _NAME.fullmatch(name):
            raise ValueError(f"bad proposition {name!r}")
    return frozenset(names)


def word_of(lasso) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
    """(prefix, loop) of a program-side lasso object, read field by field."""
    return [frozenset(s) for s in lasso.prefix], [frozenset(s) for s in lasso.loop]


def holds(prefix: list[frozenset[str]], loop: list[frozenset[str]], formula) -> bool:
    """Does ``prefix . loop^omega`` satisfy ``formula``?"""
    if not loop:
        return False
    states = list(prefix) + list(loop)
    n, start = len(states), len(prefix)
    memo: dict[int, list[bool]] = {}

    def until(left: list[bool], right: list[bool], strong: bool) -> list[bool]:
        # strong: l U r (least fixpoint); weak: l R r (greatest fixpoint).
        out = [False] * n
        nxt = not strong  # the fixpoint's start value, before the loop closes

        def step(i: int) -> bool:
            if strong:
                return right[i] or (left[i] and nxt)
            return right[i] and (left[i] or nxt)

        # The first lap makes the loop start exact; the second the rest.
        for i in [*range(n - 1, start - 1, -1)] * 2 + [*range(start - 1, -1, -1)]:
            nxt = out[i] = step(i)
        return out

    def vec(f) -> list[bool]:
        key = id(f)
        if key in memo:
            return memo[key]
        kind = type(f).__name__
        if kind == "TrueConst":
            v = [True] * n
        elif kind == "FalseConst":
            v = [False] * n
        elif kind == "Prop":
            v = [f.name in s for s in states]
        elif kind == "Not":
            v = [not b for b in vec(f.operand)]
        elif kind == "Next":
            x = vec(f.operand)
            v = x[1:] + [x[start]]
        elif kind == "Globally":
            v = until([False] * n, vec(f.operand), strong=False)
        elif kind == "Finally":
            v = until([True] * n, vec(f.operand), strong=True)
        elif kind in ("Until", "Release"):
            v = until(vec(f.left), vec(f.right), strong=kind == "Until")
        else:
            a, b = vec(f.left), vec(f.right)
            if kind == "And":
                v = [x and y for x, y in zip(a, b)]
            elif kind == "Or":
                v = [x or y for x, y in zip(a, b)]
            elif kind == "Implies":
                v = [(not x) or y for x, y in zip(a, b)]
            elif kind == "Iff":
                v = [x == y for x, y in zip(a, b)]
            else:
                raise TypeError(f"unknown formula node {kind}")
        memo[key] = v
        return v

    return vec(formula)[0]
