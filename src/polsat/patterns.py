"""Classic LTL specification-pattern templates.

Each entry instantiates one widely used property template (absence,
existence, response, precedence, chains, ...) over caller-chosen
propositions.  The conjunction generator in :mod:`polsat.bench` samples from
this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formulas import And, Finally, Formula, Globally, Implies, Next, Not, Or, Prop, Until

__all__ = ["Pattern", "PATTERNS"]


@dataclass(frozen=True)
class Pattern:
    name: str
    arity: int
    build: Callable[..., Formula]

    def instantiate(self, *props: str) -> Formula:
        if len(props) != self.arity:
            raise ValueError(
                f"pattern {self.name!r} needs {self.arity} propositions, got {len(props)}"
            )
        return self.build(*(Prop(name) for name in props))


def _weak_until(p: Formula, q: Formula) -> Formula:
    return Or(Until(p, q), Globally(p))


PATTERNS: tuple[Pattern, ...] = (
    # p never happens
    Pattern("absence", 1, lambda p: Globally(Not(p))),
    # p happens at least once
    Pattern("existence", 1, lambda p: Finally(p)),
    # p holds everywhere
    Pattern("universality", 1, lambda p: Globally(p)),
    # p holds in the first state
    Pattern("init", 1, lambda p: p),
    # p happens infinitely often
    Pattern("recurrence", 1, lambda p: Globally(Finally(p))),
    # from some point on, p holds forever
    Pattern("stability", 1, lambda p: Finally(Globally(p))),
    # every p is answered by a later q
    Pattern("response", 2, lambda p, q: Globally(Implies(p, Finally(q)))),
    # q cannot happen before the first p
    Pattern("precedence", 2, lambda p, q: _weak_until(Not(q), p)),
    # p holds until q takes over
    Pattern("until", 2, lambda p, q: Until(p, q)),
    # once q has happened, p is banned
    Pattern("absence-after", 2, lambda p, q: Globally(Implies(q, Globally(Not(p))))),
    # every p is answered by an s followed by a t
    Pattern(
        "response-chain",
        3,
        lambda p, s, t: Globally(Implies(p, Finally(And(s, Next(Finally(t)))))),
    ),
    # an s-then-t chain cannot happen before the first p
    Pattern(
        "precedence-chain",
        3,
        lambda p, s, t: Implies(Finally(And(s, Next(Finally(t)))), _weak_until(Not(s), p)),
    ),
)
