"""LTL formula trees, the concrete-syntax parser/printer, and normal forms.

Operator spellings are written once, in two read-only tables from node
type to spelling: :data:`DEFAULT_DIALECT` and :data:`ALTERNATE_DIALECT`,
which differ in ``!``/``~``, ``&``/``&&``, ``|``/``||``, ``R``/``V``,
``G``/``[]``, ``F``/``<>``, ``true``/``TRUE`` and ``false``/``FALSE``.  The
lexer's symbols and :data:`RESERVED_WORDS` are derived from them, so
:func:`parse` accepts the spellings of both; :func:`render` prints one.
The parser reads precedence from one table, and :func:`nnf` negates
through one duality table.  Formulas are immutable, hashable values, so
they can be shared freely between solver threads.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from types import MappingProxyType
from typing import NoReturn

# Deep formula trees (fully parenthesized renderings of length-200 random
# formulas) exceed CPython's default recursion limit during parsing.
if sys.getrecursionlimit() < 10_000:
    sys.setrecursionlimit(10_000)

#: The most operators :func:`parse` accepts on one path from a formula's root
#: to a leaf.  The passes that recurse on a formula (parsing its fully
#: parenthesized rendering, nnf, the solvers' pre-pass, render, evaluate)
#: take at most four frames per level, so this depth stays inside the limit
#: above, in a solver thread too.
_MAX_DEPTH = 2_000

__all__ = [
    "Formula",
    "TrueConst",
    "FalseConst",
    "Prop",
    "Not",
    "Next",
    "Globally",
    "Finally",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Until",
    "Release",
    "TRUE",
    "FALSE",
    "DEFAULT_DIALECT",
    "ALTERNATE_DIALECT",
    "ParseError",
    "parse",
    "render",
    "nnf",
    "closure",
    "node_count",
    "prop_names",
]

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Formula:
    """Base class for all formula nodes.

    Nodes cache their structural hash at construction time, so hashing is
    O(1) and formulas can live in large sets without pathological cost.
    Pickling rebuilds nodes through their constructors (the cached hash is
    salted per process and must not travel).
    """

    __slots__ = ("_hash",)

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), self.children())

    def __str__(self) -> str:
        return render(self, DEFAULT_DIALECT)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class TrueConst(Formula):
    __slots__ = ()

    def __init__(self) -> None:
        self._hash = hash(("tt",))

    def __eq__(self, other: object) -> bool:
        return type(other) is TrueConst

    __hash__ = Formula.__hash__


class FalseConst(Formula):
    __slots__ = ()

    def __init__(self) -> None:
        self._hash = hash(("ff",))

    def __eq__(self, other: object) -> bool:
        return type(other) is FalseConst

    __hash__ = Formula.__hash__


class Prop(Formula):
    """An atomic proposition; the name must be a non-reserved identifier."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not IDENTIFIER_RE.fullmatch(name):
            raise ValueError(f"invalid proposition name: {name!r}")
        if name in RESERVED_WORDS:
            raise ValueError(f"reserved word used as proposition: {name!r}")
        self.name = name
        self._hash = hash(("p", name))

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is Prop and other.name == self.name)

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Prop, (self.name,))


class _Unary(Formula):
    __slots__ = ("operand",)

    _tag = "?"

    def __init__(self, operand: Formula) -> None:
        if not isinstance(operand, Formula):
            raise TypeError(f"operand must be a Formula, got {operand!r}")
        self.operand = operand
        self._hash = hash((self._tag, operand._hash))

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self) and other.operand == self.operand
        )

    __hash__ = Formula.__hash__


class _Binary(Formula):
    __slots__ = ("left", "right")

    _tag = "?"

    def __init__(self, left: Formula, right: Formula) -> None:
        if not isinstance(left, Formula) or not isinstance(right, Formula):
            raise TypeError("operands must be Formulas")
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self)
            and other.left == self.left
            and other.right == self.right
        )

    __hash__ = Formula.__hash__


class Not(_Unary):
    __slots__ = ()
    _tag = "!"


class Next(_Unary):
    __slots__ = ()
    _tag = "X"


class Globally(_Unary):
    __slots__ = ()
    _tag = "G"


class Finally(_Unary):
    __slots__ = ()
    _tag = "F"


class And(_Binary):
    __slots__ = ()
    _tag = "&"


class Or(_Binary):
    __slots__ = ()
    _tag = "|"


class Implies(_Binary):
    __slots__ = ()
    _tag = "->"


class Iff(_Binary):
    __slots__ = ()
    _tag = "<->"


class Until(_Binary):
    __slots__ = ()
    _tag = "U"


class Release(_Binary):
    __slots__ = ()
    _tag = "R"


TRUE = TrueConst()
FALSE = FalseConst()


# ---------------------------------------------------------------------------
# Dialects: one spelling per node type, as :func:`render` emits it.

DEFAULT_DIALECT = MappingProxyType(
    {
        TrueConst: "true",
        FalseConst: "false",
        Not: "!",
        Next: "X",
        Globally: "G",
        Finally: "F",
        And: "&",
        Or: "|",
        Implies: "->",
        Iff: "<->",
        Until: "U",
        Release: "R",
    }
)
ALTERNATE_DIALECT = MappingProxyType(
    {
        **DEFAULT_DIALECT,
        TrueConst: "TRUE",
        FalseConst: "FALSE",
        Not: "~",
        Globally: "[]",
        Finally: "<>",
        And: "&&",
        Or: "||",
        Release: "V",
    }
)

# Token kinds: the node type a spelling stands for, Prop for any other
# identifier, and the parentheses and end of input as themselves.
_KINDS = {
    spelling: t
    for dialect in (DEFAULT_DIALECT, ALTERNATE_DIALECT)
    for t, spelling in dialect.items()
} | {"(": "(", ")": ")"}

#: Words the lexer claims for itself; they can never name a proposition.
RESERVED_WORDS = frozenset(s for s in _KINDS if IDENTIFIER_RE.fullmatch(s))


# ---------------------------------------------------------------------------
# Lexer


class ParseError(ValueError):
    """Syntax error with a 1-based character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# Whitespace (the ASCII characters str.isspace accepts), then one token: a
# symbol or an identifier.  Symbols go longest first, so "&&" beats "&",
# then by text, so the pattern does not depend on the hash seed.  Any other
# character lands in the second group.
_SPACE = r"\t-\r\x1c-\x1f "
_SYMBOLS = sorted(set(_KINDS) - RESERVED_WORDS, key=lambda s: (-len(s), s))
_TOKEN_RE = re.compile(
    rf"[{_SPACE}]*(?:({'|'.join(map(re.escape, _SYMBOLS))}|{IDENTIFIER_RE.pattern})"
    rf"|([^{_SPACE}]))"
)


def _tokenize(text: str) -> list[tuple]:
    """``(kind, text, 1-based position)`` per token, then an ``"end"`` token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word = m.group(1)
        if word is None:
            ch = m.group(2)
            problem = "non-ASCII" if ord(ch) > 127 else "unexpected"
            raise ParseError(f"{problem} character {ch!r}", m.start(2) + 1)
        tokens.append((_KINDS.get(word, Prop), word, m.start(1) + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# Binary operators, loosest first, as (node types, right-associative?).
# The unary operators bind tighter than all of them.
_LEVELS = (
    ((Iff,), True),
    ((Implies,), True),
    ((Or,), False),
    ((And,), False),
    ((Until, Release), True),
)
_LEVEL_OF = {op: level for level, (ops, _) in enumerate(_LEVELS) for op in ops}
_UNARY = (Not, Next, Globally, Finally)


def _fail(expected: str, tok: tuple) -> NoReturn:
    kind, text, pos = tok
    found = f"{text!r}" if kind != "end" else "end of input"
    raise ParseError(f"expected {expected}, found {found}", pos)


class _Parser:
    def __init__(self, tokens: list[tuple]) -> None:
        self._tokens = tokens
        self._i = 0

    def parse(self) -> Formula:
        f = self._binary(0)
        if self._tokens[self._i][0] != "end":
            _fail("end of input or a binary operator", self._tokens[self._i])
        return f

    def _binary(self, level: int) -> Formula:
        """A formula whose binary operators are at ``_LEVELS[level]`` or tighter."""
        left = self._unary()
        while True:
            op = self._tokens[self._i][0]
            op_level = _LEVEL_OF.get(op, -1)
            if op_level < level:
                return left
            self._i += 1
            right_assoc = _LEVELS[op_level][1]
            left = op(left, self._binary(op_level if right_assoc else op_level + 1))

    def _unary(self) -> Formula:
        kind = self._tokens[self._i][0]
        if kind in _UNARY:
            self._i += 1
            return kind(self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        tok = self._tokens[self._i]
        self._i += 1
        kind, text, pos = tok
        if kind is Prop:
            return Prop(text)
        if kind == "(":
            f = self._binary(0)
            if self._tokens[self._i][0] != ")":
                _fail("')'", self._tokens[self._i])
            self._i += 1
            return f
        if kind is TrueConst:
            return TRUE
        if kind is FalseConst:
            return FALSE
        if text in RESERVED_WORDS:
            raise ParseError(
                f"reserved word {text!r} cannot be used as a proposition", pos
            )
        _fail("a formula (proposition, constant, unary operator, or '(')", tok)


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula, accepting all operator spellings.

    Raises :class:`ParseError` (with a 1-based character position) on bad
    syntax, and on a formula nested deeper than ``_MAX_DEPTH`` (2,000)
    operators or parenthesized too deeply for the parser's own recursion;
    reserved words cannot be used as propositions.
    """
    tokens = _tokenize(text)
    try:
        f = _Parser(tokens).parse()
    except RecursionError:
        f = None
    # A formula is never deeper than its token count.
    if f is None or (len(tokens) > _MAX_DEPTH and _depth(f) > _MAX_DEPTH):
        raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels", 1)
    return f


def _depth(f: Formula) -> int:
    """The most operators on one path from ``f``'s root to a leaf."""
    level, depth = [f], -1
    while level:
        level = [h for g in level for h in g.children()]
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# Printer


def render(f: Formula, dialect: Mapping[type, str] = DEFAULT_DIALECT) -> str:
    """Render ``f`` fully parenthesized using only ``dialect`` spellings.

    A dialect is a read-only mapping from node type to spelling:
    :data:`DEFAULT_DIALECT` or :data:`ALTERNATE_DIALECT`.
    ``parse(render(f, d))`` is structurally equal to ``f`` for both.
    """
    t = type(f)
    if t is Prop:
        return f.name
    shape = t.__base__  # every operator subclasses _Unary or _Binary directly
    if shape is _Binary:
        return f"({render(f.left, dialect)} {dialect[t]} {render(f.right, dialect)})"
    if shape is _Unary:
        return f"({dialect[t]} {render(f.operand, dialect)})"
    return dialect[t]


# ---------------------------------------------------------------------------
# Normal forms

# The operator each one becomes under negation.
_DUAL = {And: Or, Or: And, Until: Release, Release: Until, Globally: Finally, Finally: Globally}


def nnf(f: Formula) -> Formula:
    """Negation normal form: negations only directly above propositions.

    The result uses only True/False/Prop/Not-of-Prop/And/Or/Next/Until/
    Release and is semantically equivalent to ``f``.  Each input node is
    normalised once per polarity (the memo is keyed by node identity), so
    the result is a DAG linear in the size of ``f``, even where its tree
    (``<->`` nesting) is exponential.
    """
    return _nnf_literals(f)[0]


def _nnf_literals(f: Formula) -> tuple[Formula, tuple[set[str], set[str]]]:
    """``nnf(f)``, and the names in its positive and its negative literals."""
    memo: tuple = ({}, {}, set(), set())
    return _nnf(f, True, memo), (memo[3], memo[2])


def _nnf(f: Formula, positive: bool, memo: tuple) -> Formula:
    """``nnf`` of ``f`` or of its negation; ``memo`` holds the results of
    the negative and the positive polarity by input node id, then the names
    of the negative and the positive literals made, in that order."""
    t = type(f)
    if t is Prop:  # leaves are cheap to rebuild and need no memo
        memo[2 + positive].add(f.name)
        return f if positive else Not(f)
    if t is TrueConst or t is FalseConst:
        return f if positive else (FALSE if t is TrueConst else TRUE)
    done = memo[positive]
    g = done.get(id(f))
    if g is None:
        g = done[id(f)] = _nnf_step(f, positive, memo)
    return g


def _nnf_step(f: Formula, positive: bool, memo: tuple) -> Formula:
    """One rewrite of ``f`` (of its negation if not ``positive``) into NNF."""
    t = type(f)
    if t is Not:
        return _nnf(f.operand, not positive, memo)
    if t is Next:  # !(X a) == X !a
        g = _nnf(f.operand, positive, memo)
        return f if positive and g is f.operand else Next(g)
    if t is Globally or t is Finally:  # G a == false R a, F a == true U a
        g = _nnf(f.operand, positive, memo)
        if not positive:  # !(G a) == F !a, !(F a) == G !a
            t = _DUAL[t]
        return Release(FALSE, g) if t is Globally else Until(TRUE, g)
    if t is Implies:  # a -> b == !a | b;  !(a -> b) == a & !b
        return (Or if positive else And)(
            _nnf(f.left, not positive, memo), _nnf(f.right, positive, memo)
        )
    if t is Iff:  # a <-> b == (!a | b) & (a | !b);  !(a <-> b) == (a & !b) | (!a & b)
        outer = And if positive else Or
        inner = _DUAL[outer]
        return outer(
            inner(_nnf(f.left, not positive, memo), _nnf(f.right, positive, memo)),
            inner(_nnf(f.left, positive, memo), _nnf(f.right, not positive, memo)),
        )
    left = _nnf(f.left, positive, memo)
    right = _nnf(f.right, positive, memo)
    if not positive:  # De Morgan; !(a U b) == !a R !b, !(a R b) == !a U !b
        return _DUAL[t](left, right)
    if left is f.left and right is f.right:
        return f
    return t(left, right)


def closure(f: Formula) -> tuple[Formula, ...]:
    """All subformulas of ``f``, ordered by first appearance in a pre-order
    (left-to-right) traversal, without duplicates."""
    rank: dict[Formula, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        n = len(rank)
        if rank.setdefault(g, n) == n:  # first appearance: one hash per visit
            stack.extend(reversed(g.children()))
    return tuple(rank)


def node_count(f: Formula) -> int:
    """Number of nodes in the syntax tree, duplicates counted.

    A shared subterm counts once per occurrence, so on an :func:`nnf`
    result this is the size of the tree the DAG stands for (the
    ``nnf_blowup`` figure of the benchmark reads it that way).
    """
    total = 0
    stack = [f]
    while stack:
        g = stack.pop()
        total += 1
        stack.extend(g.children())
    return total


def prop_names(f: Formula) -> frozenset[str]:
    """Names of all propositions occurring in ``f``; a node shared by
    several parents (as in an :func:`nnf` result) is walked once."""
    names: set[str] = set()
    walked: set[int] = set()  # ids of the compound nodes already walked
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Prop:
            names.add(g.name)
        elif id(g) not in walked:
            walked.add(id(g))
            stack.extend(g.children())
    return frozenset(names)
