"""LTL formula trees, the concrete-syntax parser/printer, and normal forms.

The syntax accepts every alternative operator spelling (``!``/``~``,
``&``/``&&``, ``|``/``||``, ``R``/``V``, ``G``/``[]``, ``F``/``<>``,
``true``/``TRUE``, ``false``/``FALSE``); :func:`render` prints one of two
fixed dialects, :data:`DEFAULT_DIALECT` (the first spelling of each) or
:data:`ALTERNATE_DIALECT` (the second).  Formulas are immutable, hashable
values, so they can be shared freely between solver threads.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

# Deep formula trees (fully parenthesized renderings of length-200 random
# formulas) exceed CPython's default recursion limit during parsing.
if sys.getrecursionlimit() < 10_000:
    sys.setrecursionlimit(10_000)

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

#: Words the lexer claims for itself; they can never name a proposition.
RESERVED_WORDS = frozenset(
    {"true", "TRUE", "false", "FALSE", "X", "U", "R", "V", "G", "F"}
)


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
# Dialects


@dataclass(frozen=True)
class _Spellings:
    """One surface spelling per operator, as :func:`render` emits it.

    ``X``, ``U``, ``->`` and ``<->`` have a single spelling.  The parser
    always accepts every spelling.
    """

    negation: str
    conjunction: str
    disjunction: str
    release: str
    globally: str
    eventually: str
    true: str
    false: str


DEFAULT_DIALECT = _Spellings("!", "&", "|", "R", "G", "F", "true", "false")
ALTERNATE_DIALECT = _Spellings("~", "&&", "||", "V", "[]", "<>", "TRUE", "FALSE")


# ---------------------------------------------------------------------------
# Lexer


class ParseError(ValueError):
    """Syntax error with a 1-based character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int  # 1-based character offset


# Longest match first resolves "<->" vs "<>" and "&&" vs "&".
_SYMBOL_TOKENS = (
    ("<->", "iff"),
    ("->", "implies"),
    ("<>", "finally"),
    ("&&", "and"),
    ("||", "or"),
    ("[]", "globally"),
    ("!", "not"),
    ("~", "not"),
    ("&", "and"),
    ("|", "or"),
    ("(", "lparen"),
    (")", "rparen"),
)

_WORD_TOKENS = {
    "true": "true",
    "TRUE": "true",
    "false": "false",
    "FALSE": "false",
    "X": "next",
    "U": "until",
    "R": "release",
    "V": "release",
    "G": "globally",
    "F": "finally",
}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ord(ch) > 127:
            raise ParseError(f"non-ASCII character {ch!r}", i + 1)
        if ch.isspace():
            i += 1
            continue
        matched = False
        for sym, kind in _SYMBOL_TOKENS:
            if text.startswith(sym, i):
                tokens.append(_Token(kind, sym, i + 1))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        m = IDENTIFIER_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = _WORD_TOKENS.get(word, "ident")
            tokens.append(_Token(kind, word, i + 1))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(_Token("end", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Precedence, tightest first:
#   unary (!, ~, X, G, [], F, <>)
#   U, R/V      (right-associative, equal precedence)
#   & / &&      (left-associative)
#   | / ||      (left-associative)
#   ->          (right-associative)
#   <->         (right-associative)


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._i = 0

    @property
    def _tok(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _fail(self, expected: str) -> None:
        tok = self._tok
        found = f"{tok.text!r}" if tok.kind != "end" else "end of input"
        raise ParseError(f"expected {expected}, found {found}", tok.pos)

    def parse(self) -> Formula:
        f = self._iff()
        if self._tok.kind != "end":
            self._fail("end of input or a binary operator")
        return f

    def _iff(self) -> Formula:
        left = self._implies()
        if self._tok.kind == "iff":
            self._advance()
            return Iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self._tok.kind == "implies":
            self._advance()
            return Implies(left, self._implies())
        return left

    def _or(self) -> Formula:
        left = self._and()
        while self._tok.kind == "or":
            self._advance()
            left = Or(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._until()
        while self._tok.kind == "and":
            self._advance()
            left = And(left, self._until())
        return left

    def _until(self) -> Formula:
        left = self._unary()
        kind = self._tok.kind
        if kind == "until":
            self._advance()
            return Until(left, self._until())
        if kind == "release":
            self._advance()
            return Release(left, self._until())
        return left

    def _unary(self) -> Formula:
        kind = self._tok.kind
        if kind == "not":
            self._advance()
            return Not(self._unary())
        if kind == "next":
            self._advance()
            return Next(self._unary())
        if kind == "globally":
            self._advance()
            return Globally(self._unary())
        if kind == "finally":
            self._advance()
            return Finally(self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        tok = self._tok
        if tok.kind == "lparen":
            self._advance()
            f = self._iff()
            if self._tok.kind != "rparen":
                self._fail("')'")
            self._advance()
            return f
        if tok.kind == "true":
            self._advance()
            return TRUE
        if tok.kind == "false":
            self._advance()
            return FALSE
        if tok.kind == "ident":
            self._advance()
            return Prop(tok.text)
        if tok.text in RESERVED_WORDS:
            raise ParseError(
                f"reserved word {tok.text!r} cannot be used as a proposition",
                tok.pos,
            )
        self._fail("a formula (proposition, constant, unary operator, or '(')")
        raise AssertionError("unreachable")


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula, accepting all operator spellings.

    Raises :class:`ParseError` (with a 1-based character position) on bad
    syntax; reserved words cannot be used as propositions.
    """
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Printer


def render(f: Formula, dialect: _Spellings = DEFAULT_DIALECT) -> str:
    """Render ``f`` fully parenthesized using only ``dialect`` spellings.

    ``parse(render(f, d))`` is structurally equal to ``f`` for both dialects.
    """
    t = type(f)
    if t is TrueConst:
        return dialect.true
    if t is FalseConst:
        return dialect.false
    if t is Prop:
        return f.name
    if t is Not:
        return f"({dialect.negation} {render(f.operand, dialect)})"
    if t is Next:
        return f"(X {render(f.operand, dialect)})"
    if t is Globally:
        return f"({dialect.globally} {render(f.operand, dialect)})"
    if t is Finally:
        return f"({dialect.eventually} {render(f.operand, dialect)})"
    left = render(f.left, dialect)
    right = render(f.right, dialect)
    if t is And:
        return f"({left} {dialect.conjunction} {right})"
    if t is Or:
        return f"({left} {dialect.disjunction} {right})"
    if t is Implies:
        return f"({left} -> {right})"
    if t is Iff:
        return f"({left} <-> {right})"
    if t is Until:
        return f"({left} U {right})"
    if t is Release:
        return f"({left} {dialect.release} {right})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Normal forms


def nnf(f: Formula) -> Formula:
    """Negation normal form: negations only directly above propositions.

    The result uses only True/False/Prop/Not-of-Prop/And/Or/Next/Until/
    Release and is semantically equivalent to ``f``.  Each compound
    subformula is normalised once per polarity, so equal subformulas share
    one result: the result is a DAG linear in the size of ``f``, even where
    its tree (``<->`` nesting) is exponential.
    """
    return _nnf(f, True, ({}, {}))


def _nnf(f: Formula, positive: bool, memo: tuple[dict, dict]) -> Formula:
    """``nnf`` of ``f`` or of its negation; ``memo`` holds the results of
    the negative and the positive polarity, in that order."""
    t = type(f)
    if t is Prop:  # leaves are cheap to rebuild and need no memo
        return f if positive else Not(f)
    if t is TrueConst or t is FalseConst:
        return f if positive else (FALSE if t is TrueConst else TRUE)
    done = memo[positive]
    g = done.get(f)
    if g is None:
        g = done[f] = _nnf_pos(f, memo) if positive else _nnf_neg(f, memo)
    return g


def _nnf_pos(f: Formula, memo: tuple[dict, dict]) -> Formula:
    t = type(f)
    if t is Not:
        return _nnf(f.operand, False, memo)
    if t is Next:
        g = _nnf(f.operand, True, memo)
        return f if g is f.operand else Next(g)
    if t is Globally:
        return Release(FALSE, _nnf(f.operand, True, memo))
    if t is Finally:
        return Until(TRUE, _nnf(f.operand, True, memo))
    if t is Implies:
        return Or(_nnf(f.left, False, memo), _nnf(f.right, True, memo))
    left = _nnf(f.left, True, memo)
    right = _nnf(f.right, True, memo)
    if t is Iff:
        return And(
            Or(_nnf(f.left, False, memo), right),
            Or(left, _nnf(f.right, False, memo)),
        )
    if left is f.left and right is f.right:
        return f
    return t(left, right)


def _nnf_neg(f: Formula, memo: tuple[dict, dict]) -> Formula:
    t = type(f)
    if t is Not:
        return _nnf(f.operand, True, memo)
    if t is Next:
        return Next(_nnf(f.operand, False, memo))
    if t is Globally:
        # !(G p) == true U !p
        return Until(TRUE, _nnf(f.operand, False, memo))
    if t is Finally:
        # !(F p) == false R !p
        return Release(FALSE, _nnf(f.operand, False, memo))
    if t is Implies:
        return And(_nnf(f.left, True, memo), _nnf(f.right, False, memo))
    left = _nnf(f.left, False, memo)
    right = _nnf(f.right, False, memo)
    if t is And:
        return Or(left, right)
    if t is Or:
        return And(left, right)
    if t is Iff:
        return Or(
            And(_nnf(f.left, True, memo), right),
            And(left, _nnf(f.right, True, memo)),
        )
    if t is Until:
        # !(a U b) == !a R !b
        return Release(left, right)
    if t is Release:
        return Until(left, right)
    raise TypeError(f"not a formula: {f!r}")


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
