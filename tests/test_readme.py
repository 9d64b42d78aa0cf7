"""The README documents only names the package exports, and exactly the
operator spellings the parser and the dialects use."""

import re
from pathlib import Path

import polsat
from polsat.formulas import (
    ALTERNATE_DIALECT,
    DEFAULT_DIALECT,
    And,
    FalseConst,
    Finally,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Release,
    TrueConst,
    Until,
    parse,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_useful_entry_points_are_exported():
    listed = re.search(r"Useful entry points:(.*?)\.\s", README.read_text(), re.S)
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert len(names) > 10
    assert [name for name in names if not hasattr(polsat, name)] == []


ROW_TYPES = {
    "not": (Not,),
    "and": (And,),
    "or": (Or,),
    "next": (Next,),
    "until": (Until,),
    "release": (Release,),
    "globally": (Globally,),
    "eventually": (Finally,),
    "implies": (Implies,),
    "iff": (Iff,),
    "constants": (TrueConst, FalseConst),
}


def _operator_table() -> dict[str, list[str]]:
    """Row name -> spellings, from the README's ``| operator | spellings |`` table."""
    text = README.read_text()
    lines = text[text.index("| operator | spellings |") :].splitlines()[2:]
    rows = {}
    for line in lines:
        row = re.fullmatch(r"\| (\w+) \| (.*) \|", line)
        if row is None:
            break
        rows[row.group(1)] = re.findall(r"`([^`]+)`", row.group(2))
    return rows


def _parse_spelling(spelling: str):
    """The spelling alone, applied to ``a``, or between ``a`` and ``b``."""
    for text in (spelling, f"{spelling} a", f"a {spelling} b"):
        try:
            return parse(text)
        except ParseError:
            pass
    raise AssertionError(f"{spelling!r} parses in no position")


def test_operator_table_matches_parser_and_dialects():
    table = _operator_table()
    assert set(table) == set(ROW_TYPES)
    documented = set()
    for name, spellings in table.items():
        for spelling in spellings:
            node_type = type(_parse_spelling(spelling))
            assert node_type in ROW_TYPES[name], (name, spelling)
            documented.add((node_type, spelling))
    dialects = {pair for d in (DEFAULT_DIALECT, ALTERNATE_DIALECT) for pair in d.items()}
    assert documented == dialects
