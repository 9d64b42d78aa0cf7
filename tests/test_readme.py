"""The README documents only names the package exports."""

import re
from pathlib import Path

import polsat

README = Path(__file__).resolve().parent.parent / "README.md"


def test_useful_entry_points_are_exported():
    listed = re.search(r"Useful entry points:(.*?)\.\s", README.read_text(), re.S)
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert len(names) > 10
    assert [name for name in names if not hasattr(polsat, name)] == []
