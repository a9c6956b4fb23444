"""Checks on the library source itself."""

import ast
from pathlib import Path

import tropjac


def test_library_has_no_assert_statements():
    # python -O strips asserts, so every check must raise a coded error
    sources = sorted(Path(tropjac.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
