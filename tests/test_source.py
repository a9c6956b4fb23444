"""Checks on the library source itself."""

import ast
import doctest
import importlib
from pathlib import Path

import pytest

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


def test_equality_and_hash_are_defined_only_on_matrix_and_the_value_base():
    # every other value type takes them from its fields, as a namedtuple or
    # through exact_lattice._Value
    found = []
    for path in sorted(Path(tropjac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.name}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
                ]
    assert sorted(found) == [
        "exact_lattice.py:Matrix.__eq__",
        "exact_lattice.py:Matrix.__hash__",
        "exact_lattice.py:_Value.__eq__",
        "exact_lattice.py:_Value.__hash__",
    ]


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in Path(tropjac.__file__).parent.glob("*.py"))
)
def test_module_doctests_pass(name):
    module = importlib.import_module("tropjac" if name == "__init__" else f"tropjac.{name}")
    assert doctest.testmod(module).failed == 0
