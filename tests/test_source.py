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


COVER_TYPES = {"ThetaCover", "DumbbellCover", "GeneralCircleCover", "ThetaCurve", "DumbbellCurve"}


def test_no_isinstance_forks_on_cover_types():
    # every genus-2 cover takes one path; only the dumbbell gcd criterion,
    # which reads the dumbbell's windings, stays model-only
    found = []
    for name in ("cli.py", "cover_analysis.py", "split_jacobian.py"):
        path = Path(tropjac.__file__).parent / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                ):
                    named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                    found += [f"{name}:{function.name}:{t}" for t in sorted(named & COVER_TYPES)]
    assert found == ["cover_analysis.py:is_optimal:DumbbellCover"]


def test_every_import_is_used():
    # an import that nothing reads is dead code; one kept on purpose, as a
    # re-export or for a binding that others patch, says so with noqa
    found = []
    for path in sorted(Path(tropjac.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {item.value for item in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{alias.lineno}:{name}")
    assert found == []


def test_every_private_helper_is_used():
    # a private module-level function or class that nothing in the package
    # names is dead code; a replaced helper must go, not linger beside the
    # code that replaced it
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(tropjac.__file__).parent.glob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert found == []


def test_only_exact_lattice_builds_or_divides_numbers():
    # every stored number is an int when integral, else a Fraction, and only
    # exact_lattice decides which: its reader and its one division,
    # _quotient; a / elsewhere would rely on an operand happening to be a
    # Fraction to stay exact
    found = []
    for path in sorted(Path(tropjac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "op", None), ast.Div):  # a / b or a /= b
                found.append(f"{path.name}:{node.lineno}: /")
            if path.name == "exact_lattice.py":
                continue
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}: import fractions" for a in node.names if a.name == "fractions"]
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                found.append(f"{path.name}:{node.lineno}: from fractions")
            elif (isinstance(node, ast.Name) and node.id == "Fraction") or (
                isinstance(node, ast.Attribute) and node.attr == "Fraction"
            ):
                found.append(f"{path.name}:{node.lineno}: Fraction")
    assert found == []


def test_only_exact_lattice_builds_a_matrix_unread():
    # Matrix._of wraps stored numbers without reading them, so only
    # exact_lattice and the kernel columns of tav may call it; no other
    # module makes a Matrix through __new__ or fills one with the slot
    # setters, so caller input always passes the constructor's reader
    named, found = set(), []
    for path in sorted(Path(tropjac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "_of":
                named.add(path.name)
            if path.name == "exact_lattice.py":
                continue
            if name in ("_set_rows", "_set_ncols", "__set__"):
                found.append(f"{path.name}:{node.lineno}: {name}")
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "__new__"
                and any(getattr(n, "id", getattr(n, "attr", None)) == "Matrix" for n in ast.walk(node))
            ):  # Matrix.__new__(Matrix) or object.__new__(Matrix)
                found.append(f"{path.name}:{node.lineno}: Matrix.__new__")
    assert named == {"exact_lattice.py", "tav.py"}
    assert found == []
