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
    # which is stated for dumbbells alone and read off the gamma data,
    # stays model-only
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


def _called_names(path):
    """Names of the functions and classes a module calls, as f(...) or
    module.f(...)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def test_only_the_torus_constructions_build_a_value_unchecked():
    # _Value._derived wraps fields without running the constructor's
    # checks, so only the modules whose constructions prove the invariant
    # call it; the CLI and tav, whose morphisms come from caller input or
    # are solved for, go through the checked constructors
    callers = sorted(
        path.name
        for path in Path(tropjac.__file__).parent.glob("*.py")
        if "_derived" in _called_names(path)
    )
    assert callers == ["curves_covers.py", "split_jacobian.py", "torus_category.py"]


def test_every_error_is_raised():
    # an error class that no module builds is a code no caller can meet
    package = Path(tropjac.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    errors = {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name != "TropjacError"
    }
    called = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "errors.py":
            called |= _called_names(path)
    assert len(errors) >= 15
    assert sorted(errors - called) == []


def test_only_exact_lattice_takes_smith_forms():
    # every other module reads a lattice fact through invariant_factors,
    # integer_kernel, quotient_group, classify or a torus construction, not
    # through a Smith form of its own: the public smith_normal_form or the
    # elimination _smith
    callers = sorted(
        path.name
        for path in Path(tropjac.__file__).parent.glob("*.py")
        if {"smith_normal_form", "_smith"} & _called_names(path)
    )
    assert callers == ["exact_lattice.py"]


def _calls_by_function(path, name):
    """module:function for each call of name, as f(...) or x.f(...), in a
    module, named by the innermost function that makes it."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call) and name == getattr(
            node.func, "id", getattr(node.func, "attr", None)
        ):
            found.append(f"{path.name}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_no_module_defines_or_calls_integer_solve():
    # every equation the library solves has at most one rational solution,
    # so rational_solve decides it, and an integral answer is tested after
    sources = sorted(Path(tropjac.__file__).parent.glob("*.py"))
    defined = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "integer_solve"
    ]
    called = [call for path in sources for call in _calls_by_function(path, "integer_solve")]
    assert defined == called == []


def test_a_matrix_is_inverted_only_where_the_inverse_is_the_answer_or_is_shared():
    # dual_polarization returns a multiple of the inverse and
    # subgroup_generated applies one inverse to every generator; the
    # isogeny kernel is presented by a Smith form, and anything else
    # solves its equation
    inverses = sorted(
        call
        for path in Path(tropjac.__file__).parent.glob("*.py")
        for call in _calls_by_function(path, "inv")
    )
    assert inverses == [
        "tav.py:dual_polarization",
        "tav.py:subgroup_generated",
    ]


def test_only_curves_covers_reads_cycle_coefficients():
    # each basis cycle is held once, as sparse (edge, coefficient) pairs,
    # and only curves_covers reads them: the walk cover takes its slopes
    # from curves_covers, the source check of factor_pushforward compares
    # the sparse cycles there, and no module builds the dense basis
    package = Path(tropjac.__file__).parent
    readers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None))
        in ("_cycles", "tree_path")
    }
    assert readers == {"curves_covers.py"}
    assert [p.name for p in package.glob("*.py") if "cycle_basis" in _called_names(p)] == []


def test_the_split_report_path_lists_no_kernel():
    # the CLI writes each kernel from its generators, and _splitting keeps
    # every kernel group unlisted, so neither names a point listing
    package = Path(tropjac.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    names = {
        node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", getattr(node, "name", None))
        for node in ast.walk(tree)
    }
    listings = {"ScaledPoints", "isogeny_kernel_numerators", "_box_points", "_listed_points"}
    assert names & listings == set()
    assert "isogeny_kernel_numerators" not in _called_names(package / "split_jacobian.py")


def test_a_kernel_is_refused_only_where_it_is_listed():
    # a kernel record is never refused: the listing bound is checked by
    # each listing, and by the CLI as it puts a kernel in its report, but
    # not by _splitting or verify_split_package, which list nothing
    callers = sorted(
        call
        for path in Path(tropjac.__file__).parent.glob("*.py")
        for call in _calls_by_function(path, "_require_listable")
    )
    assert callers == [
        "cli.py:_analysis_report",
        "cli.py:_split_dict",
        "cover_analysis.py:pullback_kernel",
        "split_jacobian.py:listed",
        "tav.py:_generated_points",
        "tav.py:isogeny_kernel_numerators",
    ]


def test_readme_quick_start_prints_what_it_says(capsys):
    # each print(...) line of the README's python block ends in a comment
    # that starts with the value it prints; only the first comment, "1 (an
    # int; ...)", goes on after the value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 4
    assert printed[0] == expected[0].split()[0] == "1"
    assert printed[1:] == expected[1:]
