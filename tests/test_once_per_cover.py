"""Each cover derives its invariants once: one immutable analysis per cover."""

import json
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropjac.cli as cli
import tropjac.curves_covers as curves_covers
import tropjac.exact_lattice as exact_lattice
import tropjac.split_jacobian as split_jacobian
import tropjac.tav as tav
import tropjac.torus_category as torus_category
from oracles import degree_two_cover, dumbbell_covers, random_unimodular, theta_covers
from test_presentations import subdivided
from tropjac.cli import run_command
from tropjac.cover_analysis import (
    component_count,
    is_optimal,
    kernel_length,
    pullback_kernel,
    pullback_morphism,
    pushforward_morphism,
    quotient_and_gamma,
)
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    ThetaCover,
    circle_graph,
    cover_degree,
    harmonic_form,
    target_length,
    validate_cover,
)
from tropjac.errors import TropjacError
from tropjac.split_jacobian import (
    complementary_cover,
    complementary_pushforward,
    splitting_isogeny,
    strong_optimality_gap,
    verify_split_package,
)

THETA = {"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [2, 1, 1]}
DUMBBELL = {"kind": "dumbbell", "lengths": ["1/2", "1/3", 1], "windings": [1, 1], "dilations": [2, 3]}
GENERAL = {
    "kind": "general_circle",
    "target_length": "1",
    "vertices": ["v"],
    "edges": [["v", "v", "2"]],
    "walks": [{"dilation": 2, "start": "0", "signed_length": "4"}],
}
FIGURE_EIGHT = {
    "kind": "general_circle",
    "target_length": "1",
    "vertices": ["v"],
    "edges": [["v", "v", "1"], ["v", "v", "2"]],
    "walks": [
        {"dilation": 1, "start": "0", "signed_length": "1"},
        {"dilation": 1, "start": "0", "signed_length": "2"},
    ],
}


def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counting(*args):
        counter[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize(
    "document, pushforwards",
    # the genus-1 general cover gets only the genus-free fields, which need
    # no pushforward; the genus-2 figure eight gets the full report
    [(THETA, 1), (DUMBBELL, 1), (GENERAL, 0), (FIGURE_EIGHT, 1)],
    ids=["theta", "dumbbell", "general", "figure-eight"],
)
def test_analyze_split_validates_and_pushes_forward_once(
    document, pushforwards, tmp_path, monkeypatch, capsys
):
    calls = Counter()
    for cover_type in (ThetaCover, DumbbellCover, GeneralCircleCover):
        _count_calls(monkeypatch, cover_type, "_validate", calls)
    _count_calls(monkeypatch, curves_covers, "jacobian", calls)
    _count_calls(monkeypatch, curves_covers, "_universal_row", calls)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(document))
    assert run_command(["analyze", str(path), "--split"]) == 0
    report = json.loads(capsys.readouterr().out)
    if pushforwards:
        assert all(report["split"]["flags"].values())
    assert calls == Counter(
        _validate=1, jacobian=pushforwards, _universal_row=pushforwards
    )


@pytest.mark.parametrize(
    "command, document",
    # analyze parses a general cover; complement builds one, the walk cover
    [("analyze", GENERAL), ("complement", THETA)],
    ids=["analyze-general", "complement-theta"],
)
def test_each_general_cover_is_validated_once(command, document, tmp_path, monkeypatch, capsys):
    calls = Counter()
    for module in (curves_covers, cli, split_jacobian):
        if hasattr(module, "validate_general_cover"):
            _count_calls(monkeypatch, module, "validate_general_cover", calls)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(document))
    assert run_command([command, str(path)]) == 0
    capsys.readouterr()
    assert calls == Counter(validate_general_cover=1)


@pytest.mark.parametrize(
    "document",
    # g = 2000: pullback kernels of 2000 points
    [
        {"kind": "dumbbell", "lengths": [1, 1, 1], "windings": [1, 1], "dilations": [2000, 2000]},
        {"kind": "theta", "lengths": [1, 1, 1], "windings": [1, 1, 1], "dilations": [4000, 2000, 2000]},
    ],
    ids=["dumbbell", "theta"],
)
def test_reports_never_run_the_pure_python_encoder(document, tmp_path, monkeypatch, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(document))
    report = cli._analysis_report(cli.parse_cover(path.read_text()), True)
    expected = json.dumps(report, indent=2) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert run_command(["analyze", str(path), "--split"]) == 0
    assert capsys.readouterr().out == expected


def _ladder_cover(k):
    """The strongly optimal dumbbell cover of degree 2k + 1."""
    return DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1))


def test_split_package_classifies_each_morphism_once(monkeypatch):
    # an analysed, strongly optimal cover of degree 101: the package reuses
    # what the analysis holds and classifies phi, the kernel inclusion and
    # the pullback once each
    cover = _ladder_cover(50)
    assert strong_optimality_gap(cover) is None and pullback_morphism(cover)
    calls = Counter()
    classified = []
    for module in (exact_lattice, torus_category, tav, split_jacobian):
        if hasattr(module, "smith_normal_form"):
            _count_calls(monkeypatch, module, "smith_normal_form", calls)
    for module in (torus_category, tav, split_jacobian):
        if hasattr(module, "classify"):
            original = getattr(module, "classify")
            monkeypatch.setattr(
                module, "classify", lambda m, original=original: classified.append(m) or original(m)
            )
    assert verify_split_package(cover).all_flags_hold
    assert calls["smith_normal_form"] <= 14
    assert len(classified) <= 3
    assert len(set(classified)) == len(classified)


def test_kernel_listing_makes_no_matrix_products_per_point(monkeypatch):
    # the points are listed on int tuples, so degrees 101 and 2001 cost the
    # same Matrix products; only the returned columns are matrices
    products = []
    for k in (50, 1000):
        phi, _ = splitting_isogeny(_ladder_cover(k))
        calls = Counter()
        _count_calls(monkeypatch, exact_lattice.Matrix, "__mul__", calls)
        assert len(tav.isogeny_kernel_points(phi)) == 2 * k + 1
        monkeypatch.undo()
        products.append(calls["__mul__"])
    assert products[0] == products[1]


def test_exactness_check_saturates_and_classifies_nothing(monkeypatch):
    # the two sequences of the degree-2 theta cover's split package: one
    # HNF of f.f_hash against the kernel of g.f_hash decides injectivity too
    cover = degree_two_cover()
    push = pushforward_morphism(cover)
    _, inclusion = torus_category.kernel0(push)
    pairs = [(inclusion, push), (pullback_morphism(cover), complementary_pushforward(cover))]
    calls = Counter()
    for module in (exact_lattice, torus_category, tav):
        for name in ("saturate", "classify"):
            if hasattr(module, name):
                _count_calls(monkeypatch, module, name, calls)
    assert all(tav.check_exact_sequence(f, g) for f, g in pairs)
    assert calls == Counter()


def _wide_dumbbell(g):
    """The (g, g) dumbbell over a target of length 7/5, whose pullback kernel
    is the g-torsion of the circle."""
    return DumbbellCover(DumbbellCurve(Fraction(7, 5 * g), Fraction(14, 5 * g), 1), (1, 2), (g, g))


def _count_fractions(monkeypatch, name, calls):
    # patched on the class, so Fraction arithmetic inside fractions counts too
    original = getattr(Fraction, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(Fraction, name, staticmethod(counting) if name == "__new__" else counting)


def test_pullback_kernel_builds_one_fraction_per_divisor(monkeypatch):
    # each position is Fraction(j·p, q·g) for l = p/q: no Fraction products,
    # whatever g is
    products = []
    for g in (1000, 2000):
        cover = _wide_dumbbell(g)
        harmonic_form(cover)
        calls = Counter()
        _count_fractions(monkeypatch, "__mul__", calls)
        _count_fractions(monkeypatch, "__new__", calls)
        kernel = pullback_kernel(cover)
        monkeypatch.undo()
        assert len(kernel) == g and all(type(d.position) is Fraction for d in kernel)
        assert calls["__new__"] == g
        products.append(calls["__mul__"])
    assert products == [0, 0]


def test_cli_prints_the_pullback_kernel_without_building_fractions(monkeypatch):
    kernel = pullback_kernel(_wide_dumbbell(1000))
    calls = Counter()
    _count_fractions(monkeypatch, "__new__", calls)
    listed = cli._torsion_list(kernel)
    monkeypatch.undo()
    assert calls == Counter()
    assert listed[1] == {"position": "7/5000", "order": 1000}


# Fraction addition, subtraction and multiplication, in both operand orders
FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def _count_fraction_work(monkeypatch):
    calls = Counter()
    for name in FRACTION_ARITHMETIC + ("__new__",):
        _count_fractions(monkeypatch, name, calls)
    return calls


def _fraction_entries(m):
    return sum(type(x) is Fraction for row in m.entries() for x in row)


def test_solve_and_inverse_run_on_ints(monkeypatch):
    rng = random.Random(7)
    unimodular = random_unimodular(rng, 6)
    system = exact_lattice.Matrix([[rng.randrange(-99, 100) for _ in range(6)] for _ in range(6)])
    rhs = exact_lattice.Matrix([[rng.randrange(-99, 100) for _ in range(2)] for _ in range(6)])
    calls = _count_fraction_work(monkeypatch)
    inverse = unimodular.inv()
    solution = exact_lattice.rational_solve(system, rhs)
    monkeypatch.undo()
    assert inverse.is_integral() and unimodular * inverse == exact_lattice.Matrix.identity(6)
    # one Fraction per non-integral entry of the answer, and no arithmetic
    assert 0 < _fraction_entries(solution) == calls.pop("__new__")
    assert calls == Counter()


def test_product_of_rational_matrices_builds_one_fraction_per_entry(monkeypatch):
    rng = random.Random(4)

    def rational():
        rows = [[Fraction(rng.randrange(-50, 50), rng.randrange(1, 30)) for _ in range(4)] for _ in range(4)]
        return rows, exact_lattice.Matrix(rows)

    (rows_a, a), (rows_b, b) = rational(), rational()
    calls = _count_fraction_work(monkeypatch)
    product = a * b
    monkeypatch.undo()
    assert calls.pop("__new__") == _fraction_entries(product) <= 16
    assert calls == Counter()
    expected = [[sum(x * y for x, y in zip(row, col)) for col in zip(*rows_b)] for row in rows_a]
    assert product == exact_lattice.Matrix(expected)


def _count_builds(monkeypatch, name):
    """Count, per graph, the builds of a part a MetricGraph keeps."""
    builds = Counter()
    build = getattr(curves_covers.MetricGraph, name).func

    def counting(graph):
        builds[id(graph)] += 1
        return build(graph)

    counted = cached_property(counting)
    counted.__set_name__(curves_covers.MetricGraph, name)
    monkeypatch.setattr(curves_covers.MetricGraph, name, counted)
    return builds


def test_each_graph_builds_one_bfs_tree(monkeypatch):
    # the theta cover over its plain graph with the edge e subdivided, so
    # the cycle basis, the tree paths and the walk cover all read the tree
    trees = _count_builds(monkeypatch, "_root_paths")
    cover = subdivided(degree_two_cover(), 0)
    assert verify_split_package(cover).all_flags_hold
    complementary_cover(cover)
    assert trees and max(trees.values()) == 1


def test_each_graph_builds_one_cycle_basis(monkeypatch):
    # the Jacobian, the pushforward row and the complementary walk cover all
    # read the basis of the subdivided theta graph
    bases = _count_builds(monkeypatch, "_cycles")
    cover = subdivided(degree_two_cover(), 0)
    assert is_optimal(cover).kernel_connected
    kernel_length(cover)
    pullback_kernel(cover)
    assert verify_split_package(cover).all_flags_hold
    complementary_cover(cover)
    assert bases and max(bases.values()) == 1


def test_optimality_builds_no_kernel_circle(monkeypatch):
    # gamma is read off the contents of f_sharp and f_hash
    calls = Counter()
    for module in (curves_covers, torus_category):
        _count_calls(monkeypatch, module, "kernel0", calls)
    for cover in (degree_two_cover(), _ladder_cover(50), _wide_dumbbell(6)):
        assert is_optimal(cover).component_count >= 1
    assert calls == Counter()


def test_covers_and_what_they_keep_refuse_assignment():
    theta = degree_two_cover()
    dumbbell = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2))
    general = GeneralCircleCover(circle_graph(2), 1, [(1, 0, 2)])
    report = validate_cover(theta)
    gamma = quotient_and_gamma(theta)
    push = pushforward_morphism(theta)
    for value, attribute in (
        (theta, "windings"),
        (theta, "arcs"),
        (dumbbell, "target_length"),
        (general, "edge_data"),
        (theta.curve, "edges"),
        (general.graph, "vertices"),
        (report, "violations"),
        (gamma, "a_sharp"),
        (push, "f_sharp"),
        (push.source, "pairing"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)
    assert isinstance(report.violations, tuple)
    assert isinstance(theta.curve.edges, tuple) and isinstance(general.edge_data, tuple)
    assert validate_cover(theta) is report


def _walks(form):
    return form.graph, form.target_length, form.edge_data


def _complement(cover):
    # the walk cover is a cover, which compares by identity
    comp = complementary_cover(cover)
    return comp._replace(general=_walks(comp.general))


# every public invariant of a cover, as a value that compares by content
INVARIANTS = {
    "validate_cover": validate_cover,
    "cover_degree": cover_degree,
    "target_length": target_length,
    "harmonic_form": lambda cover: _walks(harmonic_form(cover)),
    "pushforward_morphism": pushforward_morphism,
    "pullback_morphism": pullback_morphism,
    "kernel_length": kernel_length,
    "quotient_and_gamma": quotient_and_gamma,
    "component_count": component_count,
    "is_optimal": is_optimal,
    "pullback_kernel": pullback_kernel,
    "strong_optimality_gap": strong_optimality_gap,
    "complementary_pushforward": complementary_pushforward,
    "splitting_isogeny": splitting_isogeny,
    "complementary_cover": _complement,
    "verify_split_package": verify_split_package,
}


def _rebuilt(cover):
    """A fresh cover from the same data, with nothing derived yet."""
    if isinstance(cover, ThetaCover):
        return ThetaCover(cover.curve, cover.windings, cover.dilations, cover.arcs)
    return DumbbellCover(cover.curve, cover.windings, cover.dilations, cover.target_length)


def _outcome(invariant, cover):
    try:
        return INVARIANTS[invariant](cover)
    except TropjacError as exc:  # NotOptimal for the split invariants
        return type(exc), str(exc)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    st.one_of(theta_covers(), dumbbell_covers()),
    st.permutations(sorted(INVARIANTS)),
)
def test_invariants_do_not_depend_on_query_order(cover, order):
    answers = {invariant: _outcome(invariant, cover) for invariant in order}
    fresh = _rebuilt(cover)
    for invariant in sorted(INVARIANTS):
        assert answers[invariant] == _outcome(invariant, fresh), invariant
