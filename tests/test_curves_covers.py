"""Tests for metric graphs, curve models, cover validation, and Abel-Jacobi."""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    cover_corpus,
    dense_abel_jacobi,
    dense_coordinates,
    dense_period_matrix,
    forward_form,
    metric_graphs,
    model_covers,
)
from tropjac.cover_analysis import pushforward_morphism
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    MetricGraph,
    ThetaCover,
    ThetaCurve,
    _coordinates,
    _row_slopes,
    _universal_row,
    abel_jacobi,
    circle_graph,
    cover_degree,
    harmonic_form,
    jacobian,
    ramification_index,
    target_length,
    validate_cover,
    validate_general_cover,
)
from tropjac.errors import InvalidCover, OffsetOutOfRange
from tropjac.exact_lattice import Matrix
from tropjac.torus_category import circle


def degree_two_theta_cover():
    return ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (2, 1, 1))


# ---------------------------------------------------------------- MetricGraph


def test_metric_graph_requires_connected():
    pytest.raises(
        ValueError,
        lambda: MetricGraph(["a", "b"], []),
    )


def test_tree_path_names_an_unknown_vertex():
    graph = ThetaCurve(1, 1, 1).graph()
    assert graph.tree_path("P0", "P1") == {0: 1}
    for start, end in (("X", "P1"), ("P0", "X")):
        with pytest.raises(ValueError, match="unknown vertex 'X'"):
            graph.tree_path(start, end)


def test_metric_graph_rejects_bad_lengths():
    pytest.raises(ValueError, lambda: MetricGraph(["a"], [("a", "a", 0)]))
    pytest.raises(ValueError, lambda: MetricGraph(["a"], [("a", "a", -2)]))
    pytest.raises(ValueError, lambda: MetricGraph(["a"], [("a", "a", 0.5)]))


def test_metric_graph_rejects_unknown_endpoints_and_duplicates():
    pytest.raises(ValueError, lambda: MetricGraph(["a"], [("a", "b", 1)]))
    pytest.raises(ValueError, lambda: MetricGraph(["a", "a"], [("a", "a", 1)]))


def test_metric_graph_rejects_unhashable_labels():
    for label in (["a"], {"a": 1}, ("a", ["b"])):
        with pytest.raises(ValueError, match="hashable"):
            MetricGraph([label], [(label, label, 1)])


def test_genus():
    assert circle_graph(3).genus == 1
    assert ThetaCurve(1, 1, 1).graph().genus == 2
    assert MetricGraph(["a", "b"], [("a", "b", 5)]).genus == 0


def test_circle_graph_jacobian_is_circle():
    jac = jacobian(circle_graph(3))
    assert jac.torus == circle(3)
    assert jac.pol.zeta == Matrix.identity(1)


def test_tree_jacobian_has_rank_zero():
    jac = jacobian(MetricGraph(["a", "b"], [("a", "b", 1)]))
    assert jac.torus.rank == 0


# ----------------------------------------------------------- period matrices


def test_theta_period_matrix():
    assert ThetaCurve(1, 1, 1).period_matrix() == Matrix([[2, 1], [1, 2]])
    assert ThetaCurve(1, 2, 3).period_matrix() == Matrix([[4, 3], [3, 5]])


def test_dumbbell_period_matrix_is_diagonal():
    assert DumbbellCurve(2, 3, 7).period_matrix() == Matrix.diagonal([2, 3])


def test_graph_period_matches_model_determinant():
    # the cycle basis of the generic graph may differ from the fixed model
    # basis, but the Gram determinant is basis independent
    for curve in (ThetaCurve(1, 2, 3), DumbbellCurve(2, 3, 7)):
        assert curve.graph().period_matrix().det() == curve.period_matrix().det()


def test_jacobian_is_principally_polarized():
    jac = jacobian(ThetaCurve(1, 1, 1))
    assert jac.torus.pairing == Matrix([[2, 1], [1, 2]])
    assert jac.pol.zeta == Matrix.identity(2)


# --------------------------------------------------------------- validation


def test_degree_two_cover_is_valid_with_derived_arcs():
    report = validate_cover(degree_two_theta_cover())
    assert report.valid
    assert report.degree == 2
    assert report.arcs == (Fraction(2), Fraction(1))
    assert target_length(degree_two_theta_cover()) == 3


def test_explicit_arcs_are_checked():
    curve = ThetaCurve(1, 1, 1)
    good = ThetaCover(curve, (1, 1, 1), (2, 1, 1), arcs=(2, 1))
    assert validate_cover(good).valid
    bad = ThetaCover(curve, (1, 1, 1), (2, 1, 1), arcs=(1, 2))
    report = validate_cover(bad)
    assert not report.valid
    assert any(v.startswith("realizability on e:") for v in report.violations)


def test_balancing_violation_is_named():
    cover = ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (2, 1, 2))
    report = validate_cover(cover)
    assert "balancing: d_e = d_e1 + d_e2" in report.violations


def test_zero_dilations_fail_surjectivity():
    cover = ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (0, 0, 0))
    report = validate_cover(cover)
    assert "surjectivity: gcd(d_e, d_e1) != 0" in report.violations


def test_underdetermined_arcs_are_reported():
    # windings (1, 0, 0) make all three realizability rows proportional
    cover = ThetaCover(ThetaCurve(1, 1, 1), (1, 0, 0), (2, 1, 1))
    report = validate_cover(cover)
    assert "metric realizability: target arcs underdetermined" in report.violations


def test_arcs_come_from_the_first_independent_pair_of_equations():
    # e and e1 give (2, 1), which breaks e2; e1 and e2 would give (-1, 1)
    report = validate_cover(ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 2), (2, 1, 1)))
    assert report.arcs == (2, 1)
    assert report.violations == ("realizability on e2: d_e2·l_e2 = (n2−1)·l~1 + n2·l~2 (lhs=1, rhs=4)",)


def test_negative_derived_arc_is_reported():
    cover = ThetaCover(ThetaCurve(2, 1, 1), (1, 2, 0), (2, 1, 1))
    report = validate_cover(cover)
    assert "nonnegative target arcs" in report.violations


def test_dumbbell_validation():
    curve = DumbbellCurve(1, 1, 1)
    cover = DumbbellCover(curve, (1, 1), (2, 2), target_length=2)
    report = validate_cover(cover)
    assert report.valid
    assert report.degree == 4

    derived = DumbbellCover(curve, (1, 1), (2, 2))
    assert derived.target_length == 2
    assert validate_cover(derived).valid


def test_dumbbell_violations_are_named():
    curve = DumbbellCurve(1, 1, 1)
    report = validate_cover(DumbbellCover(curve, (0, 1), (1, 1)))
    assert "realizability on loop1: d1·l_loop1 = n1·l (lhs=1, rhs=0)" in report.violations
    report = validate_cover(DumbbellCover(curve, (1, 1), (0, 0)))
    assert "surjectivity: (d1, d2) != (0, 0)" in report.violations


_E = "realizability on e: d_e·l_e = n·l~1 + (n−1)·l~2"
_E2 = "realizability on e2: d_e2·l_e2 = (n2−1)·l~1 + n2·l~2"


def test_realizability_violations_name_both_sides():
    # e and e1 solve the arcs (2·10^300, 10^300 + 1), which miss e2 by 1
    big = 10**300
    report = validate_cover(ThetaCover(ThetaCurve(big, big + 1, big + 2), (1, 1, 1), (2, 1, 1)))
    assert report.violations == (f"{_E2} (lhs={big + 2}, rhs={big + 1})",)
    report = validate_cover(DumbbellCover(DumbbellCurve(1, Fraction(3, 2), 1), (1, 1), (1, 1), 1))
    assert report.violations == ("realizability on loop2: d2·l_loop2 = n2·l (lhs=3/2, rhs=1)",)


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8000,
    reason="no int-to-str digit limit below 8000 digits",
)
def test_a_side_past_the_digit_limit_is_written_by_its_bit_length():
    # each factor prints, and their product has more digits than Python prints
    dilation, length = 10**4000 + 1, 3 * 10**3999 + 1
    side = dilation * length
    bits = side.bit_length()
    cover = ThetaCover(ThetaCurve(1, 1, length), (1, 1, 1), (dilation + 1, 1, dilation))
    assert validate_cover(cover).violations == (f"{_E2} (lhs=a number of {bits} bits, rhs=1)",)
    # a fraction, by its numerator and denominator
    cover = DumbbellCover(DumbbellCurve(1, Fraction(length, 2), 1), (1, 1), (1, dilation), 1)
    assert validate_cover(cover).violations == (
        f"realizability on loop2: d2·l_loop2 = n2·l (lhs=a number of {bits} bits over 2 bits, rhs=1)",
    )
    # a negative side, from pinned arcs
    cover = ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (2, 1, 1), arcs=(-side, 1))
    assert f"{_E} (lhs=2, rhs=a negative number of {bits} bits)" in validate_cover(cover).violations


def test_constructor_input_checking():
    curve = ThetaCurve(1, 1, 1)
    pytest.raises(ValueError, lambda: ThetaCover(curve, (1, 1, -1), (2, 1, 1)))
    pytest.raises(ValueError, lambda: ThetaCover(curve, (1, 1, 1), (2, 1, 0.5)))
    pytest.raises(ValueError, lambda: ThetaCover(curve, (1, 1), (2, 1, 1)))
    pytest.raises(ValueError, lambda: ThetaCurve(1, 0, 1))
    pytest.raises(ValueError, lambda: DumbbellCover(curve, (1, 1), (1, 1)))


@pytest.mark.parametrize(
    "graph",
    [None, degree_two_theta_cover(), [("v", "v", 1)]],
    ids=["none", "theta-cover", "list"],
)
def test_general_cover_requires_a_metric_graph(graph):
    with pytest.raises(ValueError, match="^GeneralCircleCover requires a MetricGraph$"):
        GeneralCircleCover(graph, 1, [])


@pytest.mark.parametrize(
    "lengths",
    [("1e10000000", 1, 1), (1, "2E3", 1), (True, 1, 1), ("1" * 5000, 1, 1)],
    ids=["exponent", "capital-exponent", "bool", "5000-digits"],
)
def test_curve_lengths_refuse_inexact_input_at_once(lengths):
    for model in (ThetaCurve, DumbbellCurve):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="must be an exact rational"):
            model(*lengths)
        assert time.perf_counter() - start < 1


def test_curve_lengths_read_plain_strings():
    assert DumbbellCurve("3/2", "1.5", " 7 ") == DumbbellCurve(Fraction(3, 2), Fraction(3, 2), 7)


def test_cover_degree_requires_validity():
    cover = ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (2, 1, 2))
    pytest.raises(InvalidCover, lambda: cover_degree(cover))
    assert cover_degree(degree_two_theta_cover()) == 2


def test_degree_identity_sum_of_squares():
    # sum of d_e^2 l_e over the source equals degree times target length
    covers = [
        degree_two_theta_cover(),
        ThetaCover(ThetaCurve(1, 1, 4), (1, 1, 2), (2, 1, 1)),
        DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2)),
        DumbbellCover(DumbbellCurve(2, 2, 1), (2, 2), (1, 1)),
    ]
    for cover in covers:
        degree = cover_degree(cover)
        length = target_length(cover)
        if isinstance(cover, ThetaCover):
            lengths = (cover.curve.l_e, cover.curve.l_e1, cover.curve.l_e2)
        else:
            lengths = (cover.curve.l_loop1, cover.curve.l_loop2)
        total = sum(d * d * l for d, l in zip(cover.dilations, lengths))
        assert total == degree * length


# ------------------------------------------------------------- ramification


def test_ramification_at_theta_vertices():
    cover = degree_two_theta_cover()
    # P0: local degree 2 from e, tangent dilations (2, 1, 1)
    assert ramification_index(cover, "P0") == 2 * 2 - 2 - (1 + 0 + 0)
    assert ramification_index(cover, "P0") == 1
    assert ramification_index(cover, "P1") == 1


def test_ramification_interior_points_are_unramified():
    cover = degree_two_theta_cover()
    assert ramification_index(cover, "e") == 0
    assert ramification_index(cover, "e1") == 0
    assert ramification_index(cover, "e2") == 0


def test_ramification_at_contracted_vertex_is_valence_minus_two():
    # loop1 contracted: P0 has three tangents, all collapsing
    cover = DumbbellCover(DumbbellCurve(1, 1, 1), (0, 1), (0, 2))
    assert validate_cover(cover).valid
    assert ramification_index(cover, "P0") == 1
    assert ramification_index(cover, "bridge") == 0


def test_ramification_rejects_unknown_points():
    pytest.raises(ValueError, lambda: ramification_index(degree_two_theta_cover(), "P7"))


# -------------------------------------------------------------- Abel-Jacobi


def test_abel_jacobi_theta_endpoint_classes():
    curve = ThetaCurve(1, 1, 1)
    # the class of P1 - P0 is the integral along e; canonical representative
    image = abel_jacobi(curve, "P0", ("e", 1))
    assert image == Matrix([[2], [2]])
    # reaching P1 along e1 backwards gives the same class
    assert abel_jacobi(curve, "P0", ("e1", 0)) == image
    assert abel_jacobi(curve, "P0", ("e2", 0)) == image
    # a full loop returns to the basepoint class
    assert abel_jacobi(curve, "P0", ("e1", 1)) == Matrix([[0], [0]])
    assert abel_jacobi(curve, "P1", ("e", 1)) == Matrix([[0], [0]])


def test_abel_jacobi_midpoint():
    curve = ThetaCurve(1, 1, 1)
    # integral (1/2, 0) reduced to the fundamental domain
    assert abel_jacobi(curve, "P0", ("e", Fraction(1, 2))) == Matrix(
        [[Fraction(3, 2)], [2]]
    )


def test_abel_jacobi_dumbbell():
    curve = DumbbellCurve(2, 3, 5)
    assert abel_jacobi(curve, "P0", ("loop1", 1)) == Matrix([[1], [0]])
    # the bridge lies in no cycle, so P1 and P0 have the same class
    assert abel_jacobi(curve, "P0", ("loop2", 0)) == Matrix([[0], [0]])
    assert abel_jacobi(curve, "P0", ("loop2", Fraction(3, 2))) == Matrix(
        [[0], [Fraction(3, 2)]]
    )
    assert abel_jacobi(curve, "P1", ("loop1", 1)) == Matrix([[1], [0]])


def test_abel_jacobi_offset_range():
    curve = ThetaCurve(1, 1, 1)
    pytest.raises(OffsetOutOfRange, lambda: abel_jacobi(curve, "P0", ("e", -1)))
    pytest.raises(OffsetOutOfRange, lambda: abel_jacobi(curve, "P0", ("e", 2)))
    pytest.raises(ValueError, lambda: abel_jacobi(curve, "P0", ("e", 0.25)))
    pytest.raises(ValueError, lambda: abel_jacobi(curve, "P0", ("e9", 0)))
    pytest.raises(ValueError, lambda: abel_jacobi(curve, "Q", ("e", 0)))


def test_abel_jacobi_on_metric_graph():
    graph = ThetaCurve(1, 1, 1).graph()
    # a full non-tree edge from the basepoint closes up a cycle: class zero
    assert abel_jacobi(graph, "P0", (1, 1)) == Matrix([[0], [0]])
    # edge 0 is the tree edge P0 -> P1
    image = abel_jacobi(graph, "P0", (0, 1))
    assert abel_jacobi(graph, "P0", (1, 0)) == image
    assert abel_jacobi(graph, "P0", (2, 0)) == image
    pytest.raises(OffsetOutOfRange, lambda: abel_jacobi(graph, "P0", (0, 2)))
    pytest.raises(ValueError, lambda: abel_jacobi(graph, "P0", (9, 0)))


# ----------------------------------------------------- general circle covers


def double_cover_of_circle():
    return GeneralCircleCover(circle_graph(2), 1, [(1, 0, 2)])


def test_general_cover_validation_passes():
    assert validate_general_cover(double_cover_of_circle()) == []
    assert cover_degree(double_cover_of_circle()) == 2


def test_general_cover_image_length_violation():
    cover = GeneralCircleCover(circle_graph(2), 1, [(2, 0, 2)])
    assert any(v.startswith("image length") for v in validate_general_cover(cover))


def test_general_cover_harmonicity_violation():
    graph = MetricGraph(["a", "b"], [("a", "b", 1), ("b", "a", 1)])
    good = GeneralCircleCover(graph, 2, [(1, 0, 1), (1, 1, 1)])
    assert validate_general_cover(good) == []
    bad = GeneralCircleCover(graph, 2, [(1, 0, 1), (1, 1, -1)])
    violations = validate_general_cover(bad)
    assert any(v.startswith("harmonicity") for v in violations)


def test_general_cover_endpoint_violation():
    graph = MetricGraph(["a", "b"], [("a", "b", 1), ("b", "a", 1)])
    # second walk starts away from the image of b
    cover = GeneralCircleCover(graph, 4, [(1, 0, 1), (1, 2, 1)])
    violations = validate_general_cover(cover)
    assert "walk endpoints: edge images must agree at shared vertices" in violations


def test_general_cover_violations_keep_their_order():
    # image lengths in edge order, then the endpoints, then harmonicity in
    # vertex order, then the degree
    graph = MetricGraph(
        ["a", "b", "c"], [("c", "a", 1), ("a", "b", 1), ("b", "c", 2), ("b", "b", 1)]
    )
    cover = GeneralCircleCover(graph, 3, [(1, 0, 1), (2, 0, 1), (1, 1, -2), (1, 0, 0)])
    assert validate_cover(cover).violations == (
        "image length on (a, b): |walk| = dilation·length",
        "image length on (b, b): |walk| = dilation·length",
        "walk endpoints: edge images must agree at shared vertices",
        "harmonicity at b: outgoing slopes must cancel",
        "harmonicity at c: outgoing slopes must cancel",
        "degree: sum of d_e^2·l_e must be a multiple of l",
    )


def test_general_cover_non_integer_degree():
    cover = GeneralCircleCover(circle_graph(2), 3, [(1, 0, 2)])
    pytest.raises(InvalidCover, lambda: cover_degree(cover))


# ------------------------------------------------------ sparse cycle basis

# the plain graphs of Hypothesis and the two curve models with fixed bases
_graphs = st.one_of(
    metric_graphs(),
    st.sampled_from([ThetaCurve(1, 2, 3), DumbbellCurve(Fraction(1, 2), 3, 5)]),
)


@settings(max_examples=120, deadline=None)
@given(_graphs)
def test_period_matrix_is_the_dense_gram_matrix(graph):
    assert graph.period_matrix() == dense_period_matrix(graph)


@settings(max_examples=120, deadline=None)
@given(_graphs)
def test_each_cycle_leads_with_a_private_edge(graph):
    # every pair is nonzero, and the first edge of each cycle has
    # coefficient ±1 and lies in no other cycle
    cycles = graph._cycles
    assert len(cycles) == graph.genus
    assert [dict(cycle) for cycle in cycles] == [
        {e: c for e, c in enumerate(dense) if c} for dense in graph.cycle_basis()
    ]
    for i, cycle in enumerate(cycles):
        private, coefficient = cycle[0]
        assert coefficient in (1, -1)
        assert all(private not in dict(other) for other in cycles[:i] + cycles[i + 1:])


@settings(max_examples=120, deadline=None)
@given(_graphs, st.data())
def test_universal_row_inverts_the_slopes_of_a_row(graph, data):
    row = data.draw(st.lists(st.integers(-50, 50), min_size=graph.genus, max_size=graph.genus))
    slopes = _row_slopes(graph, row)
    assert slopes == [
        sum(entry * cycle[e] for entry, cycle in zip(row, graph.cycle_basis()))
        for e in range(len(graph.edges))
    ]
    assert _universal_row(graph, slopes) == row


@settings(max_examples=120, deadline=None)
@given(_graphs, _graphs)
def test_shared_coordinates_match_the_dense_check(first, second):
    # two drawn graphs, a graph and itself, and a graph and the plain graph
    # of its vertices and edges: a curve model's .graph() keeps the
    # dumbbell's loops as its basis, but not the theta's B1 and B2
    plain = MetricGraph(first.vertices, first.edges)
    for a, b in ((first, second), (first, first), (first, plain), (plain, first)):
        assert (_coordinates(a) == _coordinates(b)) == (dense_coordinates(a) == dense_coordinates(b))


@settings(max_examples=120, deadline=None)
@given(_graphs, st.data())
def test_abel_jacobi_matches_the_dense_sums(graph, data):
    assume(graph.edges)
    basepoint = data.draw(st.sampled_from(graph.vertices))
    index = data.draw(st.integers(0, len(graph.edges) - 1))
    length = Fraction(graph.edges[index][2])
    offset = data.draw(st.sampled_from([0, length / 3, length / 2, length]))
    edge = index if graph.EDGES is None else graph.EDGES[index]
    point = (edge, offset)
    assert abel_jacobi(graph, basepoint, point) == dense_abel_jacobi(graph, basepoint, point)


def test_a_wide_bouquet_costs_the_size_of_its_cycles():
    # one vertex with 400 unit loops: genus 400, and each cycle is its own
    # loop, so the period matrix, the universal row of a slope-1 cover and
    # the Abel-Jacobi path each cost the size of the cycles, not g^2 edges
    k = 400
    graph = MetricGraph(["v"], [("v", "v", 1)] * k)
    cover = GeneralCircleCover(graph, 1, [(1, 0, 1)] * k)
    for run in (
        lambda: jacobian(graph),
        lambda: pushforward_morphism(cover),
        lambda: abel_jacobi(graph, "v", (k - 1, Fraction(1, 2))),
    ):
        start = time.perf_counter()
        run()
        assert time.perf_counter() - start < 1
    assert pushforward_morphism(cover).f_sharp == Matrix.column([1] * k)


# ---------------------------------------------------------- harmonic form


def _pinned(cover):
    """The same cover with its target arcs or target length given, not
    derived."""
    if isinstance(cover, ThetaCover):
        return ThetaCover(cover.curve, cover.windings, cover.dilations, validate_cover(cover).arcs)
    return DumbbellCover(cover.curve, cover.windings, cover.dilations, cover.target_length)


def test_harmonic_form_matches_forward_walks_on_corpus():
    for cover in cover_corpus():
        assert harmonic_form(cover).edge_data == forward_form(cover)
        assert harmonic_form(_pinned(cover)).edge_data == forward_form(cover)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model_covers(), st.booleans())
def test_harmonic_form_matches_forward_walks_beyond_the_corpus(cover, pinned):
    if pinned:
        cover = _pinned(cover)
    assert harmonic_form(cover).edge_data == forward_form(cover)
