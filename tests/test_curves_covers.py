"""Tests for metric graphs, curve models, cover validation, and Abel-Jacobi."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cover_corpus, forward_form, model_covers
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    MetricGraph,
    ThetaCover,
    ThetaCurve,
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
    assert report.violations == ("realizability on e2: d_e2·l_e2 = (n2−1)·l~1 + n2·l~2",)


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
    assert "realizability on loop1: d1·l_loop1 = n1·l" in report.violations
    report = validate_cover(DumbbellCover(curve, (1, 1), (0, 0)))
    assert "surjectivity: (d1, d2) != (0, 0)" in report.violations


def test_constructor_input_checking():
    curve = ThetaCurve(1, 1, 1)
    pytest.raises(ValueError, lambda: ThetaCover(curve, (1, 1, -1), (2, 1, 1)))
    pytest.raises(ValueError, lambda: ThetaCover(curve, (1, 1, 1), (2, 1, 0.5)))
    pytest.raises(ValueError, lambda: ThetaCover(curve, (1, 1), (2, 1, 1)))
    pytest.raises(ValueError, lambda: ThetaCurve(1, 0, 1))
    pytest.raises(ValueError, lambda: DumbbellCover(curve, (1, 1), (1, 1)))


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
