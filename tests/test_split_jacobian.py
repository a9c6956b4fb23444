"""Tests for complementary covers and split-Jacobian verification."""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings

import tropjac.split_jacobian as split_jacobian
import tropjac.tav as tav
from oracles import (
    cover_corpus,
    degree_two_cover,
    divided_complementary_f_hash,
    inverse_hnf_kernel_numerators,
    row_walk_cover,
    split_covers,
)
from tropjac.cover_analysis import is_optimal, pushforward_morphism, quotient_and_gamma
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    MetricGraph,
    ThetaCover,
    ThetaCurve,
    circle_graph,
    cover_degree,
    harmonic_form,
    jacobian,
    target_length,
    validate_general_cover,
)
from tropjac.errors import (
    InvariantViolation,
    KernelTooLarge,
    NotIsogeny,
    NotOptimal,
    NotProductTarget,
    ShapeMismatch,
    UnsupportedGenus,
)
from tropjac.exact_lattice import Matrix
from tropjac.tav import KernelGroup, isogeny_kernel_numerators, subgroup_generated
from tropjac.split_jacobian import (
    SplitKernel,
    _walk_cover,
    complementary_cover,
    complementary_pushforward,
    cover_from_splitting,
    row_cover,
    splitting_isogeny,
    strong_optimality_gap,
    verify_split_package,
)
from tropjac.torus_category import (
    TorusMorphism,
    circle,
    classify,
    compose,
    dual_morphism,
    identity_morphism,
    kernel_component_count,
)


def big_cover():
    return ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (4, 2, 2))


def tall_cover():
    return ThetaCover(ThetaCurve(1, 1, 4), (1, 1, 2), (2, 1, 1))


def strongly_optimal(cover):
    return is_optimal(cover).kernel_connected and quotient_and_gamma(cover).a_sharp == 1


# -------------------------------------------------------- complementary cover


def test_complementary_cover_of_degree_two_example():
    comp = complementary_cover(degree_two_cover())
    assert comp.target_length == 1
    assert comp.dilations == (0, 1, 1)  # contracts e
    assert comp.signs == (0, -1, 1)
    assert comp.degree == 2
    assert validate_general_cover(comp.general) == []
    assert cover_degree(comp.general) == 2


def test_complementary_cover_of_tall_theta():
    comp = complementary_cover(tall_cover())
    assert comp.target_length == 3
    assert comp.dilations == (1, 2, 1)
    assert comp.degree == 3


def test_complementary_cover_requires_strong_optimality():
    pytest.raises(NotOptimal, lambda: complementary_cover(big_cover()))
    disconnected = DumbbellCover(DumbbellCurve(1, 1, 1), (2, 2), (1, 1))
    pytest.raises(NotOptimal, lambda: complementary_cover(disconnected))
    connected_but_dilated = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2))
    pytest.raises(NotOptimal, lambda: complementary_cover(connected_but_dilated))


def test_complementary_pushforward_is_always_optimal():
    # the kernel functional is primitive and its value group is generated by
    # the kernel length, so the complementary projection never disconnects
    for cover in [c for c in cover_corpus() if strongly_optimal(c)][:25]:
        comp = complementary_pushforward(cover)
        assert classify(comp).surjective
        assert kernel_component_count(comp) == 1


def test_complementary_pushforward_is_the_divided_pairing_law():
    # the dual of the kernel inclusion has f_hash w^T * P / l', the matrix
    # its pairing law divides out, on every cover of the corpus
    covers = cover_corpus()
    assert len(covers) > 400
    for cover in covers:
        comp = complementary_pushforward(cover)
        assert comp.source == pushforward_morphism(cover).source
        assert comp.f_hash == divided_complementary_f_hash(cover)


# --------------------------------------------------------- splitting isogeny


def test_splitting_isogeny_of_degree_two_example():
    phi, kernel_points = splitting_isogeny(degree_two_cover())
    assert phi.universal_cover_matrix == Matrix([[1, 1], [2, 0]])
    assert phi.source.pairing == Matrix.diagonal([1, 3])
    assert classify(phi).isogeny
    assert [p.column_tuple(0) for p in kernel_points] == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(3, 2)),
    ]


def test_splitting_isogeny_requires_strong_optimality():
    pytest.raises(NotOptimal, lambda: splitting_isogeny(big_cover()))


# ------------------------------------------------------------ verify package


def test_verify_split_package_on_degree_two_example():
    report = verify_split_package(degree_two_cover())
    assert report.phi == Matrix([[1, 1], [2, 0]])
    assert report.phi_tilde == Matrix([[0, 1], [2, -1]])
    assert report.degree == 2
    assert report.all_flags_hold
    assert set(report.flags) == {
        "kernel_matches_d_torsion_TEprime",
        "kernel_matches_d_torsion_TE",
        "composite_is_mult_d",
        "polarization_pullback_is_d_times_principal",
        "kernel_sequence_exact",
        "pullback_sequence_exact",
    }


def test_composite_is_multiplication_both_ways():
    report = verify_split_package(degree_two_cover())
    around = compose(report.phi_morphism, report.phi_tilde_morphism)
    assert around.f_sharp == 2 * Matrix.identity(2)
    assert around.f_hash == 2 * Matrix.identity(2)


def test_phi_tilde_is_the_dual_of_phi_on_the_corpus():
    # phi_tilde is built from the complementary projection and mu_*, so
    # this checks the construction against the duality it must have
    covers = [c for c in cover_corpus() if strongly_optimal(c)]
    assert len(covers) == 83
    for cover in covers:
        report = verify_split_package(cover)
        assert report.phi_tilde_morphism == dual_morphism(report.phi_morphism)


def test_kernels_of_phi_match_the_inverse_hnf_listing_on_the_corpus():
    # the Smith presentation lists the same points over the same
    # denominator as the listing from f_hash^-1 and its column HNF
    covers = [c for c in cover_corpus() if strongly_optimal(c)]
    assert len(covers) == 83
    for cover in covers:
        phi, _ = splitting_isogeny(cover)
        listed, expected = isogeny_kernel_numerators(phi), inverse_hnf_kernel_numerators(phi)
        assert listed.denominator == expected.denominator
        assert listed.numerators == expected.numerators


def _ladder_cover(k):
    """The strongly optimal dumbbell cover of degree 2k + 1."""
    return DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1))


def test_split_kernel_is_the_generic_listing_on_the_corpus_and_the_ladder():
    # the report keeps the cyclic kernel unlisted; the multiples of its
    # generator, listed in order, are the points that the box of the Smith
    # presentation lists and sorts
    covers = [c for c in cover_corpus() if strongly_optimal(c)]
    assert len(covers) == 83
    for cover in covers + [_ladder_cover(k) for k in range(1, 1001)]:
        report = verify_split_package(cover)
        assert type(report.kernel) is SplitKernel and report.kernel.order == report.degree
        assert report.kernel.listed() == isogeny_kernel_numerators(report.phi_morphism)


@settings(max_examples=60, deadline=None)
@given(split_covers())
def test_split_kernel_is_the_generic_listing_beyond_the_corpus(cover):
    report = verify_split_package(cover)
    assert type(report.kernel) is SplitKernel
    assert report.kernel.listed() == isogeny_kernel_numerators(report.phi_morphism)


def test_split_kernel_is_refused_above_the_listing_bound(monkeypatch):
    # the report keeps the kernel unlisted, so a cover of any degree is
    # answered; the bound is read from the kernel's order where it is
    # listed, before any point is: by listed(), kernel_points and
    # splitting_isogeny
    huge = _ladder_cover(5 * 10**11)  # degree 10^12 + 1
    start = time.perf_counter()
    report = verify_split_package(huge)
    assert time.perf_counter() - start < 0.1
    assert report.kernel.order == report.degree == 10**12 + 1
    assert len(report.flags) == 6 and report.all_flags_hold
    for listing in (report.kernel.listed, lambda: report.kernel_points, lambda: splitting_isogeny(huge)):
        with pytest.raises(KernelTooLarge) as raised:
            listing()
        assert "1000000000001 points" in str(raised.value)
    monkeypatch.setattr(tav, "MAX_LISTED_POINTS", 5)
    assert len(verify_split_package(_ladder_cover(2)).kernel.listed().numerators) == 5
    report = verify_split_package(_ladder_cover(3))
    assert report.all_flags_hold
    with pytest.raises(KernelTooLarge):
        report.kernel.listed()


def test_a_split_kernel_past_the_bound_is_refused_before_it_lists(monkeypatch):
    # a record built by the caller is checked too: the bound is reached,
    # not passed, at 5 points, and the 6th is refused before any point is
    # listed
    monkeypatch.setattr(tav, "MAX_LISTED_POINTS", 5)
    assert len(SplitKernel(5, (1, 1), 1, 5).listed().numerators) == 5

    def unlisted(*args):
        raise AssertionError("a kernel point was listed")

    monkeypatch.setattr(split_jacobian, "ScaledPoints", unlisted)
    with pytest.raises(KernelTooLarge) as raised:
        SplitKernel(6, (1, 1), 1, 6).listed()
    assert "6 points" in str(raised.value)


@settings(max_examples=60, deadline=None)
@given(split_covers())
def test_phi_tilde_is_the_dual_of_phi_beyond_the_corpus(cover):
    report = verify_split_package(cover)
    assert report.phi_tilde_morphism == dual_morphism(report.phi_morphism)


def _walk(cover):
    """A walk cover's fields: covers compare by identity."""
    return cover.graph, cover.target_length, cover.edge_data


@settings(max_examples=60, deadline=None)
@given(split_covers())
def test_row_cover_is_the_reference_walk_cover(cover):
    # the row of a strongly optimal cover's pushforward builds the walk
    # cover that the Fraction reference builds, back on the same row and
    # target length: the pairing law P·r = l·f_hash^T with f_hash
    # primitive makes the content of P·r the target length
    graph = harmonic_form(cover).graph
    row = pushforward_morphism(cover).universal_cover_matrix.row_tuple(0)
    built = row_cover(graph, row)
    assert _walk(built) == _walk(row_walk_cover(graph, row))
    assert pushforward_morphism(built).universal_cover_matrix.row_tuple(0) == row
    assert target_length(built) == target_length(cover)
    assert strong_optimality_gap(built) is None


def test_row_cover_refuses_a_row_that_is_not_primitive():
    graph = ThetaCurve(1, 2, 3).graph()
    assert _walk(row_cover(graph, (1, -1))) == _walk(row_walk_cover(graph, (1, -1)))
    for row in ((0, 0), (2, 4), (-3, 0), (1, 0, 0), (Fraction(1, 2), 1), (True, 0)):
        with pytest.raises(ValueError, match="a cover row is a primitive pair of ints"):
            row_cover(graph, row)
    with pytest.raises(UnsupportedGenus):
        row_cover(circle_graph(1), (1,))


def test_verify_split_package_on_dumbbell():
    cover = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (1, 1))
    report = verify_split_package(cover)
    assert report.degree == 2
    assert report.all_flags_hold


def test_verify_split_package_across_corpus_sample():
    sample = [c for c in cover_corpus() if strongly_optimal(c)][:20]
    assert sample
    for cover in sample:
        report = verify_split_package(cover)
        assert report.all_flags_hold
        assert len(report.kernel_points) == report.degree == cover_degree(cover)


def _doubled(m):
    return TorusMorphism(m.source, m.target, 2 * m.f_sharp, 2 * m.f_hash)


def _with_generator(edit):
    """The kernel group with its last generator (x, y) replaced by
    edit(x, y, den)."""

    def patch(group, cover):
        def edited(f_hash):
            factors, den, generators = group(f_hash)
            return factors, den, [*generators[:-1], edit(*generators[-1], den)]

        return edited

    return patch


def _with_factors(edit):
    """The kernel group with its factors replaced by edit(factors)."""

    def patch(group, cover):
        def edited(f_hash):
            factors, den, generators = group(f_hash)
            return edit(factors), den, generators

        return edited

    return patch


def _least_prime(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


def _scaled_phi(splitting, cover):
    def doubled_phi(c):
        phi, group, points = splitting(c)
        return _doubled(phi), group, points

    return doubled_phi


def _scaled_phi_tilde(compose_, cover):
    # phi_tilde is the outer factor of the one composite
    return lambda outer, inner: compose_(_doubled(outer), inner)


def _push_doubled(check, cover):
    # the doubled pushforward has a kernel of two components
    push = pushforward_morphism(cover)
    return lambda f, g: check(f, _doubled(g) if g == push else g)


def _complement_doubled(complement, cover):
    return lambda c: _doubled(complement(c))


# each case breaks the object behind one flag through the split_jacobian
# binding that supplies it; other flags that read the same object fail too.
# The torsion flags read the kernel group that quotient_group presents from
# phi's f_hash, as (factors, den, generators), and phi comes from _splitting.
BROKEN_FLAGS = {
    "kernel points off TE'": (
        "quotient_group", _with_generator(lambda x, y, den: (0, y)),
        {"kernel_matches_d_torsion_TEprime"}),
    "kernel points off TE": (
        "quotient_group", _with_generator(lambda x, y, den: (x, 0)),
        {"kernel_matches_d_torsion_TE"}),
    # a group of d - 1 points
    "kernel point dropped": (
        "quotient_group",
        _with_factors(lambda factors: (1, factors[-1] - 1)),
        {"kernel_matches_d_torsion_TEprime", "kernel_matches_d_torsion_TE"},
    ),
    # the generator times a non-unit, whose d multiples repeat points
    "kernel point repeated": (
        "quotient_group",
        _with_generator(lambda x, y, den: (x * _least_prime(den) % den, y * _least_prime(den) % den)),
        {"kernel_matches_d_torsion_TEprime", "kernel_matches_d_torsion_TE"},
    ),
    # d points, but a first factor other than 1
    "kernel group not cyclic": (
        "quotient_group",
        _with_factors(lambda factors: factors[::-1]),
        {"kernel_matches_d_torsion_TEprime", "kernel_matches_d_torsion_TE"},
    ),
    "phi_tilde scaled": ("compose", _scaled_phi_tilde, {"composite_is_mult_d"}),
    "phi scaled": (
        "_splitting",
        _scaled_phi,
        {"composite_is_mult_d", "polarization_pullback_is_d_times_principal"},
    ),
    "pushforward doubled": (
        "check_exact_sequence", _push_doubled, {"kernel_sequence_exact"}),
    "complementary pushforward scaled": (
        "complementary_pushforward",
        _complement_doubled,
        {"composite_is_mult_d", "pullback_sequence_exact"},
    ),
}


def test_every_flag_has_a_breaking_case():
    broken = set().union(*(flags for _, _, flags in BROKEN_FLAGS.values()))
    assert broken == set(verify_split_package(degree_two_cover()).flags)


@pytest.mark.parametrize("case", sorted(BROKEN_FLAGS))
@pytest.mark.parametrize("cover", [degree_two_cover, tall_cover], ids=["degree-2", "tall"])
def test_each_split_flag_fails_on_a_broken_splitting(case, cover, monkeypatch):
    binding, patch, expected = BROKEN_FLAGS[case]
    cover = cover()
    original = getattr(split_jacobian, binding)
    monkeypatch.setattr(split_jacobian, binding, patch(original, cover))
    report = verify_split_package(cover)
    assert {flag for flag, holds in report.flags.items() if not holds} == expected
    if "kernel_matches_d_torsion_TEprime" in expected:
        # the report holds the group the flags read, the patched one
        phi = report.phi_morphism
        factors, den, generators = split_jacobian.quotient_group(phi.f_hash)
        if factors[0] == 1 and gcd(generators[-1][0], den) == 1:
            # still cyclic with a unit TE' coordinate: phi's own kernel,
            # listed from its generator
            assert report.kernel.listed() == isogeny_kernel_numerators(phi)
        else:
            # unlisted, as its factors and generators
            points = tuple(phi.source.pairing * Matrix.column([Fraction(c, den) for c in g]) for g in generators)
            assert report.kernel == KernelGroup(factors, points)
            assert report.kernel_points == subgroup_generated(phi.source, points)


# ------------------------------------------------------- cover from splitting


def test_cover_from_splitting_recovers_both_factors():
    report = verify_split_package(degree_two_cover())
    curve = ThetaCurve(1, 1, 1)
    second = cover_from_splitting(curve, report.phi_tilde_morphism, factor=2)
    assert second.dilations == (2, 1, 1)
    assert second.target_length == 3
    first = cover_from_splitting(curve, report.phi_tilde_morphism, factor=1)
    assert first.dilations == (0, 1, 1)
    assert first.target_length == 1


def test_cover_from_splitting_on_product_dumbbell():
    curve = DumbbellCurve(2, 3, 1)
    ident = identity_morphism(jacobian(curve).torus)
    general = cover_from_splitting(curve, ident, factor=1)
    assert general.dilations == (1, 0, 0)
    assert general.target_length == 2
    other = cover_from_splitting(curve, ident, factor=2)
    assert other.dilations == (0, 1, 0)
    assert other.target_length == 3


def test_cover_from_splitting_input_checking():
    curve = ThetaCurve(1, 1, 1)
    report = verify_split_package(degree_two_cover())
    tilde = report.phi_tilde_morphism
    # non-isogeny: the pushforward itself is surjective but not finite
    from tropjac.cover_analysis import pushforward_morphism

    push = pushforward_morphism(degree_two_cover())
    pytest.raises(NotIsogeny, lambda: cover_from_splitting(curve, push))
    # non-product target: the identity of the Jacobian
    ident = identity_morphism(jacobian(curve).torus)
    pytest.raises(NotProductTarget, lambda: cover_from_splitting(curve, ident))
    # source mismatch: feed a different curve's Jacobian
    pytest.raises(
        ShapeMismatch,
        lambda: cover_from_splitting(ThetaCurve(1, 1, 2), tilde),
    )
    pytest.raises(ValueError, lambda: cover_from_splitting(curve, tilde, factor=3))


@pytest.mark.parametrize("iso", [None, Matrix.identity(2), degree_two_cover()])
def test_cover_from_splitting_requires_a_torus_morphism(iso):
    with pytest.raises(ValueError, match="^cover_from_splitting expects a TorusMorphism$"):
        cover_from_splitting(ThetaCurve(1, 1, 1), iso)


def figure_eight_cover():
    """Degree 3 from two loops at one vertex, a genus-2 graph that is not a
    curve model."""
    graph = MetricGraph(["v"], [("v", "v", 1), ("v", "v", 2)])
    return GeneralCircleCover(graph, 1, [(1, 0, 1), (1, 0, 2)])


def test_cover_from_splitting_on_a_graph_that_is_not_a_model():
    cover = figure_eight_cover()
    report = verify_split_package(cover)
    assert report.degree == 3 and report.all_flags_hold
    comp = complementary_cover(cover)
    graph = cover.graph
    recovered = cover_from_splitting(graph, report.phi_tilde_morphism, factor=2)
    assert (recovered.edge_data, recovered.target_length) == (cover.edge_data, 1)
    other = cover_from_splitting(graph, report.phi_tilde_morphism, factor=1)
    assert (other.edge_data, other.target_length) == (
        comp.general.edge_data,
        comp.target_length,
    )


def test_cover_from_splitting_refuses_other_genera():
    bouquet = MetricGraph(["v"], [("v", "v", 1)] * 3)
    ident = identity_morphism(jacobian(bouquet).torus)
    with pytest.raises(UnsupportedGenus) as info:
        cover_from_splitting(bouquet, ident)
    assert info.value.code == "UNSUPPORTED_GENUS"
    circle = circle_graph(1)
    with pytest.raises(UnsupportedGenus):
        cover_from_splitting(circle, identity_morphism(jacobian(circle).torus))


def test_cover_from_splitting_refuses_a_genus_before_building_the_jacobian():
    # a 400-loop bouquet is refused from its genus alone: no 400 x 400
    # period matrix is built, and the graph keeps no Jacobian
    bouquet = MetricGraph(["v"], [("v", "v", 1)] * 400)
    with pytest.raises(UnsupportedGenus):
        cover_from_splitting(bouquet, identity_morphism(circle(1)))
    assert "_jacobian" not in vars(bouquet)
    # an argument that is no graph still raises ValueError
    with pytest.raises(ValueError, match="MetricGraph"):
        cover_from_splitting(None, identity_morphism(circle(1)))


def test_inconsistent_walk_cover_raises_a_coded_error():
    # row (1, 0) puts P1 over 1 and sends e2 back to 2, not to P0 over 0,
    # on a target circle of length 3
    with pytest.raises(InvariantViolation) as info:
        _walk_cover(ThetaCurve(1, 1, 1), (1, 0), 3)
    assert info.value.code == "INVARIANT_VIOLATION"
    assert "walk endpoints" in str(info.value)
