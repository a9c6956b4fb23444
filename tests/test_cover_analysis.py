"""Tests for the torus-level analysis of circle covers."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from oracles import (
    closed_form_gamma,
    cover_corpus,
    degree_two_cover,
    divisor_pullback_kernel,
    model_covers,
    model_period_matrix,
    winding_component_count,
    winding_pushforward,
    xgcd_kernel_length,
)
from tropjac.cover_analysis import (
    GammaData,
    TorsionDivisor,
    component_count,
    factor_pushforward,
    is_optimal,
    kernel_length,
    pullback_kernel,
    pullback_morphism,
    pushforward_morphism,
    q_gamma_profile,
    quotient_and_gamma,
)
from tropjac.curves_covers import (
    DumbbellCover,
    DumbbellCurve,
    GeneralCircleCover,
    ThetaCover,
    ThetaCurve,
    circle_graph,
    cover_degree,
    harmonic_form,
    target_length,
)
from tropjac.errors import InvalidCover, SourceMismatch
from tropjac.exact_lattice import Matrix
from tropjac.torus_category import (
    classify,
    compose,
    kernel0,
    kernel_component_count,
)


def big_cover():
    return ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (4, 2, 2))


def db_cover():
    return DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2))


# ------------------------------------------------------------- pushforward


def test_pushforward_of_degree_two_cover():
    push = pushforward_morphism(degree_two_cover())
    assert push.f_sharp == Matrix([[2], [-1]])
    assert push.f_hash == Matrix([[1, 0]])
    assert push.target.pairing == Matrix([[3]])
    assert push.universal_cover_matrix == Matrix([[2, -1]])
    flags = classify(push)
    assert flags.surjective and not flags.finite


def test_pushforward_of_dumbbell_cover():
    push = pushforward_morphism(db_cover())
    assert push.f_sharp == Matrix([[2], [2]])
    assert push.f_hash == Matrix([[1, 1]])
    assert push.target.pairing == Matrix([[2]])


def test_pushforward_requires_valid_cover():
    bad = ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (2, 1, 2))
    pytest.raises(InvalidCover, lambda: pushforward_morphism(bad))


def test_pullback_is_dual_of_pushforward():
    push = pushforward_morphism(degree_two_cover())
    pull = pullback_morphism(degree_two_cover())
    assert pull.f_sharp == push.f_hash
    assert pull.f_hash == push.f_sharp
    assert classify(pull).injective


def test_push_after_pull_is_multiplication_by_degree():
    for cover in (degree_two_cover(), big_cover(), db_cover()):
        degree = cover_degree(cover)
        push = pushforward_morphism(cover)
        pull = pullback_morphism(cover)
        around = compose(push, pull)
        assert around.f_sharp == Matrix([[degree]])
        assert around.f_hash == Matrix([[degree]])


# ------------------------------------------------------------ kernel length


def test_kernel_length_examples():
    assert kernel_length(degree_two_cover()) == 1
    assert kernel_length(big_cover()) == 1
    assert kernel_length(db_cover()) == 1
    tall = ThetaCover(ThetaCurve(1, 1, 4), (1, 1, 2), (2, 1, 1))
    assert kernel_length(tall) == 3
    wide = ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 2), (2, 0, 2))
    assert kernel_length(wide) == 3


def test_kernel_length_matches_kernel_torus():
    # the gcd-functional formula and the categorical kernel agree
    for cover in cover_corpus()[:60]:
        push = pushforward_morphism(cover)
        kernel_torus, _ = kernel0(push)
        assert kernel_torus.pairing == Matrix([[xgcd_kernel_length(cover)]])


# ------------------------------------------------------------- gamma data


def test_gamma_examples():
    assert quotient_and_gamma(degree_two_cover()) == GammaData(3, 1, 1)
    assert quotient_and_gamma(big_cover()) == GammaData(3, 2, 1)
    assert quotient_and_gamma(db_cover()) == GammaData(1, 2, 1)


def test_gamma_relation_holds_on_corpus():
    for cover in cover_corpus()[:80]:
        gamma = quotient_and_gamma(cover)
        assert gamma.l_tilde * gamma.a_sharp == target_length(cover) * gamma.a_hash
        assert gamma.a_sharp >= 1
        assert Fraction(gamma.a_hash).denominator == 1


def test_component_count_matches_stein_degree():
    for cover in cover_corpus()[:60]:
        push = pushforward_morphism(cover)
        assert component_count(cover) == kernel_component_count(push)


def test_disconnected_kernel():
    cover = DumbbellCover(DumbbellCurve(1, 1, 1), (2, 2), (1, 1))
    assert cover.target_length == Fraction(1, 2)
    assert component_count(cover) == 2
    verdict = is_optimal(cover)
    assert not verdict.kernel_connected
    assert verdict.dumbbell_gcd_free is False
    assert verdict.note is None


# ---------------------------------------------------------- pullback kernel


def test_pullback_kernel_examples():
    assert pullback_kernel(degree_two_cover()) == [TorsionDivisor(Fraction(0), 1)]
    assert pullback_kernel(big_cover()) == [
        TorsionDivisor(Fraction(0), 1),
        TorsionDivisor(Fraction(3), 2),
    ]
    assert pullback_kernel(db_cover()) == [
        TorsionDivisor(Fraction(0), 1),
        TorsionDivisor(Fraction(1), 2),
    ]


def test_pullback_kernel_orders_divide_degree():
    for cover in cover_corpus()[:80]:
        degree = cover_degree(cover)
        length = target_length(cover)
        for divisor in pullback_kernel(cover):
            assert degree % divisor.order == 0
            assert 0 <= divisor.position < length


def test_trivial_pullback_kernel_means_injective():
    for cover in (degree_two_cover(), big_cover(), db_cover()):
        pull = pullback_morphism(cover)
        trivial = len(pullback_kernel(cover)) == 1
        assert classify(pull).injective == trivial


def test_q_gamma_profile():
    assert q_gamma_profile(big_cover(), 3) == (2, 1, 1)
    assert q_gamma_profile(big_cover(), 1) == (
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(1, 3),
    )
    # the dumbbell profile carries the contracted bridge as a zero
    assert q_gamma_profile(db_cover(), 1) == (1, 1, 0)
    pytest.raises(ValueError, lambda: q_gamma_profile(db_cover(), 0.5))


# ---------------------------------------------------------------- optimality


def test_optimality_of_degree_two_cover():
    verdict = is_optimal(degree_two_cover())
    assert verdict.kernel_connected
    assert verdict.dumbbell_gcd_free is None
    assert verdict.component_count == 1
    assert verdict.note is None


def test_optimality_divergence_on_dilated_theta():
    verdict = is_optimal(big_cover())
    assert verdict.kernel_connected
    assert verdict.note is not None


def test_optimality_divergence_on_dumbbell():
    verdict = is_optimal(db_cover())
    assert verdict.kernel_connected
    assert verdict.dumbbell_gcd_free is False
    assert verdict.note is not None
    clean = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (1, 1))
    fine = is_optimal(clean)
    assert fine.kernel_connected and fine.dumbbell_gcd_free and fine.note is None


# ------------------------------------------------------------ factorization


def test_factor_through_smaller_cover():
    psi = factor_pushforward(big_cover(), degree_two_cover())
    assert psi is not None
    assert psi.f_sharp == Matrix([[2]])
    assert psi.f_hash == Matrix([[1]])
    assert psi.source.pairing == Matrix([[3]])
    assert psi.target.pairing == Matrix([[6]])
    assert compose(psi, pushforward_morphism(degree_two_cover())) == pushforward_morphism(
        big_cover()
    )


def test_factor_through_self_is_identity():
    psi = factor_pushforward(degree_two_cover(), degree_two_cover())
    assert psi.f_sharp == Matrix([[1]])
    assert psi.f_hash == Matrix([[1]])


def test_factor_fails_across_kernel_directions():
    other = ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 2), (2, 0, 2))
    assert factor_pushforward(big_cover(), other) is None


def test_factor_requires_same_curve():
    pytest.raises(SourceMismatch, lambda: factor_pushforward(degree_two_cover(), db_cover()))
    shifted = ThetaCover(ThetaCurve(1, 1, 2), (1, 1, 1), (2, 1, 1))
    pytest.raises(SourceMismatch, lambda: factor_pushforward(degree_two_cover(), shifted))


def test_factor_through_self_on_a_general_cover():
    double = GeneralCircleCover(circle_graph(2), 1, [(1, 0, 2)])
    psi = factor_pushforward(double, double)
    assert psi.f_sharp == Matrix([[1]])
    assert psi.f_hash == Matrix([[1]])


def test_factor_compares_source_graphs_and_cycle_bases():
    theta = degree_two_cover()
    form = harmonic_form(theta)
    # the harmonic form lives on the theta curve itself: same source
    assert factor_pushforward(form, theta).f_sharp == Matrix([[1]])
    # the same walks over the plain graph use its BFS cycle basis instead
    plain = GeneralCircleCover(theta.curve.graph(), form.target_length, form.edge_data)
    pytest.raises(SourceMismatch, lambda: factor_pushforward(theta, plain))
    double = GeneralCircleCover(circle_graph(2), 1, [(1, 0, 2)])
    pytest.raises(SourceMismatch, lambda: factor_pushforward(double, theta))


# ------------------------------------------------------- closed-form oracles


def _check_against_closed_forms(cover):
    push = pushforward_morphism(cover)
    assert push.source.pairing == model_period_matrix(cover.curve)
    assert (push.f_sharp, push.f_hash) == winding_pushforward(cover)
    assert kernel_length(cover) == xgcd_kernel_length(cover)
    assert quotient_and_gamma(cover) == closed_form_gamma(cover)
    assert component_count(cover) == winding_component_count(cover)
    kernel = [(divisor.position, divisor.order) for divisor in pullback_kernel(cover)]
    assert kernel == divisor_pullback_kernel(cover)


def test_invariants_match_closed_forms_on_corpus():
    for cover in cover_corpus():
        _check_against_closed_forms(cover)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model_covers())
@example(  # degree 1140
    ThetaCover(
        ThetaCurve(Fraction(19, 60), Fraction(19, 30), Fraction(19, 30)),
        (10, 10, 10),
        (60, 30, 30),
    )
)
@example(  # degree 2001
    DumbbellCover(
        DumbbellCurve(Fraction(1, 1000), Fraction(1, 1001), 1), (1, 1), (1000, 1001)
    )
)
def test_invariants_match_closed_forms_beyond_the_corpus(cover):
    _check_against_closed_forms(cover)
