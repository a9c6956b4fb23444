"""Tests for the torus-level analysis of circle covers."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from oracles import (
    closed_form_gamma,
    cover_corpus,
    degree_two_cover,
    divisor_pullback_kernel,
    gcd_sign_factor_pushforward,
    model_covers,
    model_period_matrix,
    wide_kernel_covers,
    winding_component_count,
    winding_gcd_free,
    winding_pushforward,
    xgcd_kernel_length,
)
import tropjac.cover_analysis as cover_analysis
import tropjac.curves_covers as curves_covers
import tropjac.split_jacobian as split_jacobian
from tropjac import UnsupportedGenus
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
    MetricGraph,
    ThetaCover,
    ThetaCurve,
    _circle_cover,
    circle_graph,
    cover_degree,
    harmonic_form,
    target_length,
)
from tropjac.errors import InvalidCover, SourceMismatch
from tropjac.exact_lattice import Matrix
from tropjac.split_jacobian import (
    complementary_cover,
    complementary_pushforward,
    splitting_isogeny,
    strong_optimality_gap,
    verify_split_package,
)
from tropjac.torus_category import (
    classify,
    compose,
    dual_morphism,
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
    pytest.raises(ValueError, lambda: q_gamma_profile(db_cover(), True))
    pytest.raises(ValueError, lambda: q_gamma_profile(db_cover(), "1e10000000"))


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
    # the BFS basis of the plain dumbbell graph is the dumbbell's own two
    # loops, so the same walks over it share the source and factor
    dumbbell = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2))
    form = harmonic_form(dumbbell)
    plain = GeneralCircleCover(dumbbell.curve.graph(), form.target_length, form.edge_data)
    assert factor_pushforward(plain, dumbbell).f_sharp == Matrix([[1]])
    assert factor_pushforward(dumbbell, plain).f_sharp == Matrix([[1]])


def test_factor_pushforward_agrees_with_the_gcd_and_sign_search():
    # every ordered pair of corpus covers on one curve, so with one source
    # graph and cycle basis: the solved psi is the one the search over gcds
    # and signs finds, or neither finds one
    by_curve = {}
    for cover in cover_corpus():
        by_curve.setdefault(cover.curve, []).append(cover)
    factored = 0
    for covers in by_curve.values():
        for first in covers:
            for second in covers:
                psi = factor_pushforward(first, second)
                assert psi == gcd_sign_factor_pushforward(first, second)
                factored += psi is not None
    # each of the 406 covers factors through itself, and 1129 pairs more
    assert factored == 1535


def test_a_cover_factors_through_its_reversal_by_minus_one():
    # reversing every walk (start -> -start mod l, signed -> -signed)
    # negates mu_*, so psi is ([-1], [-1]), the search's second sign
    minus_one = Matrix([[-1]])
    for cover in cover_corpus():
        form = harmonic_form(cover)
        reversal = GeneralCircleCover(
            form.graph,
            form.target_length,
            [(dilation, -start, -signed) for dilation, start, signed in form.edge_data],
        )
        for first, second in ((reversal, cover), (cover, reversal)):
            psi = factor_pushforward(first, second)
            assert psi == gcd_sign_factor_pushforward(first, second)
            assert psi.f_sharp == psi.f_hash == minus_one


# ------------------------------------------------------------ genus guard


def other_genus_covers():
    """A double cover by a circle (genus 1) and a degree-3 cover by a
    bouquet of three loops (genus 3)."""
    bouquet = MetricGraph(["v"], [("v", "v", 1)] * 3)
    return {
        "genus-1": GeneralCircleCover(circle_graph(2), 1, [(2, 0, 4)]),
        "genus-3": GeneralCircleCover(bouquet, 1, [(1, 0, 1)] * 3),
    }


GENUS_2_ONLY = {
    "kernel_length": kernel_length,
    # the kernel direction is the f_hash of the kernel inclusion
    "kernel_direction": lambda cover: _circle_cover(cover)._kernel[1].f_hash,
    "quotient_and_gamma": quotient_and_gamma,
    "component_count": component_count,
    "is_optimal": is_optimal,
    "strong_optimality_gap": strong_optimality_gap,
    "complementary_cover": complementary_cover,
    "complementary_pushforward": complementary_pushforward,
    "splitting_isogeny": splitting_isogeny,
    "verify_split_package": verify_split_package,
}

GENUS_FREE = {
    "cover_degree": cover_degree,
    "target_length": target_length,
    "pushforward_morphism": pushforward_morphism,
    "pullback_morphism": pullback_morphism,
    "pullback_kernel": pullback_kernel,
    "factor_pushforward": lambda cover: factor_pushforward(cover, cover),
}


@pytest.mark.parametrize("genus", sorted(other_genus_covers()))
@pytest.mark.parametrize("name", sorted(GENUS_2_ONLY))
def test_genus_2_invariants_refuse_other_genera(name, genus):
    cover = other_genus_covers()[genus]
    with pytest.raises(UnsupportedGenus) as info:
        GENUS_2_ONLY[name](cover)
    assert info.value.code == "UNSUPPORTED_GENUS"
    assert f"genus {genus[-1]}" in str(info.value)


@pytest.mark.parametrize("genus", sorted(other_genus_covers()))
def test_genus_free_invariants_hold_for_other_genera(genus):
    cover = other_genus_covers()[genus]
    values = {name: invariant(cover) for name, invariant in GENUS_FREE.items()}
    assert values["cover_degree"] == {"genus-1": 8, "genus-3": 3}[genus]
    assert values["target_length"] == 1
    assert values["pushforward_morphism"].source.rank == int(genus[-1])
    assert values["pullback_morphism"] == dual_morphism(values["pushforward_morphism"])
    assert len(values["pullback_kernel"]) == {"genus-1": 2, "genus-3": 1}[genus]
    assert values["factor_pushforward"].f_sharp == Matrix([[1]])


def test_component_count_is_an_int():
    for cover in (degree_two_cover(), big_cover(), db_cover()):
        assert type(quotient_and_gamma(cover).a_hash) is int
        assert type(component_count(cover)) is int


# ------------------------------------------------------- closed-form oracles


def _check_against_closed_forms(cover):
    push = pushforward_morphism(cover)
    assert push.source.pairing == model_period_matrix(cover.curve)
    assert (push.f_sharp, push.f_hash) == winding_pushforward(cover)
    assert kernel_length(cover) == xgcd_kernel_length(cover)
    assert quotient_and_gamma(cover) == closed_form_gamma(cover)
    assert component_count(cover) == winding_component_count(cover)
    assert is_optimal(cover).dumbbell_gcd_free == winding_gcd_free(cover)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(wide_kernel_covers())
@example(  # 3000 positions j·7/15000
    DumbbellCover(DumbbellCurve(Fraction(7, 15000), Fraction(7, 7500), 1), (1, 2), (3000, 3000))
)
def test_pullback_kernel_matches_divisor_loop_on_wide_kernels(cover):
    kernel = pullback_kernel(cover)
    # stored as a Matrix entry is: an int exactly when it is integral
    assert all(
        type(divisor.position) is (int if divisor.position.denominator == 1 else Fraction)
        for divisor in kernel
    )
    assert [(divisor.position, divisor.order) for divisor in kernel] == divisor_pullback_kernel(cover)


# every public function that takes a circle cover, with its other arguments;
# factor_pushforward takes two, and each is tried as the non-cover
_COVER_FUNCTIONS = {
    "pushforward_morphism": cover_analysis.pushforward_morphism,
    "pullback_morphism": cover_analysis.pullback_morphism,
    "kernel_length": cover_analysis.kernel_length,
    "quotient_and_gamma": cover_analysis.quotient_and_gamma,
    "component_count": cover_analysis.component_count,
    "pullback_kernel_group": cover_analysis.pullback_kernel_group,
    "pullback_kernel": cover_analysis.pullback_kernel,
    "q_gamma_profile": lambda cover: cover_analysis.q_gamma_profile(cover, 0),
    "is_optimal": cover_analysis.is_optimal,
    "factor_pushforward-first": lambda cover: cover_analysis.factor_pushforward(
        cover, degree_two_cover()
    ),
    "factor_pushforward-second": lambda cover: cover_analysis.factor_pushforward(
        degree_two_cover(), cover
    ),
    "validate_cover": curves_covers.validate_cover,
    "require_valid": curves_covers.require_valid,
    "harmonic_form": curves_covers.harmonic_form,
    "cover_degree": curves_covers.cover_degree,
    "target_length": curves_covers.target_length,
    "ramification_index": lambda cover: curves_covers.ramification_index(cover, "P0"),
    "strong_optimality_gap": split_jacobian.strong_optimality_gap,
    "complementary_cover": split_jacobian.complementary_cover,
    "splitting_isogeny": split_jacobian.splitting_isogeny,
    "complementary_pushforward": split_jacobian.complementary_pushforward,
    "verify_split_package": split_jacobian.verify_split_package,
    "optimal_factor": split_jacobian.optimal_factor,
}


def test_the_cover_function_table_is_complete():
    # validate_general_cover takes a GeneralCircleCover alone, whose walk
    # data it checks for the cover's constructor; its refusals are tested
    # below on their own
    names = {
        name
        for module in (cover_analysis, curves_covers, split_jacobian)
        for name, function in vars(module).items()
        if inspect.isfunction(function)
        and function.__module__ == module.__name__
        and not name.startswith("_")
        and {"cover", "first"} & set(inspect.signature(function).parameters)
    }
    assert names - {"validate_general_cover"} == {name.split("-")[0] for name in _COVER_FUNCTIONS}


@pytest.mark.parametrize("argument", [None, ThetaCurve(1, 1, 1)], ids=["none", "curve"])
@pytest.mark.parametrize("function", list(_COVER_FUNCTIONS.values()), ids=list(_COVER_FUNCTIONS))
def test_cover_functions_refuse_a_non_cover(function, argument):
    with pytest.raises(ValueError, match="^validate_cover expects a circle cover$"):
        function(argument)


@pytest.mark.parametrize(
    "argument",
    [None, degree_two_cover(), ThetaCurve(1, 1, 1)],
    ids=["none", "theta-cover", "curve"],
)
def test_validate_general_cover_refuses_any_other_argument(argument):
    with pytest.raises(ValueError, match="^validate_general_cover expects a GeneralCircleCover$"):
        curves_covers.validate_general_cover(argument)
