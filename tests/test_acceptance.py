"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming the guarantee it
certifies, so a plain ``pytest -s tests/test_acceptance.py`` doubles as an
acceptance report.  Numeric comparisons are exact: every value here is a
``Fraction`` or an integer, and the expected values are either worked out by
hand or recomputed by the independent oracles in ``oracles.py``.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from oracles import (
    brute_force_lattice_index,
    cover_corpus,
    cover_key,
    degree_two_cover,
    random_covolume_preserving_isogeny,
    random_subtorus_sequence,
    walk_slope_kernel,
    xgcd_kernel_length,
)
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
    ThetaCover,
    ThetaCurve,
    cover_degree,
    jacobian,
)
from tropjac.exact_lattice import Matrix, integer_solve
from tropjac.split_jacobian import (
    complementary_cover,
    complementary_pushforward,
    verify_split_package,
)
from tropjac.tav import (
    ExactSequence,
    Polarization,
    check_exact_sequence,
    dualize_sequence,
    pullback_polarization,
)
from tropjac.torus_category import (
    TorusMorphism,
    circle,
    classify,
    compose,
    dual_morphism,
    kernel0,
    kernel_component_count,
    stein_factorization,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def strongly_optimal(cover):
    verdict = is_optimal(cover)
    return verdict.kernel_connected and quotient_and_gamma(cover).a_sharp == 1


def test_criterion_1_worked_degree_two_example():
    with criterion("degree-2 theta example: every derived object matches the hand computation"):
        curve = ThetaCurve(1, 1, 1)
        cover = ThetaCover(curve, (1, 1, 1), (2, 1, 1))
        assert curve.period_matrix() == Matrix([[2, 1], [1, 2]])

        push = pushforward_morphism(cover)
        assert push.universal_cover_matrix == Matrix([[2, -1]])
        assert push.target == circle(3)

        pull = pullback_morphism(cover)
        assert pull.universal_cover_matrix == Matrix([[1], [0]])

        te_prime, _ = kernel0(push)
        assert te_prime == circle(1)

        report = verify_split_package(cover)
        assert report.phi == Matrix([[1, 1], [2, 0]])
        assert report.phi_tilde == Matrix([[0, 1], [2, -1]])
        points = {(p[0, 0], p[1, 0]) for p in report.kernel_points}
        assert points == {(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))}
        assert report.phi_tilde * report.phi == 2 * Matrix.identity(2)
        assert report.all_flags_hold

        pulled = pullback_polarization(report.phi_morphism, Polarization(Matrix.identity(2)))
        assert pulled.zeta == 2 * Matrix.identity(2)

        comp = complementary_cover(cover)
        assert comp.dilations == (0, 1, 1)
        assert comp.degree == 2
        assert comp.target_length == 1


def test_criterion_2_kernel_length_formula_matches_categorical_kernel():
    with criterion("corpus >= 200 covers: pairing formula length == kernel0-extracted length"):
        corpus = cover_corpus()
        assert len(corpus) >= 200
        keys = {cover_key(c) for c in corpus}
        assert cover_key(degree_two_cover()) in keys
        for cover in corpus:
            length = xgcd_kernel_length(cover)
            assert kernel_length(cover) == length
            te_prime, _ = kernel0(pushforward_morphism(cover))
            assert te_prime.pairing == Matrix([[length]])


def test_criterion_3_component_count_against_brute_force():
    with criterion("component count == a_hash == brute-force lattice index, all corpus covers"):
        for cover in cover_corpus():
            gamma = quotient_and_gamma(cover)
            count = component_count(cover)
            assert count == gamma.a_hash
            f_hash = pushforward_morphism(cover).f_hash
            assert count == brute_force_lattice_index(f_hash[0, 0], f_hash[0, 1])


def test_criterion_4_component_duality_and_sequence_dualization():
    with criterion("covolume-preserving isogenies: c(f) == c(dual f); dualizing preserves exactness"):
        rng = random.Random(412)
        checked = 0
        while checked < 100:
            f = random_covolume_preserving_isogeny(rng)
            assert classify(f).isogeny
            assert kernel_component_count(f) == kernel_component_count(dual_morphism(f))
            checked += 1

        rng = random.Random(707)
        checked = 0
        while checked < 100:
            inclusion, projection = random_subtorus_sequence(rng)
            assert check_exact_sequence(inclusion, projection)
            dualized = dualize_sequence(ExactSequence(inclusion, projection))
            assert check_exact_sequence(dualized.f, dualized.g)
            checked += 1


def test_criterion_5_pullback_kernel_against_slope_oracle():
    with criterion("pullback kernel == independent walk-slope oracle, all corpus covers"):
        for cover in cover_corpus():
            degree = cover_degree(cover)
            divisors = pullback_kernel(cover)
            assert [(d.position, d.order) for d in divisors] == walk_slope_kernel(cover)
            for divisor in divisors:
                assert degree % divisor.order == 0


def test_criterion_6_stein_factorization_universal_property():
    with criterion("stein factorization: phi.pi == f, phi isogeny, pi connected, universal"):
        jac = jacobian(ThetaCurve(1, 1, 1)).torus
        # double of the example pushforward: surjective with disconnected kernel
        m = TorusMorphism(jac, circle(3), Matrix([[4], [-2]]), Matrix([[2, 0]]))
        stein = stein_factorization(m)
        assert compose(stein.phi, stein.pi) == m
        assert classify(stein.phi).isogeny
        assert kernel_component_count(stein.pi) == 1
        assert kernel_component_count(m) == 2

        # an independent factorization of m through a connected-kernel quotient
        pi_alt = TorusMorphism(jac, circle(6), Matrix([[4], [-2]]), Matrix([[1, 0]]))
        phi_alt = TorusMorphism(circle(6), circle(3), Matrix([[1]]), Matrix([[2]]))
        assert compose(phi_alt, pi_alt) == m
        assert kernel_component_count(pi_alt) == 1

        # it factors through the canonical one: theta solves both equations
        # and is bijective on points (though not integrally invertible --
        # here theta is the dilation-type isogeny ([2], [1]): C(3) -> C(6))
        sharp = integer_solve(stein.pi.f_sharp, pi_alt.f_sharp)
        hash_t = integer_solve(stein.pi.f_hash.transpose(), pi_alt.f_hash.transpose())
        assert sharp is not None and hash_t is not None
        theta = TorusMorphism(stein.middle, circle(6), sharp, hash_t.transpose())
        assert compose(theta, stein.pi) == pi_alt
        assert compose(phi_alt, theta) == stein.phi
        flags = classify(theta)
        assert flags.injective and flags.surjective and flags.isogeny
        assert kernel_component_count(theta) == 1

        # the same shape holds for every corpus pushforward
        for cover in cover_corpus()[:40]:
            push = pushforward_morphism(cover)
            part = stein_factorization(push)
            assert compose(part.phi, part.pi) == push
            assert classify(part.phi).isogeny
            assert kernel_component_count(part.pi) == 1


def test_criterion_7_splitting_package_for_every_optimal_cover():
    with criterion("every strongly optimal corpus cover satisfies the full splitting theorem"):
        optimal = [c for c in cover_corpus() if strongly_optimal(c)]
        assert len(optimal) >= 40
        for cover in optimal:
            degree = cover_degree(cover)
            report = verify_split_package(cover)
            assert report.all_flags_hold
            assert report.degree == degree
            assert len(report.kernel_points) == degree
            comp = complementary_cover(cover)
            assert comp.degree == degree
            comp_push = complementary_pushforward(cover)
            assert classify(comp_push).surjective
            assert kernel_component_count(comp_push) == 1


def test_criterion_8_optimality_notions_reported_separately():
    with criterion("dumbbell d=(2,2), n=(1,1): connectedness and gcd verdicts diverge, both reported"):
        cover = DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2))
        verdict = is_optimal(cover)
        assert verdict.kernel_connected is True
        assert verdict.dumbbell_gcd_free is False
        assert verdict.kernel_connected != verdict.dumbbell_gcd_free
        assert verdict.component_count == 1
        assert verdict.note is not None
        assert "diverge" in verdict.note
