"""Tests for polarizations, exact sequences, points, and quotients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    degree_two_pullback,
    degree_two_pushforward,
    random_subtorus_sequence,
    splitting_phi,
    theta_jacobian,
)
from tropjac.errors import (
    NotExact,
    NotFinite,
    NotInjective,
    NotIsogeny,
    NotSurjective,
    NotTorsion,
    ShapeMismatch,
)
from tropjac.exact_lattice import Matrix, column_hnf
from tropjac.tav import (
    ExactSequence,
    PolarizedVariety,
    Polarization,
    check_exact_sequence,
    dual_polarization,
    dualize_sequence,
    is_polarized_isogeny,
    isogeny_kernel_points,
    point_order,
    polarization_type,
    principal_polarization,
    pullback_polarization,
    pushforward_polarization,
    quotient_by_finite_subgroup,
    quotient_by_subvariety,
    reduce_point,
    subgroup_generated,
)
from tropjac.torus_category import (
    IntegralTorus,
    TorusMorphism,
    circle,
    classify,
    dual,
    identity_morphism,
    image,
    kernel0,
    zero_morphism,
    zero_torus,
)


def product_torus():
    return IntegralTorus(2, Matrix.diagonal([1, 3]))


def test_polarized_variety_accepts_principal_on_jacobian():
    pv = PolarizedVariety(theta_jacobian(), principal_polarization(theta_jacobian()))
    assert polarization_type(pv) == (1, 1)


def test_polarization_must_be_integral_and_square():
    pytest.raises(ValueError, lambda: Polarization(Matrix([[Fraction(1, 2)]])))
    pytest.raises(ValueError, lambda: Polarization(Matrix([[1, 0]])))


def test_polarized_variety_rejects_invalid_forms():
    # [[0,1],[1,0]] against diag(1,3) gives a non-symmetric form
    pytest.raises(
        ValueError,
        lambda: PolarizedVariety(product_torus(), Polarization(Matrix([[0, 1], [1, 0]]))),
    )
    # -I is symmetric but negative definite
    pytest.raises(
        ValueError,
        lambda: PolarizedVariety(circle(3), Polarization(Matrix([[-1]]))),
    )
    # shape mismatch with the torus rank
    pytest.raises(
        ValueError,
        lambda: PolarizedVariety(circle(3), Polarization(Matrix.identity(2))),
    )


def test_polarization_types():
    jac = theta_jacobian()
    assert polarization_type(PolarizedVariety(jac, Polarization(2 * Matrix.identity(2)))) == (2, 2)
    assert polarization_type(
        PolarizedVariety(product_torus(), Polarization(Matrix.diagonal([1, 3])))
    ) == (1, 3)


def test_dual_polarization_examples():
    jac = theta_jacobian()
    principal = PolarizedVariety(jac, principal_polarization(jac))
    assert dual_polarization(principal).zeta == Matrix.identity(2)

    split = PolarizedVariety(product_torus(), Polarization(Matrix.diagonal([1, 3])))
    assert dual_polarization(split).zeta == Matrix.diagonal([3, 1])

    on_circle = PolarizedVariety(circle(5), Polarization(Matrix([[4]])))
    assert dual_polarization(on_circle).zeta == Matrix([[4]])


def test_dual_polarization_is_valid_and_involutive():
    for pv in (
        PolarizedVariety(theta_jacobian(), principal_polarization(theta_jacobian())),
        PolarizedVariety(product_torus(), Polarization(Matrix.diagonal([1, 3]))),
        PolarizedVariety(circle(5), Polarization(Matrix([[4]]))),
    ):
        dual_pv = PolarizedVariety(dual(pv.torus), dual_polarization(pv))
        assert dual_polarization(dual_pv).zeta == pv.pol.zeta


def test_dual_polarization_of_rank_zero():
    pv = PolarizedVariety(zero_torus(), Polarization(Matrix([], ncols=0)))
    assert dual_polarization(pv).zeta.shape == (0, 0)


@settings(max_examples=60)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_dual_polarization_properties_on_standard_torus(rows):
    n = len(rows)
    a = Matrix(rows)
    zeta = a.transpose() * a + Matrix.identity(n)
    torus = IntegralTorus(n, Matrix.identity(n))
    pv = PolarizedVariety(torus, Polarization(zeta))
    dual_pol = dual_polarization(pv)
    dual_pv = PolarizedVariety(dual(torus), dual_pol)
    # same multiset of invariant factors, and double dual returns the original
    assert sorted(polarization_type(dual_pv)) == sorted(polarization_type(pv))
    assert dual_polarization(dual_pv).zeta == zeta


def test_pullback_along_identity_is_unchanged():
    jac = theta_jacobian()
    pol = principal_polarization(jac)
    assert pullback_polarization(identity_morphism(jac), pol).zeta == pol.zeta


def test_pullback_along_splitting_isogeny_doubles_principal():
    phi = splitting_phi()
    pulled = pullback_polarization(phi, principal_polarization(theta_jacobian()))
    assert pulled.zeta == 2 * Matrix.identity(2)
    # valid on the product side
    PolarizedVariety(phi.source, pulled)


def test_pullback_along_multiplication_by_two_on_circle():
    c = circle(3)
    doubling = TorusMorphism(c, c, Matrix([[2]]), Matrix([[2]]))
    assert pullback_polarization(doubling, Polarization(Matrix([[1]]))).zeta == Matrix([[4]])


def test_pullback_requires_finite():
    pytest.raises(
        NotFinite,
        lambda: pullback_polarization(degree_two_pushforward(), Polarization(Matrix([[1]]))),
    )


@settings(max_examples=40)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
        )
    )
)
def test_pullback_validity_and_polarized_isogeny_property(data):
    sharp_rows, a_rows, diag = data
    n = len(diag)
    f_sharp = Matrix(sharp_rows)
    if f_sharp.det() == 0:
        return
    source = IntegralTorus(n, Matrix.diagonal(diag))
    target = IntegralTorus(n, Matrix.identity(n))
    m = TorusMorphism(source, target, f_sharp, f_sharp.transpose() * source.pairing)
    a = Matrix(a_rows)
    zeta_tgt = a.transpose() * a + Matrix.identity(n)
    pulled = pullback_polarization(m, Polarization(zeta_tgt))
    PolarizedVariety(source, pulled)  # SPD holds
    if classify(m).isogeny:
        assert is_polarized_isogeny(m, pulled, Polarization(zeta_tgt))


def free_isogeny_to_half_circle():
    half = IntegralTorus(1, Matrix([[Fraction(3, 2)]]))
    return TorusMorphism(circle(3), half, Matrix([[1]]), Matrix([[2]]))


def test_pushforward_along_free_isogeny_and_round_trip():
    q = free_isogeny_to_half_circle()
    pushed = pushforward_polarization(q, Polarization(Matrix([[1]])))
    assert pushed.zeta == Matrix([[2]])
    # pulling back again multiplies by the squared geometric degree
    assert pullback_polarization(q, pushed).zeta == Matrix([[4]])


def test_pushforward_along_quotient_projection():
    pushed = pushforward_polarization(degree_two_pushforward(), principal_polarization(theta_jacobian()))
    assert pushed.zeta == Matrix([[2]])


def test_pushforward_requires_surjective():
    pytest.raises(
        NotSurjective,
        lambda: pushforward_polarization(degree_two_pullback(), Polarization(Matrix([[1]]))),
    )


def test_is_polarized_isogeny_cases():
    phi = splitting_phi()
    product = phi.source
    assert not is_polarized_isogeny(
        phi, principal_polarization(product), principal_polarization(theta_jacobian())
    )
    q = free_isogeny_to_half_circle()
    assert is_polarized_isogeny(
        q, Polarization(Matrix([[2]])), Polarization(Matrix([[1]]))
    )
    pytest.raises(
        NotIsogeny,
        lambda: is_polarized_isogeny(
            degree_two_pushforward(), Polarization(Matrix.identity(2)), Polarization(Matrix([[1]]))
        ),
    )


def kernel_inclusion_of_pushforward():
    _, inclusion = kernel0(degree_two_pushforward())
    return inclusion


def test_check_exact_sequence_pushforward_instance():
    inclusion = kernel_inclusion_of_pushforward()
    push = degree_two_pushforward()
    assert check_exact_sequence(inclusion, push)
    # rank additivity across the verified sequence
    assert inclusion.source.rank + push.target.rank == push.source.rank


def test_check_exact_sequence_fails_on_disconnected_kernel():
    inclusion = kernel_inclusion_of_pushforward()
    doubled = TorusMorphism(
        theta_jacobian(), circle(3), Matrix([[4], [-2]]), Matrix([[2, 0]])
    )
    assert not check_exact_sequence(inclusion, doubled)


def test_check_exact_sequence_fails_when_composite_is_nonzero():
    inclusion = kernel_inclusion_of_pushforward()
    # project onto the quotient by the image of the pull-back
    projection = TorusMorphism(
        theta_jacobian(), circle(1), Matrix([[0], [1]]), Matrix([[1, 2]])
    )
    assert not check_exact_sequence(inclusion, projection)


def test_check_exact_sequence_requires_composable():
    push = degree_two_pushforward()
    pytest.raises(ShapeMismatch, lambda: check_exact_sequence(push, push))
    pytest.raises(ShapeMismatch, lambda: ExactSequence(push, push))


def test_dualize_sequence_gives_pullback_sequence():
    seq = ExactSequence(kernel_inclusion_of_pushforward(), degree_two_pushforward())
    dual_seq = dualize_sequence(seq)
    # the dual of the push-forward is the pull-back (self-dual pairings here)
    assert dual_seq.f.f_sharp == degree_two_pullback().f_sharp
    assert dual_seq.f.f_hash == degree_two_pullback().f_hash
    assert check_exact_sequence(dual_seq.f, dual_seq.g)
    # and dualizing twice restores the original sequence
    double = dualize_sequence(dual_seq)
    assert double == seq


def test_dualize_sequence_requires_exact():
    inclusion = kernel_inclusion_of_pushforward()
    doubled = TorusMorphism(
        theta_jacobian(), circle(3), Matrix([[4], [-2]]), Matrix([[2, 0]])
    )
    seq = ExactSequence(inclusion, doubled)
    pytest.raises(NotExact, lambda: dualize_sequence(seq))


def test_random_subtorus_sequences_are_exact_and_dualize():
    rng = random.Random(15731)
    for _ in range(30):
        inclusion, projection = random_subtorus_sequence(rng)
        assert check_exact_sequence(inclusion, projection)
        dual_seq = dualize_sequence(ExactSequence(inclusion, projection))
        assert check_exact_sequence(dual_seq.f, dual_seq.g)


def test_reduce_point_and_order_on_circle():
    c = circle(3)
    assert reduce_point(c, [Fraction(7, 2)]) == Matrix.column([Fraction(1, 2)])
    assert point_order(c, [Fraction(1, 2)]) == 6
    assert point_order(c, [Fraction(3, 2)]) == 2
    assert point_order(c, [0]) == 1
    assert point_order(c, [3]) == 1


def test_point_order_on_product():
    assert point_order(product_torus(), [Fraction(1, 2), Fraction(3, 2)]) == 2


def test_points_reject_floats():
    pytest.raises(NotTorsion, lambda: reduce_point(circle(3), [0.5]))


def test_subgroup_generated():
    pts = subgroup_generated(circle(3), [[Fraction(3, 2)]])
    assert [p.column_tuple(0) for p in pts] == [(0,), (Fraction(3, 2),)]
    pts = subgroup_generated(product_torus(), [[Fraction(1, 2), Fraction(3, 2)]])
    assert [p.column_tuple(0) for p in pts] == [
        (0, 0),
        (Fraction(1, 2), Fraction(3, 2)),
    ]


def test_isogeny_kernel_points_of_splitting():
    pts = isogeny_kernel_points(splitting_phi())
    assert [p.column_tuple(0) for p in pts] == [
        (0, 0),
        (Fraction(1, 2), Fraction(3, 2)),
    ]


def test_isogeny_kernel_points_of_free_isogeny_and_doubling():
    pts = isogeny_kernel_points(free_isogeny_to_half_circle())
    assert [p.column_tuple(0) for p in pts] == [(0,), (Fraction(3, 2),)]

    jac = theta_jacobian()
    doubling = TorusMorphism(jac, jac, 2 * Matrix.identity(2), 2 * Matrix.identity(2))
    pts = isogeny_kernel_points(doubling)
    assert len(pts) == 4
    assert (Fraction(3, 2), Fraction(3, 2)) in {p.column_tuple(0) for p in pts}


def test_isogeny_kernel_points_invert_the_pairing_once(monkeypatch):
    jac = theta_jacobian()
    inverted = []
    inv = Matrix.inv
    monkeypatch.setattr(Matrix, "inv", lambda m: inverted.append(m) or inv(m))
    counts = []
    for factor in (2, 12):
        scaled = factor * Matrix.identity(2)
        pts = isogeny_kernel_points(TorusMorphism(jac, jac, scaled, scaled))
        assert len(pts) == factor**2
        counts.append(len(inverted))
        inverted.clear()
    monkeypatch.undo()
    # 4 and 144 kernel points cost the same inversions
    assert counts[0] == counts[1]
    assert all(reduce_point(jac, p) == p for p in pts)


def test_isogeny_kernel_points_requires_isogeny():
    pytest.raises(NotIsogeny, lambda: isogeny_kernel_points(degree_two_pushforward()))


def test_quotient_by_finite_subgroup_on_circle():
    pv = PolarizedVariety(circle(3), Polarization(Matrix([[1]])))
    quotient, iso = quotient_by_finite_subgroup(pv, [[Fraction(3, 2)]])
    assert quotient.torus.pairing == Matrix([[Fraction(3, 2)]])
    assert iso.f_sharp == Matrix.identity(1)  # free
    assert iso.f_hash == Matrix([[2]])
    assert quotient.pol.zeta == Matrix([[2]])
    kernel = isogeny_kernel_points(iso)
    assert [p.column_tuple(0) for p in kernel] == [(0,), (Fraction(3, 2),)]


def test_quotient_by_trivial_subgroup_is_identity():
    pv = PolarizedVariety(theta_jacobian(), principal_polarization(theta_jacobian()))
    quotient, iso = quotient_by_finite_subgroup(pv, [])
    assert quotient == pv
    assert iso == identity_morphism(pv.torus)
    # generators that reduce to zero also give the identity
    quotient, iso = quotient_by_finite_subgroup(pv, [[2, 1]])
    assert quotient == pv
    assert iso == identity_morphism(pv.torus)


def test_quotient_of_product_by_splitting_kernel_transports_to_jacobian():
    product = splitting_phi().source
    pv = PolarizedVariety(product, Polarization(Matrix.diagonal([1, 3])))
    quotient, iso = quotient_by_finite_subgroup(pv, [[Fraction(1, 2), Fraction(3, 2)]])
    assert quotient.torus.pairing == Matrix(
        [[Fraction(1, 2), 0], [Fraction(3, 2), 3]]
    )
    # degree two, with kernel exactly the generated subgroup
    kernel = isogeny_kernel_points(iso)
    assert [p.column_tuple(0) for p in kernel] == [
        (0, 0),
        (Fraction(1, 2), Fraction(3, 2)),
    ]
    # the splitting's universal cover carries the new periods onto the
    # Jacobian's period lattice
    cover = splitting_phi().universal_cover_matrix
    assert column_hnf(cover * quotient.torus.pairing) == column_hnf(theta_jacobian().pairing)


def test_quotient_of_jacobian_by_order_six_point():
    pv = PolarizedVariety(theta_jacobian(), principal_polarization(theta_jacobian()))
    assert point_order(pv.torus, [Fraction(1, 2), Fraction(3, 2)]) == 6
    quotient, iso = quotient_by_finite_subgroup(pv, [[Fraction(1, 2), Fraction(3, 2)]])
    assert abs(quotient.torus.pairing.det()) == Fraction(1, 2)
    assert len(isogeny_kernel_points(iso)) == 6


def test_quotient_by_finite_subgroup_rejects_floats():
    pv = PolarizedVariety(circle(3), Polarization(Matrix([[1]])))
    pytest.raises(NotTorsion, lambda: quotient_by_finite_subgroup(pv, [[0.5]]))


def test_quotient_by_kernel_subvariety():
    pv = PolarizedVariety(theta_jacobian(), principal_polarization(theta_jacobian()))
    quotient, projection = quotient_by_subvariety(pv, kernel_inclusion_of_pushforward())
    assert quotient.torus == circle(3)
    assert quotient.pol.zeta == Matrix([[2]])
    assert projection.f_sharp == degree_two_pushforward().f_sharp
    assert projection.f_hash == degree_two_pushforward().f_hash


def test_quotient_by_image_of_pullback():
    pv = PolarizedVariety(theta_jacobian(), principal_polarization(theta_jacobian()))
    _, inclusion = image(degree_two_pullback())
    quotient, projection = quotient_by_subvariety(pv, inclusion)
    assert quotient.torus == circle(1)
    assert quotient.pol.zeta == Matrix([[2]])
    assert projection.universal_cover_matrix == Matrix([[0, 1]])


def test_quotient_by_rank_zero_subvariety_is_identity():
    pv = PolarizedVariety(theta_jacobian(), principal_polarization(theta_jacobian()))
    inclusion = zero_morphism(zero_torus(), pv.torus)
    quotient, projection = quotient_by_subvariety(pv, inclusion)
    assert quotient == pv
    assert projection == identity_morphism(pv.torus)


def test_quotient_by_subvariety_requires_injective():
    pv = PolarizedVariety(circle(3), Polarization(Matrix([[1]])))
    doubling = TorusMorphism(circle(3), circle(3), Matrix([[2]]), Matrix([[2]]))
    pytest.raises(NotInjective, lambda: quotient_by_subvariety(pv, doubling))
