"""Tests for polarizations, exact sequences, points, and quotients."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tropjac.split_jacobian as split_jacobian
import tropjac.tav as tav
from oracles import (
    basis_exact,
    closure_subgroup_generated,
    degree_two_pullback,
    degree_two_pushforward,
    inverse_hnf_kernel_numerators,
    matrix_isogeny_kernel_points,
    random_covolume_preserving_isogeny,
    random_subtorus_sequence,
    random_unimodular,
    smith_dual_polarization,
    splitting_phi,
    theta_jacobian,
)
from tropjac.cover_analysis import pullback_kernel
from tropjac.curves_covers import DumbbellCover, DumbbellCurve
from tropjac.errors import (
    KernelTooLarge,
    NotExact,
    NotFinite,
    NotInjective,
    NotIsogeny,
    NotSurjective,
    NotTorsion,
    ShapeMismatch,
)
from tropjac.exact_lattice import Matrix, column_hnf, quotient_group
from tropjac.split_jacobian import splitting_isogeny
from tropjac.tav import (
    MAX_LISTED_POINTS,
    ExactSequence,
    KernelGroup,
    PolarizedVariety,
    Polarization,
    check_exact_sequence,
    dual_polarization,
    dualize_sequence,
    is_polarized_isogeny,
    isogeny_kernel_group,
    isogeny_kernel_numerators,
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
    compose,
    dual,
    identity_morphism,
    image,
    kernel0,
    kernel_component_count,
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
    # (a_1 * a_n) * zeta^-1 is the Smith-adapted diag(a_1*a_n/a_i) moved back
    assert dual_pol.zeta == smith_dual_polarization(zeta)


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


def test_check_exact_sequence_fails_when_g_is_not_onto():
    # the zero map kills the whole image of the identity, but is not onto
    jac = theta_jacobian()
    assert not check_exact_sequence(identity_morphism(jac), zero_morphism(jac, circle(3)))


def test_check_exact_sequence_fails_when_f_is_not_injective():
    # f through the projection of K x C(1) onto K, K the kernel circle: its
    # image is still the kernel of push, but f kills the second factor
    inclusion = kernel_inclusion_of_pushforward()
    source = IntegralTorus(2, Matrix.diagonal([inclusion.source.pairing[0, 0], 1]))
    padded = TorusMorphism(
        source,
        inclusion.target,
        Matrix([list(inclusion.f_sharp.row_tuple(0)), [0, 0]]),
        Matrix([[x, 0] for x in inclusion.f_hash.column_tuple(0)]),
    )
    assert column_hnf(padded.f_hash) == column_hnf(inclusion.f_hash)
    assert not check_exact_sequence(padded, degree_two_pushforward())


def test_check_exact_sequence_fails_when_the_image_is_not_saturated():
    # twice the inclusion of the kernel circle is finite, not injective (it
    # kills the 2-torsion); its image has index 2 in the kernel of push
    inclusion = kernel_inclusion_of_pushforward()
    doubled = TorusMorphism(
        inclusion.source, inclusion.target, 2 * inclusion.f_sharp, 2 * inclusion.f_hash
    )
    assert classify(doubled).injective is False and classify(doubled).finite
    assert not check_exact_sequence(doubled, degree_two_pushforward())


def test_check_exact_sequence_requires_composable():
    push = degree_two_pushforward()
    pytest.raises(ShapeMismatch, lambda: check_exact_sequence(push, push))
    pytest.raises(ShapeMismatch, lambda: ExactSequence(push, push))


SEQUENCE_KINDS = ["exact", "non-injective", "non-saturated", "not-onto", "nonzero-composite", "random"]


@st.composite
def composable_pairs(draw, kind):
    """A composable pair (f, g) of tori of ranks 0-4, of the given kind.

    Every kind but "random" starts from a unimodular U on the middle
    lattice: f.f_hash is its first n_f columns and g.f_hash the last n_g
    rows of U^-1, an exact pair, which the kind then breaks in one way
    only.  The source pairing is I, the middle one an integer D, and the
    target one |det D|·I, so f.f_sharp^T = D·f.f_hash and
    g.f_sharp^T = |det D|·g.f_hash·D^-1 are integral.
    """

    def entries(lo, hi, m, n):
        rows = st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=m, max_size=m)
        return Matrix(draw(rows), ncols=n)

    if kind == "random":
        n_f, m, n_g = (draw(st.integers(0, 4)) for _ in range(3))
        f_hash, g_hash = entries(-2, 2, m, n_f), entries(-2, 2, n_g, m)
    else:
        m = draw(st.integers({"exact": 0, "nonzero-composite": 2}.get(kind, 1), 4))
        low_f = 1 if kind in ("non-injective", "non-saturated", "nonzero-composite") else 0
        high_f = m - 1 if kind in ("not-onto", "nonzero-composite") else m
        n_f = draw(st.integers(low_f, high_f))
        n_g = m - n_f
        u = random_unimodular(draw(st.randoms(use_true_random=False)), m)
        u_inv = u.inv()
        f_hash = u.submatrix(range(m), range(n_f))
        g_hash = u_inv.submatrix(range(n_f, m), range(m))
        if kind in ("non-injective", "non-saturated"):
            # f_hash * T for an upper-triangular T, singular for a
            # non-injective f and else with a pivot of 2 to 4
            t = [list(row) for row in entries(-2, 2, n_f, n_f).entries()]
            for i in range(n_f):
                t[i][:i] = [0] * i
                t[i][i] = draw(st.integers(1, 4))
            if kind == "non-injective":
                t[-1][-1] = 0
            else:
                i = draw(st.integers(0, n_f - 1))
                t[i][i] = draw(st.integers(2, 4))
            f_hash = f_hash * Matrix(t)
        elif kind == "not-onto":
            # T * g_hash for a lower-triangular T whose determinant is not
            # +-1: g is not onto, or onto with a disconnected kernel
            t = [list(row) for row in entries(-2, 2, n_g, n_g).entries()]
            for i in range(n_g):
                t[i][i + 1:] = [0] * (n_g - i - 1)
            i = draw(st.integers(0, n_g - 1))
            t[i][i] = draw(st.sampled_from([0, 2, 3, 4]))
            g_hash = Matrix(t) * g_hash
        elif kind == "nonzero-composite":
            # add rows of U^-1 that pair to the identity with f_hash
            c = [list(row) for row in entries(-2, 2, n_g, n_f).entries()]
            c[0][0] = draw(st.sampled_from([-2, -1, 1, 2]))
            g_hash = g_hash + Matrix(c) * u_inv.submatrix(range(n_f), range(m))
    d = entries(-3, 3, m, m)
    assume(d.det() != 0)
    scale = abs(d.det())
    mid = IntegralTorus(m, d)
    f = TorusMorphism(IntegralTorus(n_f, Matrix.identity(n_f)), mid, (d * f_hash).transpose(), f_hash)
    target = IntegralTorus(n_g, scale * Matrix.identity(n_g))
    g = TorusMorphism(mid, target, (scale * g_hash * d.inv()).transpose(), g_hash)
    return f, g


@pytest.mark.parametrize("kind", SEQUENCE_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exactness_agrees_with_the_lattice_basis_check(kind, data):
    f, g = data.draw(composable_pairs(kind))
    exact = check_exact_sequence(f, g)
    assert exact == basis_exact(f, g)
    if kind == "random":
        return
    assert exact == (kind == "exact")
    # each kind breaks exactly the one condition it names
    composite_is_zero = (g.f_hash * f.f_hash).is_zero()
    assert composite_is_zero == (kind != "nonzero-composite")
    assert classify(f).injective == (kind not in ("non-injective", "non-saturated"))
    assert classify(f).finite == (kind != "non-injective")
    onto_connected = classify(g).surjective and kernel_component_count(g) == 1
    assert onto_connected == (kind != "not-onto")


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
    pytest.raises(NotTorsion, lambda: reduce_point(circle(3), [True]))
    pytest.raises(NotTorsion, lambda: reduce_point(circle(3), ["1e10000000"]))


def test_subgroup_generated():
    pts = subgroup_generated(circle(3), [[Fraction(3, 2)]])
    assert [p.column_tuple(0) for p in pts] == [(0,), (Fraction(3, 2),)]
    pts = subgroup_generated(product_torus(), [[Fraction(1, 2), Fraction(3, 2)]])
    assert [p.column_tuple(0) for p in pts] == [
        (0, 0),
        (Fraction(1, 2), Fraction(3, 2)),
    ]


@st.composite
def subgroup_problems(draw):
    """A torus of rank 0 to 4 and 0 to 3 rational points on it, drawn in
    pairing coordinates with denominators dividing 12 and mapped through
    the pairing; some are zero and some repeat an earlier one.  Everything
    comes from one drawn seed, so that the ranks are drawn evenly."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    rank = rng.randint(0, 4)
    lengths = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(rank)]
    pairing = random_unimodular(rng, rank) * Matrix.diagonal(lengths) if rank else Matrix([], ncols=0)
    gens = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["point", "point", "zero", "repeat"] if gens else ["point", "point", "zero"])
        if kind == "repeat":
            gens.append(rng.choice(gens))
        else:
            c = [
                Fraction(rng.randint(-11, 11), rng.choice([1, 2, 3, 4, 6, 12])) if kind == "point" else 0
                for _ in range(rank)
            ]
            gens.append(list((pairing * Matrix.column(c)).column_tuple(0)))
    return IntegralTorus(rank, pairing), gens


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subgroup_problems())
def test_subgroup_generated_matches_the_coset_closure(problem):
    torus, gens = problem
    points = subgroup_generated(torus, gens)
    assert points == closure_subgroup_generated(torus, gens)
    assert _stored_as_entries(points)


def _stored_as_entries(points):
    # == cannot tell Fraction(1) from 1, so read the types: a listed
    # coordinate is stored as a Matrix entry is, an int when integral and
    # a Fraction with denominator > 1 otherwise
    return all(
        type(x) is int or (type(x) is Fraction and x.denominator > 1)
        for point in points
        for (x,) in point.entries()
    )


def test_listed_coordinates_are_stored_as_matrix_entries():
    # circle(3) with 1 and 1/2: the six points j/2, with 1 and 2 among them
    points = subgroup_generated(circle(3), [[1], [Fraction(1, 2)]])
    assert [p.column_tuple(0) for p in points] == [(Fraction(j, 2),) for j in range(6)]
    jac = theta_jacobian()
    doubling = TorusMorphism(jac, jac, 2 * Matrix.identity(2), 2 * Matrix.identity(2))
    _, ladder = splitting_isogeny(
        DumbbellCover(DumbbellCurve(Fraction(1, 50), Fraction(1, 51), 1), (1, 1), (50, 51))
    )
    doubled = isogeny_kernel_points(doubling)
    # the doubling's kernel too holds an integral coordinate other than 0
    assert (1, Fraction(1, 2)) in [p.column_tuple(0) for p in doubled]
    for points in (points, doubled, ladder):
        assert _stored_as_entries(points)
        # a listed column is the Matrix that reading its entries builds
        for p in points:
            rebuilt = Matrix.column(p.column_tuple(0))
            assert p.shape == rebuilt.shape and p == rebuilt and hash(p) == hash(rebuilt)


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


def test_subgroup_generated_inverts_the_pairing_once(monkeypatch):
    jac = theta_jacobian()
    inverted = []
    inv = Matrix.inv
    monkeypatch.setattr(Matrix, "inv", lambda m: inverted.append(m) or inv(m))
    pts = subgroup_generated(jac, [[Fraction(1, 12), 0], [0, Fraction(1, 12)]])
    monkeypatch.undo()
    assert len(pts) == 432
    assert len(inverted) == 1
    assert all(reduce_point(jac, p) == p for p in pts)


def test_isogeny_kernel_points_requires_isogeny():
    push = degree_two_pushforward()
    jac = theta_jacobian()
    for m in (
        push,  # a 1 x 2 f_hash
        zero_morphism(jac, jac),  # a square f_hash that is zero
        compose(degree_two_pullback(), push),  # a square f_hash of rank 1
    ):
        for listing in (isogeny_kernel_points, isogeny_kernel_numerators, isogeny_kernel_group):
            with pytest.raises(NotIsogeny, match="requires an isogeny"):
                listing(m)
        with pytest.raises(NotIsogeny):
            inverse_hnf_kernel_numerators(m)


@st.composite
def isogenies(draw):
    """u2 . diag(factors) . u1 of rank 0 to 4, as the torus_rank benchmark
    builds them."""
    rank = draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_covolume_preserving_isogeny(rng, rank, rank)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(isogenies())
def test_isogeny_kernel_points_match_the_matrix_listing(iso):
    points = isogeny_kernel_points(iso)
    assert points == matrix_isogeny_kernel_points(iso)
    assert _stored_as_entries(points)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(2, 250))
@example(250)  # degree 501
def test_splitting_kernels_match_the_matrix_listing_up_to_degree_501(k):
    cover = DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1))
    phi, points = splitting_isogeny(cover)
    assert len(points) == 2 * k + 1
    assert points == matrix_isogeny_kernel_points(phi)


@st.composite
def dilated_isogenies(draw):
    """u2 . diag(factors) . u1 of rank 0 to 6, with changes of basis by
    oracles.random_unimodular, and kernels of at most 2000 points."""
    factors, size = [], 1
    for _ in range(draw(st.integers(0, 6))):
        factors.append(draw(st.integers(1, max(1, min(12, 2000 // size)))))
        size *= factors[-1]
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_covolume_preserving_isogeny(rng, factors=factors)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dilated_isogenies())
def test_isogeny_kernel_numerators_match_the_inverse_hnf_listing(iso):
    listed, expected = isogeny_kernel_numerators(iso), inverse_hnf_kernel_numerators(iso)
    assert listed.denominator == expected.denominator
    assert listed.numerators == expected.numerators


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dilated_isogenies())
def test_isogeny_kernel_group_generates_the_listed_kernel(iso):
    # the factors are those of the Smith form of f_hash; generator i is a
    # canonical source point of order exactly factor i, and the generators
    # generate the kernel that isogeny_kernel_points lists
    group = isogeny_kernel_group(iso)
    assert type(group) is KernelGroup
    assert group.factors == quotient_group(iso.f_hash)[0]
    assert len(group.generators) == iso.source.rank
    for generator, factor in zip(group.generators, group.factors):
        assert generator.shape == (iso.source.rank, 1)
        assert reduce_point(iso.source, generator) == generator
        assert point_order(iso.source, generator) == factor
    assert subgroup_generated(iso.source, group.generators) == isogeny_kernel_points(iso)


def test_isogeny_kernel_group_of_splittings_lists_nothing(monkeypatch):
    # the kernel of a splitting isogeny is cyclic of the cover's degree:
    # the group is read off one Smith form with no point listed, so the
    # degree-(10^12 + 1) ladder is answered, far above the listing bound
    for k, degree in ((1, 3), (45, 91), (5 * 10**11, 10**12 + 1)):
        cover = DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1))
        phi = _splitting_phi_of(cover)
        for name in ("_box_points", "_listed_points", "_require_listable"):
            monkeypatch.setattr(tav, name, _refuse)
        group = isogeny_kernel_group(phi)
        monkeypatch.undo()
        assert group.factors == (1, degree)
        zero = Matrix.zeros(2, 1)
        assert group.generators[0] == zero and point_order(phi.source, group.generators[1]) == degree
        if degree < MAX_LISTED_POINTS:
            assert subgroup_generated(phi.source, group.generators[1:]) == isogeny_kernel_points(phi)


def _refuse(*args):
    raise AssertionError("a kernel point was listed")


def _splitting_phi_of(cover):
    """phi of a strongly optimal cover of any degree: _splitting with its
    listing bound lifted, which keeps the kernel unlisted."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(split_jacobian, "_require_listable", lambda count, what: None)
        return split_jacobian._splitting(cover)[0]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(2, 1000))
@example(1000)  # degree 2001
def test_splitting_kernels_match_the_inverse_hnf_listing_up_to_degree_2001(k):
    cover = DumbbellCover(DumbbellCurve(Fraction(1, k), Fraction(1, k + 1), 1), (1, 1), (k, k + 1))
    phi, _ = splitting_isogeny(cover)
    listed, expected = isogeny_kernel_numerators(phi), inverse_hnf_kernel_numerators(phi)
    assert len(listed.numerators) == 2 * k + 1
    assert listed.denominator == expected.denominator
    assert listed.numerators == expected.numerators


def test_kernel_listings_are_refused_above_the_bound(monkeypatch):
    jac = theta_jacobian()
    # 1001^2 points: refused before any is listed
    scaled = 1001 * Matrix.identity(2)
    with pytest.raises(KernelTooLarge) as raised:
        isogeny_kernel_points(TorusMorphism(jac, jac, scaled, scaled))
    assert raised.value.code == "KERNEL_TOO_LARGE"
    assert str(MAX_LISTED_POINTS) in str(raised.value)
    # the bound itself is listed, one point more is not
    monkeypatch.setattr(tav, "MAX_LISTED_POINTS", 4)
    doubling = 2 * Matrix.identity(2)
    assert len(isogeny_kernel_points(TorusMorphism(jac, jac, doubling, doubling))) == 4
    tripling = 3 * Matrix.identity(1)
    assert len(isogeny_kernel_points(TorusMorphism(circle(1), circle(1), tripling, tripling))) == 3
    scaled = 5 * Matrix.identity(1)
    with pytest.raises(KernelTooLarge):
        isogeny_kernel_points(TorusMorphism(circle(1), circle(1), scaled, scaled))
    # so is a generated subgroup: 4 points of order 4, not the 5 of order 5
    assert len(subgroup_generated(circle(1), [[Fraction(1, 4)]])) == 4
    with pytest.raises(KernelTooLarge):
        subgroup_generated(circle(1), [[Fraction(1, 5)]])
    # the pullback kernel of the (g, g) dumbbell has g points
    curve = DumbbellCurve(1, 1, 1)
    assert len(pullback_kernel(DumbbellCover(curve, (1, 1), (4, 4)))) == 4
    with pytest.raises(KernelTooLarge):
        pullback_kernel(DumbbellCover(curve, (1, 1), (5, 5)))


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
