import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from tropjac.errors import (
    CompatibilityViolation,
    NotInjective,
    NotSurjective,
    ShapeMismatch,
)
from oracles import (
    cover_corpus,
    minor_flags,
    random_covolume_preserving_isogeny,
    random_subtorus_sequence,
    random_unimodular,
    section_kernel_pairing,
)
from tropjac.cover_analysis import pushforward_morphism
from tropjac.exact_lattice import Matrix, invariant_factors
from tropjac.torus_category import (
    IntegralTorus,
    TorusMorphism,
    circle,
    classify,
    coequalizer,
    cokernel,
    compose,
    dual,
    dual_morphism,
    equalizer,
    identity_morphism,
    image,
    kernel0,
    kernel_component_count,
    product,
    quotient_by_subtorus,
    stein_factorization,
    zero_morphism,
    zero_torus,
)


def theta_jacobian():
    return IntegralTorus(2, Matrix([[2, 1], [1, 2]]))


def pushforward():
    return TorusMorphism(theta_jacobian(), circle(3), Matrix([[2], [-1]]), Matrix([[1, 0]]))


def pullback():
    return TorusMorphism(circle(3), theta_jacobian(), Matrix([[1, 0]]), Matrix([[2], [-1]]))


# -- objects and morphisms -------------------------------------------------


def test_torus_validation():
    pytest.raises(ValueError, lambda: IntegralTorus(1, Matrix([[0]])))
    pytest.raises(ValueError, lambda: IntegralTorus(2, Matrix([[1]])))
    assert zero_torus().rank == 0


def test_morphism_compatibility_checked_on_construction():
    # the violation names both sides of the law: f_sharp^T * 3 and 6 * f_hash
    with pytest.raises(
        CompatibilityViolation,
        match=r"^pairing law f_sharp\^T \* P_src = P_tgt \* f_hash fails: lhs \[\[3\]\], rhs \[\[6\]\]$",
    ):
        TorusMorphism(circle(3), circle(6), Matrix([[1]]), Matrix([[1]]))
    with pytest.raises(
        CompatibilityViolation,
        match=r"fails: lhs \[\[2, 1\], \[1, 2\]\], rhs \[\[1/2, 0\], \[0, 1/2\]\]$",
    ):
        TorusMorphism(
            IntegralTorus(2, Matrix([[2, 1], [1, 2]])),
            IntegralTorus(2, Matrix([["1/2", 0], [0, "1/2"]])),
            Matrix.identity(2),
            Matrix.identity(2),
        )
    pytest.raises(
        ValueError,
        lambda: TorusMorphism(circle(3), circle(6), Matrix([["1/2"]]), Matrix([["1/4"]])),
    )


def test_universal_cover_matrix_is_transposed_sharp():
    assert pushforward().universal_cover_matrix == Matrix([[2, -1]])
    assert pullback().universal_cover_matrix == Matrix([[1], [0]])


def test_classify_identity():
    flags = classify(identity_morphism(circle(3)))
    assert flags == (True, True, True, True)


def test_classify_dilation_all_flags_but_not_invertible():
    m = TorusMorphism(circle(3), circle(6), Matrix([[2]]), Matrix([[1]]))
    assert classify(m) == (True, True, True, True)
    # the underlying group map is bijective, yet no integral inverse exists:
    # the only rational inverse on universal covers would be x/2
    pytest.raises(
        ValueError,
        lambda: TorusMorphism(circle(6), circle(3), Matrix([["1/2"]]), Matrix([[1]])),
    )
    backwards = TorusMorphism(circle(6), circle(3), Matrix([[1]]), Matrix([[2]]))
    assert compose(backwards, m) != identity_morphism(circle(3))


def test_classify_projection_rank_drop():
    _, _, _, p1, _ = product(circle(2), circle(3))
    flags = classify(p1)
    assert flags.surjective and not flags.finite
    assert not flags.injective and not flags.isogeny


def _morphism(draw, n1, n2, k):
    """A morphism from a rank-n1 torus with a unimodular pairing, so that
    f_sharp is integral, to a rank-n2 one, whose f_hash is a product
    through rank k."""

    def integer_matrix(rows, cols):
        entries = st.integers(-3, 3)
        return Matrix([[draw(entries) for _ in range(cols)] for _ in range(rows)], ncols=cols)

    f_hash = integer_matrix(n2, k) * integer_matrix(k, n1)
    target_pairing = integer_matrix(n2, n2)
    assume(target_pairing.det() != 0)
    source_pairing = random_unimodular(random.Random(draw(st.integers(0, 2**16))), n1)
    f_sharp = (target_pairing * f_hash * source_pairing.inv()).transpose()
    return TorusMorphism(
        IntegralTorus(n1, source_pairing), IntegralTorus(n2, target_pairing), f_sharp, f_hash
    )


@st.composite
def morphisms(draw, max_rank=3):
    """A morphism of tori of ranks 0 to max_rank whose f_hash is a product
    through rank k, so non-square, rank-deficient and non-saturated f_hash
    all come up; half are dualized, which puts the unimodular pairing on
    the target side."""
    m = _morphism(draw, *(draw(st.integers(0, max_rank)) for _ in range(3)))
    return dual_morphism(m) if draw(st.booleans()) else m


@st.composite
def circle_kernel_morphisms(draw):
    """A morphism of a rank-3 or rank-4 source whose f_hash has rank one
    less, so that its connected kernel is a circle while f_sharp, of 2 to 4
    columns, is no vector."""
    n1 = draw(st.integers(3, 4))
    m = _morphism(draw, n1, draw(st.integers(n1 - 1, 4)), n1 - 1)
    assume(len(invariant_factors(m.f_hash)) == n1 - 1)
    return m


@settings(max_examples=150, deadline=None)
@given(morphisms())
def test_classify_agrees_with_the_minors(m):
    assert classify(m) == minor_flags(m)


@st.composite
def scaled_morphisms(draw, base=morphisms(max_rank=4)):
    """A morphism drawn from base, by default of ranks 0 to 4 from
    morphisms(), with both pairings scaled by one positive rational, which
    keeps the pairing law; a scale that is no int makes the pairings
    non-integral."""
    m = draw(base)
    scale = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return TorusMorphism(
        IntegralTorus(m.source.rank, m.source.pairing * scale),
        IntegralTorus(m.target.rank, m.target.pairing * scale),
        m.f_sharp,
        m.f_hash,
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(scaled_morphisms(), scaled_morphisms(circle_kernel_morphisms())))
def test_kernel0_agrees_with_the_section_pairing(m):
    # ranks 0 to 4, and circle kernels of rank-3 and rank-4 sources, whose
    # projection is the integer kernel of a matrix f_sharp^T, eliminated
    assert kernel0(m) == section_kernel_pairing(m)


@st.composite
def wide_kernel_morphisms(draw):
    """A morphism of a rank-2 to rank-5 source whose f_hash is a product
    through rank at most n1 - 2, so that its connected kernel has rank at
    least 2."""
    n1 = draw(st.integers(2, 5))
    return _morphism(draw, n1, draw(st.integers(0, 5)), draw(st.integers(0, n1 - 2)))


@settings(max_examples=150, deadline=None)
@given(wide_kernel_morphisms(), st.integers(0, 2**16))
def test_kernel_coordinates_depend_on_the_kernel_alone(m, seed):
    rng = random.Random(seed)
    # a target automorphism T: f_sharp a unimodular A, f_hash = I, and the
    # target pairing A^T * P that its pairing law leaves.  T ∘ m has m's
    # kernel and the rows that its f_sharp = m.f_sharp * A kills.
    n2 = m.target.rank
    a = random_unimodular(rng, n2)
    t = TorusMorphism(
        m.target, IntegralTorus(n2, a.transpose() * m.target.pairing), a, Matrix.identity(n2)
    )
    assert kernel0(compose(t, m)) == kernel0(m)
    # the dual d has m's kernel as its cokernel; a source automorphism S:
    # f_hash a unimodular B, f_sharp = I, and the source pairing P * B.
    # d ∘ S has d's image, as its f_hash = d.f_hash * B
    d = dual_morphism(m)
    b = random_unimodular(rng, d.source.rank)
    s = TorusMorphism(
        IntegralTorus(d.source.rank, d.source.pairing * b),
        d.source,
        Matrix.identity(d.source.rank),
        b,
    )
    assert cokernel(compose(d, s)) == cokernel(d)


# -- duals -----------------------------------------------------------------


def test_dual_of_circle_and_jacobian():
    assert dual(circle(5)) == circle(5)
    assert dual(theta_jacobian()) == theta_jacobian()


def test_dual_morphism_swaps_matrices():
    assert dual_morphism(pushforward()) == pullback()
    assert dual_morphism(dual_morphism(pushforward())) == pushforward()


def test_dual_is_involution_on_asymmetric_pairing():
    t = IntegralTorus(2, Matrix([[1, 1], [0, 1]]))
    assert dual(t) != t
    assert dual(dual(t)) == t


# -- kernels, cokernels, images --------------------------------------------


def test_kernel0_of_product_projection():
    _, _, _, _, p2 = product(circle(2), circle(3))
    ktor, incl = kernel0(p2)
    assert ktor == circle(2)
    assert compose(p2, incl) == zero_morphism(ktor, circle(3))


def test_kernel0_of_pushforward_is_unit_circle():
    ktor, incl = kernel0(pushforward())
    assert ktor == circle(1)
    assert incl.universal_cover_matrix == Matrix([[1], [2]])
    assert incl.f_hash == Matrix([[0], [1]])


def test_kernel0_of_isogeny_is_trivial():
    m = TorusMorphism(circle(3), circle(6), Matrix([[2]]), Matrix([[1]]))
    ktor, _ = kernel0(m)
    assert ktor.rank == 0


def test_cokernel_of_pullback():
    coker, proj = cokernel(pullback())
    assert coker == circle(1)
    assert proj.universal_cover_matrix == Matrix([[0, 1]])


def test_image_of_pullback():
    img, incl = image(pullback())
    assert img == circle(3)
    assert incl.universal_cover_matrix == Matrix([[1], [0]])


def test_image_of_zero_morphism_is_trivial():
    img, _ = image(zero_morphism(circle(2), circle(3)))
    assert img.rank == 0


# -- quotients -------------------------------------------------------------


def test_quotient_by_kernel_of_pushforward():
    _, incl = kernel0(pushforward())
    quotient, proj = quotient_by_subtorus(theta_jacobian(), incl)
    assert quotient == circle(3)
    assert proj.universal_cover_matrix == Matrix([[2, -1]])


def test_quotient_by_image_of_pullback():
    _, incl = image(pullback())
    quotient, proj = quotient_by_subtorus(theta_jacobian(), incl)
    assert quotient == circle(1)
    assert proj.universal_cover_matrix == Matrix([[0, 1]])


def test_quotient_by_zero_subtorus_is_identity():
    t = theta_jacobian()
    incl = TorusMorphism(zero_torus(), t, Matrix([], ncols=2), Matrix.zeros(2, 0))
    quotient, proj = quotient_by_subtorus(t, incl)
    assert quotient == t
    assert proj == identity_morphism(t)


def test_quotient_rejects_non_injective_inclusions():
    non_saturated = TorusMorphism(circle(6), circle(3), Matrix([[1]]), Matrix([[2]]))
    pytest.raises(NotInjective, lambda: quotient_by_subtorus(circle(3), non_saturated))
    _, _, _, p1, _ = product(circle(2), circle(3))
    pytest.raises(NotInjective, lambda: quotient_by_subtorus(circle(2), p1))


def test_quotient_requires_matching_target():
    _, incl = kernel0(pushforward())
    pytest.raises(ShapeMismatch, lambda: quotient_by_subtorus(circle(3), incl))


# -- products --------------------------------------------------------------


def test_product_pairing_is_block_diagonal():
    prod, _, _, _, _ = product(circle(1), circle(3))
    assert prod.pairing == Matrix([[1, 0], [0, 3]])
    assert prod.rank == 2


def test_product_with_zero_torus():
    prod, _, _, _, _ = product(circle(5), zero_torus())
    assert prod == circle(5)


def test_product_universal_properties_on_an_instance():
    x = circle(6)
    prod, i1, i2, p1, p2 = product(circle(2), circle(3))
    f = TorusMorphism(x, circle(2), Matrix([[1]]), Matrix([[3]]))
    g = TorusMorphism(x, circle(3), Matrix([[1]]), Matrix([[2]]))
    h = TorusMorphism(x, prod, Matrix([[1, 1]]), Matrix([[3], [2]]))
    assert compose(p1, h) == f
    assert compose(p2, h) == g
    # cocone side
    y = circle(6)
    f2 = TorusMorphism(circle(2), y, Matrix([[3]]), Matrix([[1]]))
    g2 = TorusMorphism(circle(3), y, Matrix([[2]]), Matrix([[1]]))
    h2 = TorusMorphism(prod, y, Matrix([[3], [2]]), Matrix([[1, 1]]))
    assert compose(h2, i1) == f2
    assert compose(h2, i2) == g2


# -- equalizers ------------------------------------------------------------


def test_equalizer_of_equal_maps_is_source():
    f = pushforward()
    eq, map_in = equalizer(f, f)
    assert eq == f.source
    assert map_in == identity_morphism(f.source)


def test_equalizer_of_distinct_dilations_is_trivial():
    f = TorusMorphism(circle(3), circle(6), Matrix([[2]]), Matrix([[1]]))
    g = TorusMorphism(circle(3), circle(6), Matrix([[4]]), Matrix([[2]]))
    eq, _ = equalizer(f, g)
    assert eq.rank == 0


def test_coequalizer_of_equal_maps_is_target():
    f = pushforward()
    coeq, map_out = coequalizer(f, f)
    assert coeq == f.target
    assert map_out == identity_morphism(f.target)


def test_equalizer_requires_parallel_pair():
    pytest.raises(ShapeMismatch, lambda: equalizer(pushforward(), pullback()))


# -- stein factorization and component counts ------------------------------


def test_stein_of_pushforward_has_trivial_isogeny_part():
    sf = stein_factorization(pushforward())
    assert sf.middle == circle(3)
    assert sf.phi.f_sharp == Matrix([[1]])
    assert sf.phi.f_hash == Matrix([[1]])
    assert compose(sf.phi, sf.pi) == pushforward()
    assert classify(sf.phi).isogeny


def test_stein_of_mult_two_composed_with_pushforward():
    m = TorusMorphism(theta_jacobian(), circle(3), Matrix([[4], [-2]]), Matrix([[2, 0]]))
    sf = stein_factorization(m)
    assert sf.middle == circle(3)
    assert compose(sf.phi, sf.pi) == m
    assert classify(sf.phi).isogeny
    assert kernel_component_count(m) == 2


def test_stein_of_isogeny_is_trivial_quotient():
    m = TorusMorphism(circle(3), circle(6), Matrix([[2]]), Matrix([[1]]))
    sf = stein_factorization(m)
    assert sf.middle == m.source
    assert sf.pi == identity_morphism(m.source)
    assert sf.phi == m


def test_stein_requires_surjective():
    pytest.raises(NotSurjective, lambda: stein_factorization(pullback()))


def test_kernel_component_count_examples():
    assert kernel_component_count(pushforward()) == 1
    assert kernel_component_count(identity_morphism(theta_jacobian())) == 1


def test_component_count_of_dilation_and_its_dual():
    # A dilation has connected (trivial) kernel while its dual morphism has a
    # two-point kernel; the counts are honest group-kernel sizes on each side.
    m = TorusMorphism(circle(3), circle(6), Matrix([[2]]), Matrix([[1]]))
    assert kernel_component_count(m) == 1
    assert kernel_component_count(dual_morphism(m)) == 2


def _stein_component_count(m):
    """The reference: the index of im(phi.f_hash) for the isogeny part phi
    of the Stein factorization, a determinant since phi is an isogeny."""
    return abs(stein_factorization(m).phi.f_hash.det())


def test_component_count_agrees_with_the_stein_route():
    rng = random.Random(5)
    surjections = [pushforward_morphism(cover) for cover in cover_corpus()]
    surjections += [random_subtorus_sequence(rng, max_rank=4)[1] for _ in range(40)]
    isogenies = [random_covolume_preserving_isogeny(rng) for _ in range(40)]
    surjections += isogenies + [dual_morphism(m) for m in isogenies]
    counts = set()
    for m in surjections:
        count = kernel_component_count(m)
        assert count == _stein_component_count(m), m
        counts.add(count)
    assert len(counts) >= 4  # several component counts, not only connected kernels
    pytest.raises(NotSurjective, lambda: kernel_component_count(pullback()))


def test_compose_shape_mismatch():
    pytest.raises(ShapeMismatch, lambda: compose(pushforward(), pushforward()))


# -- property tests --------------------------------------------------------


def diagonal_torus_lists():
    return st.lists(st.integers(1, 6), min_size=1, max_size=3)


@settings(max_examples=40)
@given(diagonal_torus_lists(), st.data())
def test_classify_flags_swap_under_duality(diag, data):
    source = IntegralTorus(len(diag), Matrix.diagonal(diag))
    n2 = data.draw(st.integers(1, 3))
    target = IntegralTorus(n2, Matrix.identity(n2))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n2, max_size=n2),
            min_size=len(diag),
            max_size=len(diag),
        )
    )
    f_sharp = Matrix(rows)
    # with a unit target pairing, any integral f_sharp gives a morphism
    f_hash = f_sharp.transpose() * source.pairing
    m = TorusMorphism(source, target, f_sharp, f_hash)
    flags = classify(m)
    dual_flags = classify(dual_morphism(m))
    assert flags.surjective == dual_flags.finite
    assert flags.finite == dual_flags.surjective
    assert flags.isogeny == dual_flags.isogeny


@settings(max_examples=40)
@given(diagonal_torus_lists(), st.data())
def test_stein_properties_on_generated_surjections(diag, data):
    source = IntegralTorus(len(diag), Matrix.diagonal(diag))
    n2 = data.draw(st.integers(1, len(diag)))
    target = IntegralTorus(n2, Matrix.identity(n2))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n2, max_size=n2),
            min_size=len(diag),
            max_size=len(diag),
        )
    )
    f_sharp = Matrix(rows)
    f_hash = f_sharp.transpose() * source.pairing
    m = TorusMorphism(source, target, f_sharp, f_hash)
    assume(classify(m).surjective)
    sf = stein_factorization(m)
    assert compose(sf.phi, sf.pi) == m
    assert classify(sf.phi).isogeny
    assert kernel_component_count(sf.pi) == 1
    assert kernel_component_count(m) == _stein_component_count(m)
