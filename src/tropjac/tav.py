"""Polarized tropical abelian varieties.

A polarization is an integer matrix zeta mapping the second lattice to the
first so that [zeta(·), ·] is symmetric and positive definite against the
torus pairing.  This module provides polarization types, duals, transport
along finite/surjective morphisms, exact sequences with dualization, and
quotients (by subvarieties and by finite subgroups of rational points).

Points of a torus are rational vectors on the universal cover; the canonical
representative has pairing-coordinates in [0, 1)^n, which makes point
equality and torsion orders decidable.
"""

from fractions import Fraction
from math import floor, lcm, prod

from .errors import (
    KernelTooLarge,
    NotExact,
    NotFinite,
    NotIsogeny,
    NotSurjective,
    NotTorsion,
    ShapeMismatch,
)
from .exact_lattice import (
    Matrix,
    _read_exact,
    _Value,
    column_hnf,
    hstack,
    integer_kernel,
    invariant_factors,
    lattice_index,
    smith_normal_form,
)
from .torus_category import (
    IntegralTorus,
    TorusMorphism,
    classify,
    dual,
    dual_morphism,
    quotient_by_subtorus,
)


class Polarization(_Value):
    """An integer matrix zeta interpreted as a map from Lambda' to Lambda."""

    __slots__ = ("zeta",)

    def __init__(self, zeta):
        if not zeta.is_integral():
            raise ValueError("polarization matrix must be integral")
        if not zeta.is_square:
            raise ValueError("polarization matrix must be square")
        self._set(zeta=zeta)


def principal_polarization(torus):
    return Polarization(Matrix.identity(torus.rank))


def _is_symmetric_positive_definite(mat):
    if mat != mat.transpose():
        return False
    n = mat.nrows
    for k in range(1, n + 1):
        if mat.submatrix(range(k), range(k)).det() <= 0:
            return False
    return True


class PolarizedVariety(_Value):
    """An integral torus together with a polarization valid for its pairing."""

    __slots__ = ("torus", "pol")

    def __init__(self, torus, pol):
        if pol.zeta.shape != (torus.rank, torus.rank):
            raise ValueError("polarization shape must match the torus rank")
        form = pol.zeta.transpose() * torus.pairing
        if not _is_symmetric_positive_definite(form):
            raise ValueError(
                "zeta^T * P must be symmetric positive definite (exact minors)"
            )
        self._set(torus=torus, pol=pol)


def polarization_type(pv):
    """Invariant factors (a_1 | ... | a_n) of the polarization matrix."""
    return invariant_factors(pv.pol.zeta)


def dual_polarization(pv):
    """The polarization induced on the dual torus.

    In Smith-adapted bases the i-th invariant factor a_i becomes
    a_1 * a_n / a_i; transported back this is V * diag(a_1*a_n/a_i) * U,
    which coincides with (a_1 * a_n) * zeta^{-1}.  The resulting matrix is
    always integral because every a_i divides a_n.
    """
    n = pv.torus.rank
    if n == 0:
        return Polarization(Matrix([], ncols=0))
    u, s, v = smith_normal_form(pv.pol.zeta)
    alphas = [s[i, i] for i in range(n)]
    coefficient = alphas[0] * alphas[-1]
    scaled = Matrix.diagonal([coefficient // a for a in alphas])
    return Polarization(v * scaled * u)


def pullback_polarization(m, pol_tgt):
    """Transport a target polarization back along a finite morphism."""
    if not classify(m).finite:
        raise NotFinite("pull-back of a polarization requires a finite morphism")
    return Polarization(m.f_sharp * pol_tgt.zeta * m.f_hash)


def pushforward_polarization(m, pol_src):
    """Transport a source polarization forward along a surjection.

    Defined through duals: dualize the source polarization, pull it back
    along the dual morphism, and dualize the result.
    """
    if not classify(m).surjective:
        raise NotSurjective("push-forward of a polarization requires a surjection")
    dual_src = PolarizedVariety(dual(m.source), dual_polarization(PolarizedVariety(m.source, pol_src)))
    pulled = pullback_polarization(dual_morphism(m), dual_src.pol)
    dual_tgt = PolarizedVariety(dual(m.target), pulled)
    return dual_polarization(dual_tgt)


def is_polarized_isogeny(m, pol_src, pol_tgt):
    """True when the source polarization is exactly the pulled-back one."""
    if not classify(m).isogeny:
        raise NotIsogeny("polarized-isogeny test requires an isogeny")
    return pol_src.zeta == pullback_polarization(m, pol_tgt).zeta


class ExactSequence(_Value):
    """A composable pair (f, g); validity is decided by check_exact_sequence."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        if f.target != g.source:
            raise ShapeMismatch("sequence morphisms are not composable")
        self._set(f=f, g=g)


def check_exact_sequence(f, g):
    """Whether 0 -> source(f) -> middle -> target(g) -> 0 is exact.

    Requires: f injective, g surjective with connected kernel, and the image
    of f equal to the kernel component of g as saturated sublattices of the
    middle torus.  "g surjective with connected kernel" is one check, that
    im(g.f_hash) has index 1.  For a surjection that index is the kernel
    component count (see torus_category.kernel_component_count).  When g is
    not onto, g.f_hash has the rank of g.f_sharp (by the pairing law), below
    the target rank, so the index is infinite.  The rest is one comparison:
    the lattice column_hnf(f.f_hash) spanned by f.f_hash has full rank and
    equals integer_kernel(g.f_hash), the second lattice of kernel0(g).  A
    kernel lattice is saturated, so an image equal to one is saturated too,
    which with full rank makes f injective; no torus is built.
    """
    if f.target != g.source:
        raise ShapeMismatch("sequence morphisms are not composable")
    if lattice_index(g.f_hash, Matrix.identity(g.target.rank)) != 1:
        return False
    # both are canonical bases, so lattice equality is literal matrix equality
    image = column_hnf(f.f_hash)
    return image.ncols == f.source.rank and image == integer_kernel(g.f_hash)


def dualize_sequence(seq):
    """Dual of an exact sequence: (f, g) becomes (dual g, dual f)."""
    if not check_exact_sequence(seq.f, seq.g):
        raise NotExact("can only dualize a verified exact sequence")
    return ExactSequence(dual_morphism(seq.g), dual_morphism(seq.f))


# -- rational points -------------------------------------------------------


def _as_fraction_column(torus, coords):
    if isinstance(coords, Matrix):
        if coords.shape != (torus.rank, 1):
            raise ValueError("point must be a rank-length column")
        return coords
    values = []
    for x in coords:
        try:
            values.append(_read_exact(x))
        except ValueError as exc:
            raise NotTorsion(f"coordinate {x!r} is not an exact rational") from exc
    if len(values) != torus.rank:
        raise ValueError("point has the wrong number of coordinates")
    return Matrix.column(values)


def reduce_point(torus, coords):
    """Canonical representative of a universal-cover point, with pairing
    coordinates reduced into [0, 1)^n."""
    x = _as_fraction_column(torus, coords)
    c = torus.pairing.inv() * x
    reduced = Matrix.column([ci - floor(ci) for ci in c.column_tuple(0)])
    return torus.pairing * reduced


def point_order(torus, coords):
    """Order of the point in the torsion group (lcm of coordinate denominators)."""
    x = _as_fraction_column(torus, coords)
    c = torus.pairing.inv() * x
    return lcm(*[ci.denominator for ci in c.column_tuple(0)]) if torus.rank else 1


# Finite groups of points are listed point by point, so a listing is refused
# before it starts when the group has more points than this.
MAX_LISTED_POINTS = 10**6


def _require_listable(count, what):
    if count > MAX_LISTED_POINTS:
        try:
            size = str(count)
        except ValueError:  # more digits than Python converts to a string
            size = f"at least 2^{count.bit_length() - 1}"
        raise KernelTooLarge(
            f"{what} has {size} points, above the listing bound of {MAX_LISTED_POINTS}"
        )


def _over_common_denominator(vectors):
    """Rational vectors as int tuples over the lcm of their denominators,
    as (denominator, tuples); the denominator of no entries is 1."""
    den = lcm(*(x.denominator for vector in vectors for x in vector))
    return den, [tuple(x.numerator * (den // x.denominator) for x in vector) for vector in vectors]


def _subgroup(gens, den, n):
    """All points of the subgroup of (Z/den)^n generated by int tuples.

    Each generator g adds the cosets S + g, S + 2g, ... of the group S
    generated so far, until a multiple of g lies in S, so every point is
    made once by one tuple addition.
    """
    group = [(0,) * n]
    for g in gens:
        g = tuple(x % den for x in g)
        members = set(group)
        cosets, step = [], g
        while step not in members:
            cosets += [tuple((a + b) % den for a, b in zip(p, step)) for p in group]
            step = tuple((a + b) % den for a, b in zip(step, g))
        group += cosets
    return group


def _listed_points(pairing, den, coords):
    """The canonical points pairing * (c / den) of pairing coordinates c in
    [0, den)^n, sorted coordinate-wise, as columns.

    The points are computed as int numerators over one positive common
    denominator, so sorting the numerators sorts the points.
    """
    pairing_den, scaled = _over_common_denominator(pairing.entries())
    total = den * pairing_den
    numerators = sorted(
        tuple(sum(a * b for a, b in zip(row, c)) for row in scaled) for c in coords
    )
    return [Matrix.column([Fraction(x, total) for x in num]) for num in numerators]


def subgroup_generated(torus, gens):
    """All points of the finite subgroup generated by rational points.

    The generators' pairing coordinates are written once over their common
    denominator; the closure under addition runs on those int tuples mod the
    denominator.  Returns canonical representatives sorted coordinate-wise.
    """
    pairing = torus.pairing
    inverse = pairing.inv()
    coords = [(inverse * _as_fraction_column(torus, g)).column_tuple(0) for g in gens]
    den, gen_coords = _over_common_denominator(coords)
    return _listed_points(pairing, den, _subgroup(gen_coords, den, torus.rank))


def isogeny_kernel_points(m):
    """All group-kernel points of an isogeny, as canonical source points.

    The kernel is (U^{-1} L_tgt) / L_src for the universal-cover matrix U.
    The Smith form of the relating integer matrix gives one coset generator
    per invariant factor; their pairing coordinates are written once over
    a common denominator, and the Smith box of sums is listed on those int
    tuples.  Only the returned points become matrices, sorted.  A kernel of
    more than MAX_LISTED_POINTS points raises KernelTooLarge before any is
    listed.
    """
    if not classify(m).isogeny:
        raise NotIsogeny("kernel-point enumeration requires an isogeny")
    cover = m.universal_cover_matrix
    lifted = cover.inv() * m.target.pairing  # basis of the preimage lattice
    relation = lifted.inv() * m.source.pairing
    if not relation.is_integral():
        raise NotIsogeny("source periods do not lie in the lifted lattice")
    u, s, _ = smith_normal_form(relation)
    n = m.source.rank
    _require_listable(prod(s[i, i] for i in range(n)), "the isogeny kernel")
    pairing = m.source.pairing
    den, gen_coords = _over_common_denominator((pairing.inv() * lifted * u.inv()).columns())
    return _listed_points(pairing, den, _subgroup(gen_coords, den, n))


# -- quotients -------------------------------------------------------------


def quotient_by_finite_subgroup(pv, gens):
    """Quotient of a polarized variety by the subgroup generated by rational
    points, as (quotient variety, free isogeny).

    The quotient's period lattice is the join of the old one with lifts of
    the generators; the isogeny is the identity on universal covers.
    """
    torus = pv.torus
    n = torus.rank
    columns = torus.pairing
    for g in gens:
        columns = hstack(columns, _as_fraction_column(torus, g))
    denominator = lcm(*[x.denominator for row in columns.entries() for x in row]) if n else 1
    scaled = denominator * columns
    joined = column_hnf(scaled) * Fraction(1, denominator)
    if joined.ncols != n:
        raise NotTorsion("generators do not span a full-rank lattice with the periods")
    # keep the original pairing when the subgroup was trivial
    relation = joined.inv() * torus.pairing
    if not relation.is_integral():
        raise NotTorsion("generated lattice does not contain the periods")
    if abs(relation.det()) == 1:
        quotient_torus = torus
    else:
        quotient_torus = IntegralTorus(n, joined)
    f_hash = quotient_torus.pairing.inv() * torus.pairing
    iso = TorusMorphism(torus, quotient_torus, Matrix.identity(n), f_hash)
    pol = pushforward_polarization(iso, pv.pol)
    return PolarizedVariety(quotient_torus, pol), iso


def quotient_by_subvariety(pv, inclusion):
    """Quotient of a polarized variety by an included subtorus, with the
    push-forward polarization on the quotient."""
    quotient_torus, projection = quotient_by_subtorus(pv.torus, inclusion)
    pol = pushforward_polarization(projection, pv.pol)
    return PolarizedVariety(quotient_torus, pol), projection
