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
from math import floor, lcm

from .errors import (
    NotExact,
    NotFinite,
    NotIsogeny,
    NotSurjective,
    NotTorsion,
    ShapeMismatch,
)
from .exact_lattice import (
    Matrix,
    _Value,
    column_hnf,
    hstack,
    integer_kernel,
    invariant_factors,
    smith_normal_form,
)
from .torus_category import (
    IntegralTorus,
    TorusMorphism,
    classify,
    dual,
    dual_morphism,
    image,
    kernel0,
    kernel_component_count,
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
    middle torus.
    """
    if f.target != g.source:
        raise ShapeMismatch("sequence morphisms are not composable")
    if not classify(f).injective:
        return False
    if not classify(g).surjective:
        return False
    if kernel_component_count(g) != 1:
        return False
    _, image_inclusion = image(f)
    _, kernel_inclusion = kernel0(g)
    # both are canonical bases of saturated sublattices of the middle second
    # lattice, so lattice equality is literal matrix equality
    return image_inclusion.f_hash == kernel_inclusion.f_hash


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
        if isinstance(x, float):
            raise NotTorsion("floating-point coordinates do not define exact torsion points")
        try:
            values.append(Fraction(x))
        except (TypeError, ValueError) as exc:
            raise NotTorsion(f"coordinate {x!r} is not an exact rational") from exc
    if len(values) != torus.rank:
        raise ValueError("point has the wrong number of coordinates")
    return Matrix.column(values)


def reduce_point(torus, coords):
    """Canonical representative of a universal-cover point, with pairing
    coordinates reduced into [0, 1)^n."""
    x = _as_fraction_column(torus, coords)
    return _reduce(torus.pairing, torus.pairing.inv(), x)


def _reduce(pairing, inverse, x):
    """reduce_point with the inverse of the pairing already at hand."""
    c = inverse * x
    reduced = Matrix.column([ci - floor(ci) for ci in c.column_tuple(0)])
    return pairing * reduced


def point_order(torus, coords):
    """Order of the point in the torsion group (lcm of coordinate denominators)."""
    x = _as_fraction_column(torus, coords)
    c = torus.pairing.inv() * x
    return lcm(*[ci.denominator for ci in c.column_tuple(0)]) if torus.rank else 1


def subgroup_generated(torus, gens):
    """All points of the finite subgroup generated by rational points.

    Breadth-first closure under addition of the generators; returns
    canonical representatives sorted coordinate-wise.
    """
    pairing = torus.pairing
    inverse = pairing.inv()

    def reduce(coords):
        return _reduce(pairing, inverse, _as_fraction_column(torus, coords))

    gen_columns = [reduce(g) for g in gens]
    zero = reduce([0] * torus.rank)
    seen = {zero.column_tuple(0): zero}
    frontier = [zero]
    while frontier:
        point = frontier.pop()
        for g in gen_columns:
            candidate = _reduce(pairing, inverse, point + g)
            key = candidate.column_tuple(0)
            if key not in seen:
                seen[key] = candidate
                frontier.append(candidate)
    return sorted(seen.values(), key=lambda p: p.column_tuple(0))


def isogeny_kernel_points(m):
    """All group-kernel points of an isogeny, as canonical source points.

    The kernel is (U^{-1} L_tgt) / L_src for the universal-cover matrix U;
    coset representatives are enumerated through the Smith form of the
    relating integer matrix, then reduced and sorted.
    """
    if not classify(m).isogeny:
        raise NotIsogeny("kernel-point enumeration requires an isogeny")
    cover = m.universal_cover_matrix
    lifted = cover.inv() * m.target.pairing  # basis of the preimage lattice
    relation = lifted.inv() * m.source.pairing
    if not relation.is_integral():
        raise NotIsogeny("source periods do not lie in the lifted lattice")
    u, s, _ = smith_normal_form(relation)
    coset_basis = lifted * u.inv()
    pairing = m.source.pairing
    inverse = pairing.inv()
    n = m.source.rank
    reps = [[]]
    for i in range(n):
        size = s[i, i]
        reps = [prefix + [j] for prefix in reps for j in range(size)]
    points = {}
    for rep in reps:
        candidate = _reduce(pairing, inverse, coset_basis * Matrix.column(rep))
        points[candidate.column_tuple(0)] = candidate
    return sorted(points.values(), key=lambda p: p.column_tuple(0))


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
