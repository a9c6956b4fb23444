"""Polarized tropical abelian varieties.

A polarization is an integer matrix zeta mapping the second lattice to the
first so that [zeta(·), ·] is symmetric and positive definite against the
torus pairing.  This module provides polarization types, duals, transport
along finite/surjective morphisms, exact sequences with dualization, and
quotients (by subvarieties and by finite subgroups of rational points).

Points of a torus are rational vectors on the universal cover; the canonical
representative has pairing-coordinates in [0, 1)^n, which makes point
equality and torsion orders decidable.  A finite subgroup is listed as a
ScaledPoints record, its points as sorted tuples of int numerators over one
positive denominator; subgroup_generated and isogeny_kernel_points expand
that record into columns, while the CLI reads the ints as they are.  The
kernel of an isogeny is also given unlisted, as a group: isogeny_kernel_group
returns its invariant factors and one generator per factor.
"""

from collections import namedtuple
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
    _over_lcm,
    _quotient,
    _read_exact,
    _Value,
    column_hnf,
    hstack,
    invariant_factors,
    quotient_group,
    rational_solve,
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
    """The polarization induced on the dual torus: (a_1 * a_n) * zeta^{-1}
    for the first and last invariant factors a_1 | ... | a_n of zeta.

    In Smith-adapted bases the i-th invariant factor a_i becomes
    a_1 * a_n / a_i; transported back this is V * diag(a_1*a_n/a_i) * U,
    which is (a_1 * a_n) * zeta^{-1}.  The matrix is integral because every
    a_i divides a_n.  A rank-0 polarization is its own dual.
    """
    if pv.torus.rank == 0:
        return pv.pol
    alphas = invariant_factors(pv.pol.zeta)
    return Polarization(alphas[0] * alphas[-1] * pv.pol.zeta.inv())


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
    # the pullback along the dual morphism, finite as m is surjective
    pulled = Polarization(m.f_hash * dual_src.pol.zeta * m.f_sharp)
    dual_tgt = PolarizedVariety(dual(m.target), pulled)
    return dual_polarization(dual_tgt)


def is_polarized_isogeny(m, pol_src, pol_tgt):
    """True when the source polarization is exactly the pulled-back one."""
    if not classify(m).isogeny:
        raise NotIsogeny("polarized-isogeny test requires an isogeny")
    return pol_src.zeta == m.f_sharp * pol_tgt.zeta * m.f_hash


class ExactSequence(_Value):
    """A composable pair (f, g); validity is decided by check_exact_sequence."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        if f.target != g.source:
            raise ShapeMismatch("sequence morphisms are not composable")
        self._set(f=f, g=g)


def check_exact_sequence(f, g):
    """Whether 0 -> source(f) -> middle -> target(g) -> 0 is exact.

    Exact means f injective, g surjective with connected kernel, and the
    image of f equal to the kernel component of g as saturated sublattices
    of the middle torus.  That holds exactly when:

    * rank source(f) + rank target(g) = rank middle;
    * the invariant factors of f.f_hash are rank source(f) ones (f is
      injective, see torus_category.classify);
    * the invariant factors of g.f_hash are rank target(g) ones (g is onto
      with connected kernel, see torus_category.kernel_component_count);
    * g.f_hash * f.f_hash is zero.

    The zero composite puts im f.f_hash inside ker g.f_hash.  The image
    is saturated and of rank n_f, as the factors of f.f_hash are n_f ones;
    the kernel is saturated, as every kernel is, and of rank n_mid - n_g,
    as g.f_hash has n_g factors.  The rank test makes the two ranks agree,
    and two saturated lattices of one rank, one inside the other, are
    equal.  One Smith form of each matrix and one product decide it; no
    torus or lattice basis is built.
    """
    if f.target != g.source:
        raise ShapeMismatch("sequence morphisms are not composable")
    return (
        f.source.rank + g.target.rank == f.target.rank
        and invariant_factors(f.f_hash) == (1,) * f.source.rank
        and invariant_factors(g.f_hash) == (1,) * g.target.rank
        and (g.f_hash * f.f_hash).is_zero()
    )


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
    coordinates reduced into [0, 1)^n.  The coordinates c solve P * c = x,
    which has one solution, as the pairing P is non-degenerate."""
    x = _as_fraction_column(torus, coords)
    c = rational_solve(torus.pairing, x)
    reduced = Matrix.column([ci - floor(ci) for ci in c.column_tuple(0)])
    return torus.pairing * reduced


def point_order(torus, coords):
    """Order of the point in the torsion group: the lcm of the denominators
    of its pairing coordinates, 1 on a rank-0 torus."""
    x = _as_fraction_column(torus, coords)
    c = rational_solve(torus.pairing, x)
    return lcm(*[ci.denominator for ci in c.column_tuple(0)])


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


class ScaledPoints(namedtuple("ScaledPoints", ["numerators", "denominator"])):
    """Points of a torus as a tuple of int tuples over one positive common
    denominator: the i-th point is numerators[i] / denominator
    coordinate-wise.  The tuples are sorted, so they list the points sorted
    coordinate-wise."""

    __slots__ = ()

    def listed(self):
        """The points as ScaledPoints: these, which are listed already, as
        split_jacobian.SplitKernel lists the kernel it holds unlisted."""
        return self

    def columns(self):
        """The points as columns of quotients, each entry an int when
        integral and else one Fraction, as a Matrix stores it."""
        den = self.denominator
        return [Matrix._of(tuple([(_quotient(x, den),) for x in num]), 1) for num in self.numerators]


def _box_points(n, gens, counts, den):
    """The points sum k_i·g_i mod den, 0 <= k_i < count_i, of int tuples g_i
    of length n, in [0, den)^n, as n lists of coordinates: list j holds
    coordinate j of every point, in one order of the points shared by all
    n lists.  The caller passes a box in which every point of the group
    generated by the g_i has one such sum, so each is listed once.  The box
    is listed factor by factor and coordinate by coordinate, each step one
    comprehension over all points, with no set, no membership test and no
    call per point; the first factor of more than one point gives its
    multiples as they are."""
    coordinates = None
    for g, count in zip(gens, counts):
        if count > 1:
            multiples = [[k * x % den for k in range(count)] for x in g]
            coordinates = multiples if coordinates is None else [
                [(a + b) % den for a in column for b in added]
                for column, added in zip(coordinates, multiples)
            ]
    return [[0] for _ in range(n)] if coordinates is None else coordinates


def _listed_points(pairing, den, coordinates, count):
    """The count canonical points pairing * (c / den) of the pairing
    coordinates c in [0, den)^n that _box_points lists, sorted
    coordinate-wise, as ScaledPoints.  Each coordinate of the points is
    one int comprehension per nonzero entry of its row of the pairing,
    scaled to ints over the lcm of its denominators, so the numerators are
    over the one denominator den times that lcm.
    """
    pairing_den, scaled = _over_lcm(pairing.entries())
    rows = []
    for row in scaled:
        values = [0] * count
        for entry, column in zip(row, coordinates):
            if entry:
                values = [v + entry * c for v, c in zip(values, column)]
        rows.append(values)
    # a rank-0 torus has one point, the empty tuple
    numerators = tuple(sorted(zip(*rows))) if rows else ((),)
    return ScaledPoints(numerators, den * pairing_den)


def _generated_points(pairing, coords):
    """The points of the finite subgroup generated by points with the given
    pairing coordinates, on the torus of the pairing, as ScaledPoints: the
    listing behind subgroup_generated, whose generators are arbitrary
    points.  The isogeny kernel, whose group Smith presents directly, is
    listed by isogeny_kernel_numerators from quotient_group instead, with
    no HNF.

    The coordinates are written once as int tuples over their common
    denominator den.  The subgroup is L / den·Z^n for the lattice L
    spanned by them and den·Z^n.  The column HNF of [coords | den·I] is a
    lower-triangular basis b_j of L whose pivots h_j divide den, and the
    box of sums k_j·b_j, 0 <= k_j < den/h_j, lists each point once: two
    sums that agree mod den agree in k_1, then in k_2, and so on down the
    triangle, and there are den^n / prod(h_j) = [L : den·Z^n] of them.  A
    subgroup of more than MAX_LISTED_POINTS points raises KernelTooLarge
    before any is listed.
    """
    n = pairing.nrows
    den, gen_coords = _over_lcm(coords)
    lattice = Matrix(
        [[c[i] for c in gen_coords] + [den if i == j else 0 for j in range(n)] for i in range(n)],
        ncols=len(gen_coords) + n,
    )
    basis = column_hnf(lattice)
    counts = [den // basis[j, j] for j in range(n)]
    count = prod(counts)
    _require_listable(count, "the generated subgroup")
    return _listed_points(pairing, den, _box_points(n, basis.columns(), counts, den), count)


def subgroup_generated(torus, gens):
    """All points of the finite subgroup generated by rational points, as
    canonical representatives sorted coordinate-wise: the columns of the
    ScaledPoints that _generated_points lists.  A subgroup of more than
    MAX_LISTED_POINTS points raises KernelTooLarge before any is listed.
    """
    inverse = torus.pairing.inv()
    coords = [(inverse * _as_fraction_column(torus, g)).column_tuple(0) for g in gens]
    return _generated_points(torus.pairing, coords).columns()


def _kernel_group(m):
    """quotient_group of the f_hash of an isogeny m, its kernel in pairing
    coordinates; m is an isogeny exactly when f_hash is square with no zero
    invariant factor, so the Smith form decides it, and any other m raises
    NotIsogeny."""
    group = quotient_group(m.f_hash) if m.f_hash.is_square else None
    if group is None:
        raise NotIsogeny("kernel-point enumeration requires an isogeny")
    return group


# The kernel of an isogeny as a group: its invariant factors s_1 | ... | s_n
# and one generator of order s_i per factor, a canonical source point.
KernelGroup = namedtuple("KernelGroup", ["factors", "generators"])


def isogeny_kernel_group(m):
    """The kernel of an isogeny as a KernelGroup, with no point listed.

    The factors and generators are those of quotient_group(m.f_hash), as
    isogeny_kernel_numerators reads them: generator i is the point of
    pairing coordinates v_i / s_i, for column i of the Smith transform V,
    written as its canonical source point, one column.  The kernel is the
    direct sum of the cyclic groups they generate, so the sums
    k_1·g_1 + ... + k_n·g_n with 0 <= k_i < s_i, reduced, are its points,
    each once, and subgroup_generated(m.source, generators) lists them as
    isogeny_kernel_points does.  A factor of 1 has the zero point as its
    generator.  Any m that is no isogeny raises NotIsogeny; no bound on the
    number of points applies, as none is listed.
    """
    factors, den, generators = _kernel_group(m)
    pairing = m.source.pairing
    return KernelGroup(factors, tuple([
        pairing * Matrix._of(tuple([(_quotient(x, den),) for x in g]), 1) for g in generators
    ]))


def isogeny_kernel_numerators(m):
    """All group-kernel points of an isogeny, as canonical source points
    listed in ScaledPoints: sorted int tuples over one denominator.

    The kernel is (U^{-1} L_tgt) / L_src for the universal-cover matrix
    U = f_sharp^T: the subgroup of the source torus generated by the
    columns of U^{-1} * P_tgt.  Their pairing coordinates are
    P_src^{-1} * U^{-1} * P_tgt, which the pairing law U * P_src =
    P_tgt * f_hash makes f_hash^{-1}, so in pairing coordinates the kernel
    is f_hash^{-1}·Z^n / Z^n.  The source periods always lie in the lifted
    lattice U^{-1} L_tgt: their coordinates in it are f_hash, which is
    integral in every TorusMorphism.

    exact_lattice.quotient_group presents that group from one Smith form
    of f_hash, with no inverse and no HNF: its factors s_i, the
    denominator s_n of f_hash^{-1}, and one generator of order s_i per
    factor, whose box of multiples lists each point once.  m is an isogeny
    exactly when f_hash is square with no zero invariant factor, so the
    Smith form decides it, and any other m raises NotIsogeny.  A kernel of
    more than MAX_LISTED_POINTS points raises KernelTooLarge before any is
    listed.
    """
    factors, den, generators = _kernel_group(m)
    count = prod(factors)
    _require_listable(count, "the isogeny kernel")
    points = _box_points(len(factors), generators, factors, den)
    return _listed_points(m.source.pairing, den, points, count)


def isogeny_kernel_points(m):
    """All group-kernel points of an isogeny, as canonical source points
    sorted coordinate-wise: the columns of isogeny_kernel_numerators(m)."""
    return isogeny_kernel_numerators(m).columns()


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
    den, scaled = _over_lcm(columns.entries())
    joined = column_hnf(Matrix(scaled, ncols=columns.ncols)) * _quotient(1, den)
    if joined.ncols != n:
        raise NotTorsion("generators do not span a full-rank lattice with the periods")
    relation = rational_solve(joined, torus.pairing)
    if not relation.is_integral():
        raise NotTorsion("generated lattice does not contain the periods")
    # the isogeny's f_hash is relation, the quotient pairing's inverse times
    # the old one; keep the original pairing when the subgroup was trivial
    if abs(relation.det()) == 1:
        quotient_torus, f_hash = torus, Matrix.identity(n)
    else:
        quotient_torus, f_hash = IntegralTorus(n, joined), relation
    iso = TorusMorphism(torus, quotient_torus, Matrix.identity(n), f_hash)
    pol = pushforward_polarization(iso, pv.pol)
    return PolarizedVariety(quotient_torus, pol), iso


def quotient_by_subvariety(pv, inclusion):
    """Quotient of a polarized variety by an included subtorus, with the
    push-forward polarization on the quotient."""
    quotient_torus, projection = quotient_by_subtorus(pv.torus, inclusion)
    pol = pushforward_polarization(projection, pv.pol)
    return PolarizedVariety(quotient_torus, pol), projection
