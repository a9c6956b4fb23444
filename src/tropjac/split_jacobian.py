"""Split Jacobians of genus-2 graphs.

A strongly optimal cover mu (connected pushforward kernel, no dilation
factor) splits the Jacobian: the kernel circle TE' and the target circle TE
assemble into an isogeny TE' x TE -> Jac whose kernel, degree, and
polarization behaviour are all pinned down by the degree of mu.
row_cover builds the walk cover of any primitive universal cover row, and
the complementary cover, the row_cover of the kernel direction, realizes
the projection onto TE' geometrically.

The isogeny's kernel is read off the one Smith form that presents it
(exact_lattice.quotient_group).  For a valid cover it is cyclic of order d
and maps one-to-one onto the d-torsion of each circle (Kani's graph of an
isomorphism between the two d-torsion groups, J. reine angew. Math. 485,
1997), so the two torsion flags read the group's order and its generator,
and the report keeps the kernel unlisted, as a SplitKernel: the order d,
the steps of the two circles and the multiplier that pairs them, from
which the CLI writes each point and SplitKernel.listed() lists the sorted
points as ScaledPoints.  Any other group, which no valid cover has, stays
unlisted too, as the tav.KernelGroup of its factors and generators, whose
flags are false.  Either kernel becomes column matrices only where a
caller asks for columns, through splitting_isogeny or
SplitReport.kernel_points, and only a listing refuses a kernel of more
than tav.MAX_LISTED_POINTS points, so the report of a cover of any degree
is given.

phi and phi_tilde are assembled from the kernel inclusion, the pushforward
and the pullback, which are already checked morphisms.  Their pairing laws
hold block by block, so they are wrapped by _derived and not checked again.
"""

from collections import namedtuple
from math import gcd, prod

from .cover_analysis import quotient_and_gamma
from .curves_covers import (
    _circle_cover,
    _require_genus_2,
    _row_slopes,
    _walk_form,
    cover_degree,
    jacobian,
    validate_cover,
)
from .errors import (
    InvariantViolation,
    NotIsogeny,
    NotOptimal,
    NotProductTarget,
    ShapeMismatch,
)
from .exact_lattice import (
    Matrix,
    _over_lcm,
    block_diagonal,
    content,
    hstack,
    quotient_group,
    vstack,
)
from .tav import ScaledPoints, _kernel_record, _require_listable, check_exact_sequence, subgroup_generated
from .torus_category import IntegralTorus, TorusMorphism, classify, compose, dual_morphism


# The cover of the kernel circle complementary to a strongly optimal cover:
# the kernel circle length, per-edge dilations and slope signs in the fixed
# edge order, the degree, and the full walk description.
ComplementaryCover = namedtuple(
    "ComplementaryCover", ["target_length", "dilations", "signs", "degree", "general"]
)


class SplitKernel(namedtuple("SplitKernel", ["order", "steps", "multiplier", "denominator"])):
    """The cyclic kernel of a splitting isogeny, unlisted.  With d = order,
    (a, b) = steps and r = multiplier, its points sorted are
    (a·m, b·(m·r mod d)) / denominator for m = 0..d-1: the m-th multiple
    of the step a/denominator on TE', paired with the (m·r mod d)-th
    multiple of the step b/denominator on TE."""

    __slots__ = ()

    def listed(self):
        """The points as ScaledPoints, sorted, as isogeny_kernel_numerators
        lists them.  A kernel of more than tav.MAX_LISTED_POINTS points
        raises KernelTooLarge before any is listed."""
        d, (a, b), r, den = self
        _require_listable(d, "the isogeny kernel")
        return ScaledPoints(tuple(zip(range(0, a * d, a), [m * r % d * b for m in range(d)])), den)


class SplitReport(
    namedtuple(
        "SplitReport",
        ["phi", "phi_tilde", "kernel", "degree", "flags",
         "phi_morphism", "phi_tilde_morphism"],
    )
):
    """Everything verify_split_package checks about a splitting, with the
    two isogenies recorded by their universal cover matrices and the kernel
    of phi unlisted: a SplitKernel when it is cyclic with a unit TE'
    coordinate, as it is on every valid cover, and else the tav.KernelGroup
    of its factors and generators."""

    __slots__ = ()

    @property
    def kernel_points(self):
        """The kernel of phi as canonical source points, one column each,
        sorted coordinate-wise, as isogeny_kernel_points lists them."""
        return _kernel_columns(self.phi_morphism, self.kernel)

    @property
    def all_flags_hold(self):
        return all(self.flags.values())


def strong_optimality_gap(cover):
    """None when the Jacobian splits off the target circle (connected
    pushforward kernel, no dilation factor), else the reason it does not."""
    gamma = quotient_and_gamma(cover)
    if gamma.a_hash != 1:
        return f"pushforward kernel has {gamma.a_hash} components"
    if gamma.a_sharp > 1:
        return (
            f"cover factors through the multiplication-by-{gamma.a_sharp} "
            "dilation of its target"
        )
    return None


def _require_strongly_optimal(cover):
    gap = strong_optimality_gap(cover)
    if gap is not None:
        raise NotOptimal(gap)


def _walk_cover(graph, row, length):
    """GeneralCircleCover of the graph with the given universal cover row,
    at the slopes that curves_covers reads off the row."""
    general = _walk_form(graph, _row_slopes(graph, row), length)
    violations = validate_cover(general).violations
    if violations:
        raise InvariantViolation(
            "constructed walk cover is inconsistent: " + "; ".join(violations)
        )
    return general


def row_cover(graph, row):
    """The walk cover of a genus-2 graph whose universal cover row is the
    primitive integer row r: its edges run at the slopes C·r for the cycle
    basis C, over a circle whose length is the content of P·r, the largest
    rational dividing both entries, for the period matrix P.  A row that
    is not a pair of ints with gcd 1, the zero row among them, raises
    ValueError."""
    _require_genus_2(graph)
    row = tuple(row)
    if len(row) != 2 or any(type(x) is not int for x in row) or gcd(*row) != 1:
        raise ValueError(f"a cover row is a primitive pair of ints, not {row!r}")
    length = content(jacobian(graph).torus.pairing * Matrix.column(row))
    return _walk_cover(graph, row, length)


def complementary_cover(cover):
    """The cover of the kernel circle complementary to a strongly optimal
    cover: the row_cover of the kernel direction w.  w is primitive, and
    the inclusion's pairing law P·w = l'·y^T, with y primitive, makes the
    content of P·w the kernel circle's length l'.
    """
    _require_strongly_optimal(cover)
    _, inclusion = cover._kernel
    general = row_cover(cover._form.graph, inclusion.f_hash.column_tuple(0))
    degree = cover_degree(general)
    if degree != cover_degree(cover):
        raise InvariantViolation(f"complementary degree {degree} differs from the cover's")
    signs = tuple(0 if s == 0 else (1 if s > 0 else -1) for s in general.slopes)
    return ComplementaryCover(general.target_length, general.dilations, signs, degree, general)


def _splitting(cover):
    """The isogeny TE' x TE -> Jac of a strongly optimal cover, assembled
    from the kernel inclusion and the pullback, with the Smith presentation
    (factors, den, generators) of its kernel and the kernel itself.  Its
    source pairing diag(l', l) is non-degenerate, and its pairing law is
    the laws of the two blocks.

    When the kernel is cyclic, factors (1, den), with a generator (x, y)
    whose TE' coordinate x is a unit mod den, the multiples of the
    generator are den points with distinct TE' coordinates, so sorted they
    are (m, m·r mod den) for m = 0..den-1 and r = y·x^-1 mod den, each
    coordinate scaled by its circle's length: the SplitKernel of order den,
    steps l' and l over their common denominator pden, multiplier r and
    denominator den·pden, with no point listed (den = 1 gives r = 0).  Any
    other kernel, which no valid cover has, is the KernelGroup of the same
    presentation, again with no point listed.  A singular phi raises
    NotIsogeny.  No kernel is refused, however many points it has:
    tav.MAX_LISTED_POINTS bounds only a listing, and SplitKernel.listed()
    and subgroup_generated check it before they list."""
    _require_strongly_optimal(cover)
    te_prime, inclusion = cover._kernel
    pull = cover._pullback
    source = IntegralTorus._derived(2, block_diagonal(te_prime.pairing, pull.source.pairing))
    phi = TorusMorphism._derived(
        source,
        cover._pushforward.source,
        vstack(inclusion.f_sharp, pull.f_sharp),
        hstack(inclusion.f_hash, pull.f_hash),
    )
    group = quotient_group(phi.f_hash)
    if group is None:
        raise NotIsogeny("kernel-point enumeration requires an isogeny")
    factors, den, generators = group
    x, y = generators[-1]
    if factors[0] != 1 or gcd(x, den) != 1:
        return phi, group, _kernel_record(source.pairing, *group)
    pden, ((a, _), (_, b)) = _over_lcm(source.pairing.entries())
    return phi, group, SplitKernel(den, (a, b), y * pow(x, -1, den) % den, den * pden)


def _kernel_columns(phi, kernel):
    """The points of the kernel _splitting kept for phi, as columns sorted
    coordinate-wise: a SplitKernel's listing, or the subgroup that a
    KernelGroup's generators generate."""
    if type(kernel) is SplitKernel:
        return kernel.listed().columns()
    return subgroup_generated(phi.source, kernel.generators)


def splitting_isogeny(cover):
    """The isogeny TE' x TE -> Jac of a strongly optimal cover, with its
    kernel points as columns, as isogeny_kernel_points lists them."""
    phi, _, kernel = _splitting(cover)
    return phi, _kernel_columns(phi, kernel)


def complementary_pushforward(cover):
    """Jac -> TE', the projection killing the pulled-back circle: the dual
    of the kernel inclusion TE' -> Jac.

    The period matrix P of the Jacobian is symmetric and the pairing of
    TE' is its 1x1 length l', so the dual has Jac as source and TE' as
    target, and swaps the inclusion's matrices: f_sharp is the kernel
    direction w and f_hash the inclusion's f_sharp, which its pairing law
    f_sharp^T * l' = P * w makes w^T * P / l'.
    """
    _, inclusion = _circle_cover(cover)._kernel
    return dual_morphism(inclusion)


def verify_split_package(cover):
    """Run every check of the splitting theorem on one cover.

    Flags: the kernel of phi projects onto the full degree-torsion of both
    circle factors, phi_tilde . phi is multiplication by the degree, the
    principal polarization pulls back to degree times the principal one,
    and both short sequences (kernel inclusion then pushforward; pullback
    then complementary pushforward) are exact.

    The two torsion flags are read off the kernel's Smith presentation,
    with no point listed.  The kernel maps onto the d-torsion of a circle
    exactly when it has d points, is cyclic (factors (1, d)) and its
    generator's coordinate on that circle is a unit mod d: the multiples
    of a unit are all of Z/d, once each, and a projection one-to-one onto
    Z/d makes the kernel cyclic of order d.  As nothing is listed, no
    degree is refused.
    """
    phi, (factors, den, generators), kernel = _splitting(cover)
    degree = cover_degree(cover)
    push, pull = cover._pushforward, cover._pullback
    _, inclusion = cover._kernel
    comp = complementary_pushforward(cover)
    # the laws of comp and push, stacked, are the law of phi_tilde
    phi_tilde = TorusMorphism._derived(
        push.source,
        phi.source,
        hstack(comp.f_sharp, push.f_sharp),
        vstack(comp.f_hash, push.f_hash),
    )
    scaled = degree * Matrix.identity(2)
    composite = compose(phi_tilde, phi)
    cyclic = prod(factors) == degree and factors[0] == 1
    # the generator's coordinates: its position on TE', then on TE
    x, y = generators[-1]
    flags = {
        "kernel_matches_d_torsion_TEprime": cyclic and gcd(x, den) == 1,
        "kernel_matches_d_torsion_TE": cyclic and gcd(y, den) == 1,
        "composite_is_mult_d": composite.f_sharp == scaled and composite.f_hash == scaled,
        # the pullback of the principal polarization along phi, an isogeny
        # (its Smith form showed it)
        "polarization_pullback_is_d_times_principal": phi.f_sharp * phi.f_hash == scaled,
        "kernel_sequence_exact": check_exact_sequence(inclusion, push),
        "pullback_sequence_exact": check_exact_sequence(pull, comp),
    }
    return SplitReport(
        phi.universal_cover_matrix,
        phi_tilde.universal_cover_matrix,
        kernel,
        degree,
        flags,
        phi,
        phi_tilde,
    )


def cover_from_splitting(curve, iso, factor=1):
    """Reconstruct the circle cover of a factor from a splitting isogeny.

    curve is any genus-2 MetricGraph, a curve model or not, and iso must be
    an isogeny from its Jacobian to a product of two circles (diagonal
    pairing); an iso that is no TorusMorphism raises ValueError.  The
    selected factor's universal cover row dictates the per-edge slopes of
    the walk cover.
    """
    if not isinstance(iso, TorusMorphism):
        raise ValueError("cover_from_splitting expects a TorusMorphism")
    if type(factor) is not int or factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    # the genus is checked before the Jacobian is built and kept
    _require_genus_2(curve)
    jac = jacobian(curve).torus
    if iso.source != jac:
        raise ShapeMismatch("isogeny must start at the curve's Jacobian")
    if not classify(iso).isogeny:
        raise NotIsogeny("splitting map must be an isogeny")
    pairing = iso.target.pairing
    if iso.target.rank != 2 or pairing[0, 1] != 0 or pairing[1, 0] != 0:
        raise NotProductTarget("isogeny target must be a product of two circles")
    length = pairing[factor - 1, factor - 1]
    if length <= 0:
        raise NotProductTarget("circle factors must have positive length")
    return _walk_cover(curve, iso.universal_cover_matrix.row_tuple(factor - 1), length)
