"""Split Jacobians of genus-2 graphs.

A strongly optimal cover mu (connected pushforward kernel, no dilation
factor) splits the Jacobian: the kernel circle TE' and the target circle TE
assemble into an isogeny TE' x TE -> Jac whose kernel, degree, and
polarization behaviour are all pinned down by the degree of mu.  The
complementary cover realizes the projection onto TE' geometrically.

The isogeny's kernel stays as the ScaledPoints that tav lists, sorted int
tuples over one denominator: the two torsion flags compare those ints with
the multiples of one int step, and the report keeps them for the CLI to
write.  It becomes column matrices only where a caller asks for columns,
through splitting_isogeny or SplitReport.kernel_points.
"""

from collections import namedtuple

from .cover_analysis import kernel_length, quotient_and_gamma
from .curves_covers import (
    _circle_cover,
    _require_genus_2,
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
from .exact_lattice import Matrix, block_diagonal, hstack, vstack
from .tav import check_exact_sequence, isogeny_kernel_numerators
from .torus_category import IntegralTorus, TorusMorphism, classify, compose, dual_morphism


# The cover of the kernel circle complementary to a strongly optimal cover:
# the kernel circle length, per-edge dilations and slope signs in the fixed
# edge order, the degree, and the full walk description.
ComplementaryCover = namedtuple(
    "ComplementaryCover", ["target_length", "dilations", "signs", "degree", "general"]
)


class SplitReport(
    namedtuple(
        "SplitReport",
        ["phi", "phi_tilde", "kernel", "degree", "flags",
         "phi_morphism", "phi_tilde_morphism"],
    )
):
    """Everything verify_split_package checks about a splitting, with the
    two isogenies recorded by their universal cover matrices and the kernel
    of phi as the ScaledPoints that tav lists."""

    __slots__ = ()

    @property
    def kernel_points(self):
        """The kernel of phi as canonical source points, one column each,
        sorted coordinate-wise, as isogeny_kernel_points lists them."""
        return self.kernel.columns()

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
    """GeneralCircleCover of the graph with the given universal cover row:
    each edge's slope pairs the row with the edge's cycle coefficients."""
    cycles = graph.cycle_basis()
    slopes = [
        sum(entry * cycle[edge] for entry, cycle in zip(row, cycles))
        for edge in range(len(graph.edges))
    ]
    general = _walk_form(graph, slopes, length)
    violations = validate_cover(general).violations
    if violations:
        raise InvariantViolation(
            "constructed walk cover is inconsistent: " + "; ".join(violations)
        )
    return general


def complementary_cover(cover):
    """The cover of the kernel circle complementary to a strongly optimal
    cover; its slopes are the kernel direction paired with the cycle basis.
    """
    _require_strongly_optimal(cover)
    length = kernel_length(cover)
    _, inclusion = cover._kernel
    general = _walk_cover(cover._form.graph, inclusion.f_hash.column_tuple(0), length)
    degree = cover_degree(general)
    if degree != cover_degree(cover):
        raise InvariantViolation(f"complementary degree {degree} differs from the cover's")
    signs = tuple(0 if s == 0 else (1 if s > 0 else -1) for s in general.slopes)
    return ComplementaryCover(length, general.dilations, signs, degree, general)


def _splitting(cover):
    """The isogeny TE' x TE -> Jac of a strongly optimal cover, assembled
    from the kernel inclusion and the pullback, with its kernel as
    ScaledPoints."""
    _require_strongly_optimal(cover)
    te_prime, inclusion = cover._kernel
    pull = cover._pullback
    length = cover._form.target_length
    source = IntegralTorus(
        2, block_diagonal(te_prime.pairing, Matrix([[length]]))
    )
    phi = TorusMorphism(
        source,
        cover._pushforward.source,
        vstack(inclusion.f_sharp, pull.f_sharp),
        hstack(inclusion.f_hash, pull.f_hash),
    )
    return phi, isogeny_kernel_numerators(phi)


def splitting_isogeny(cover):
    """The isogeny TE' x TE -> Jac of a strongly optimal cover, with its
    kernel points as columns, as isogeny_kernel_points lists them."""
    phi, kernel = _splitting(cover)
    return phi, kernel.columns()


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


def _is_d_torsion(positions, den, length, degree):
    """Whether the positions n/den of the int numerators n, in any order,
    are exactly the degree-torsion j·length/degree (j = 0..degree-1) of a
    circle of the given length, where den is a multiple of the denominator
    of length, as the denominator of a kernel listing is.

    When den·length/degree is an int, unit, the positions are compared with
    the multiples j·unit as they are.  When it is not, the step is no
    position over den, so nothing matches; a degree of 1 never gets there,
    as den·length is an int.
    """
    unit, rest = divmod(length.numerator * den, length.denominator * degree)
    return not rest and sorted(positions) == [j * unit for j in range(degree)]


def verify_split_package(cover):
    """Run every check of the splitting theorem on one cover.

    Flags: the kernel of phi projects onto the full degree-torsion of both
    circle factors, phi_tilde . phi is multiplication by the degree, the
    principal polarization pulls back to degree times the principal one,
    and both short sequences (kernel inclusion then pushforward; pullback
    then complementary pushforward) are exact.
    """
    phi, kernel = _splitting(cover)
    degree = cover_degree(cover)
    push, pull = cover._pushforward, cover._pullback
    _, inclusion = cover._kernel
    comp = complementary_pushforward(cover)
    phi_tilde = TorusMorphism(
        push.source,
        phi.source,
        hstack(comp.f_sharp, push.f_sharp),
        vstack(comp.f_hash, push.f_hash),
    )
    scaled = degree * Matrix.identity(2)
    composite = compose(phi_tilde, phi)
    length_prime = phi.source.pairing[0, 0]
    length = phi.source.pairing[1, 1]
    # each kernel point's numerators: its position on TE', then on TE
    numerators, den = kernel
    flags = {
        "kernel_matches_d_torsion_TEprime": _is_d_torsion(
            [x for x, _ in numerators], den, length_prime, degree
        ),
        "kernel_matches_d_torsion_TE": _is_d_torsion(
            [y for _, y in numerators], den, length, degree
        ),
        "composite_is_mult_d": composite.f_sharp == scaled and composite.f_hash == scaled,
        # the pullback of the principal polarization along phi, an isogeny
        # (isogeny_kernel_numerators checked it)
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
    pairing); the selected factor's universal cover row dictates the
    per-edge slopes of the walk cover.
    """
    if type(factor) is not int or factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    jac = jacobian(curve).torus
    _require_genus_2(curve)
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
