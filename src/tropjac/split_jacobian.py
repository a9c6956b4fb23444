"""Split Jacobians of genus-2 graphs.

A strongly optimal cover mu (connected pushforward kernel, no dilation
factor) splits the Jacobian: the kernel circle TE' and the target circle TE
assemble into an isogeny TE' x TE -> Jac whose kernel, degree, and
polarization behaviour are all pinned down by the degree of mu.  The
complementary cover realizes the projection onto TE' geometrically.
"""

from collections import namedtuple
from fractions import Fraction

from .cover_analysis import component_count, kernel_length, quotient_and_gamma
from .curves_covers import (
    DumbbellCurve,
    GeneralCircleCover,
    ThetaCurve,
    _analysis_of,
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
from .tav import (
    Polarization,
    check_exact_sequence,
    isogeny_kernel_points,
    pullback_polarization,
)
from .torus_category import IntegralTorus, TorusMorphism, classify, compose


# The cover of the kernel circle complementary to a strongly optimal cover:
# the kernel circle length, per-edge dilations and slope signs in the fixed
# edge order, the degree, and the full walk description.
ComplementaryCover = namedtuple(
    "ComplementaryCover", ["target_length", "dilations", "signs", "degree", "general"]
)


class SplitReport(
    namedtuple(
        "SplitReport",
        ["phi", "phi_tilde", "kernel_points", "degree", "flags",
         "phi_morphism", "phi_tilde_morphism"],
    )
):
    """Everything verify_split_package checks about a splitting, with the
    two isogenies recorded by their universal cover matrices."""

    __slots__ = ()

    @property
    def all_flags_hold(self):
        return all(self.flags.values())


def strong_optimality_gap(cover):
    """None when the Jacobian splits off the target circle (connected
    pushforward kernel, no dilation factor), else the reason it does not."""
    gamma = quotient_and_gamma(cover)
    if gamma.a_hash != 1:
        return f"pushforward kernel has {component_count(cover)} components"
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
    """GeneralCircleCover of the graph with the given universal cover row.

    Each edge's slope pairs the row with the edge's cycle coefficients, and
    each vertex lies over the integral of the slopes along the BFS tree path
    from the root, which lies over 0.
    """
    cycles = graph.cycle_basis()
    slopes = [
        sum(entry * cycle[edge] for entry, cycle in zip(row, cycles))
        for edge in range(len(graph.edges))
    ]
    root = graph.vertices[0]
    positions = {
        vertex: sum(
            sign * slopes[edge] * graph.edges[edge][2]
            for edge, sign in graph.tree_path(root, vertex)
        ) % length
        for vertex in graph.vertices
    }
    general = GeneralCircleCover(
        graph,
        length,
        [
            (abs(slope), positions[tail], slope * edge_length)
            for slope, (tail, _, edge_length) in zip(slopes, graph.edges)
        ],
    )
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
    analysis = _analysis_of(cover)
    length = kernel_length(cover)
    general = _walk_cover(
        analysis.form.graph, analysis.kernel_direction.column_tuple(0), length
    )
    degree = cover_degree(general)
    if degree != cover_degree(cover):
        raise InvariantViolation(f"complementary degree {degree} differs from the cover's")
    signs = tuple(0 if s == 0 else (1 if s > 0 else -1) for s in general.slopes)
    return ComplementaryCover(length, general.dilations, signs, degree, general)


def splitting_isogeny(cover):
    """The isogeny TE' x TE -> Jac of a strongly optimal cover, assembled
    from the kernel inclusion and the pullback, with its kernel points."""
    _require_strongly_optimal(cover)
    analysis = _analysis_of(cover)
    te_prime, inclusion = analysis.kernel
    pull = analysis.pullback
    length = analysis.form.target_length
    source = IntegralTorus(
        2, block_diagonal(te_prime.pairing, Matrix([[length]]))
    )
    phi = TorusMorphism(
        source,
        analysis.jacobian.torus,
        vstack(inclusion.f_sharp, pull.f_sharp),
        hstack(inclusion.f_hash, pull.f_hash),
    )
    return phi, isogeny_kernel_points(phi)


def complementary_pushforward(cover):
    """Jac -> TE', the projection killing the pulled-back circle."""
    analysis = _analysis_of(cover)
    push = analysis.pushforward
    te_prime, _ = analysis.kernel
    w = analysis.kernel_direction
    length = te_prime.pairing[0, 0]
    f_hash = (w.transpose() * push.source.pairing) * Fraction(1, length)
    return TorusMorphism(push.source, te_prime, w, f_hash)


def _torsion_positions(length, degree):
    return [Fraction(j, degree) * length for j in range(degree)]


def verify_split_package(cover):
    """Run every check of the splitting theorem on one cover.

    Flags: the kernel of phi projects onto the full degree-torsion of both
    circle factors, phi_tilde . phi is multiplication by the degree, the
    principal polarization pulls back to degree times the principal one,
    and both short sequences (kernel inclusion then pushforward; pullback
    then complementary pushforward) are exact.
    """
    phi, kernel_points = splitting_isogeny(cover)
    analysis = _analysis_of(cover)
    degree = analysis.valid_report.degree
    push, pull = analysis.pushforward, analysis.pullback
    _, inclusion = analysis.kernel
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
    first = sorted(point[0, 0] for point in kernel_points)
    second = sorted(point[1, 0] for point in kernel_points)
    pulled = pullback_polarization(phi, Polarization(Matrix.identity(2)))
    flags = {
        "kernel_matches_d_torsion_TEprime": first == _torsion_positions(length_prime, degree),
        "kernel_matches_d_torsion_TE": second == _torsion_positions(length, degree),
        "composite_is_mult_d": composite.f_sharp == scaled and composite.f_hash == scaled,
        "polarization_pullback_is_d_times_principal": pulled.zeta == scaled,
        "kernel_sequence_exact": check_exact_sequence(inclusion, push),
        "pullback_sequence_exact": check_exact_sequence(pull, comp),
    }
    return SplitReport(
        phi.universal_cover_matrix,
        phi_tilde.universal_cover_matrix,
        kernel_points,
        degree,
        flags,
        phi,
        phi_tilde,
    )


def cover_from_splitting(curve, iso, factor=1):
    """Reconstruct the circle cover of a factor from a splitting isogeny.

    iso must be an isogeny from the curve's Jacobian to a product of two
    circles (diagonal pairing); the selected factor's universal cover row
    dictates the per-edge slopes of the walk cover.
    """
    if not isinstance(curve, (ThetaCurve, DumbbellCurve)):
        raise ValueError("cover_from_splitting expects a genus-2 curve model")
    if factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
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
