"""Torus-level analysis of circle covers of genus-2 graphs.

A valid cover mu of a circle induces mu_* : Jac -> C(l) on Jacobians.  It is
read off the harmonic form of the cover (curves_covers.harmonic_form): the
slopes give the lattice map, and the pairing law gives its dual.  The kernel
circle, the connectedness data and the kernel of the pullback mu^* then
follow from mu_* by exact integer linear algebra, the same way for every
cover.

Each cover builds these once.  Its analysis (curves_covers.CoverAnalysis) is
made on first use and lives as long as the cover: it keeps the validation
report, the harmonic form, the Jacobian, mu_*, the kernel circle and
direction, the gamma data and mu^*, and every function here reads them from
it.  Covers, their graphs and the kept values are immutable, so a kept value
never goes stale; the values returned here are shared, never copied.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .curves_covers import DumbbellCover, _analysis_of, harmonic_form
from .curves_covers import GammaData  # noqa: F401  (returned by quotient_and_gamma)
from .curves_covers import require_valid  # noqa: F401  (bound here for bench/test_bench.py)
from .errors import InvalidCover, SourceMismatch
from .exact_lattice import Matrix
from .torus_category import TorusMorphism, circle, compose


# A divisor class P - P0 of finite order in the target Jacobian, recorded by
# the position of P on the circle and the order.
TorsionDivisor = namedtuple("TorsionDivisor", ["position", "order"])

# Both optimality readings, reported side by side: connectedness of the
# pushforward kernel, the dumbbell gcd criterion (None for theta covers), and
# the component count.  When the two criteria disagree, note says why.
OptimalityVerdict = namedtuple(
    "OptimalityVerdict",
    ["kernel_connected", "dumbbell_gcd_free", "component_count", "note"],
    defaults=[None],
)


def pushforward_morphism(cover):
    """mu_* : Jac(source) -> C(l) on Jacobians, for a valid cover.

    f_sharp is the universal cover row of the slopes; f_hash then follows
    from the pairing law f_sharp^T P = l·f_hash.
    """
    return _analysis_of(cover).pushforward


def pullback_morphism(cover):
    """mu^* : C(l) -> Jac(source), the dual of the pushforward."""
    return _analysis_of(cover).pullback


def kernel_length(cover):
    """Length of the connected kernel circle of the pushforward."""
    kernel_circle, _ = _analysis_of(cover).kernel
    return kernel_circle.pairing[0, 0]


def quotient_and_gamma(cover):
    """Quotient data of the pushforward kernel.

    The quotient map to a circle of length l_tilde has lattice multiplicity
    a_sharp = the gcd of the entries of f_sharp and dual multiplicity
    a_hash, tied together by l_tilde · a_sharp = l · a_hash.  l_tilde pairs
    the primitive row f_sharp^T / a_sharp with a vector completing the
    kernel direction to a unimodular basis.
    """
    return _analysis_of(cover).gamma


def _component_count(gamma):
    if Fraction(gamma.a_hash).denominator != 1:
        raise InvalidCover("component count of an invalid cover")
    return int(gamma.a_hash)


def component_count(cover):
    """Number of connected components of the kernel of the pushforward."""
    return _component_count(quotient_and_gamma(cover))


def pullback_kernel(cover):
    """Kernel of mu^* : Jac(target) -> Jac(source) as torsion divisors.

    A class of order m at position j·l/m, gcd(j, m) = 1, lies in the kernel
    exactly when m divides d·j, hence d, for every dilation d.  The kernel is
    therefore the g-torsion of the target circle, g the gcd of all dilations.
    """
    form = harmonic_form(cover)
    g = gcd(*form.dilations)
    return [
        TorsionDivisor(Fraction(j, g) * form.target_length, g // gcd(j, g))
        for j in range(g)
    ]


def q_gamma_profile(cover, position):
    """Per-edge slope profile of the connecting function at a target point.

    Returns d_e·t/l for each edge, where t is the position on the target
    circle; the opposite-arc branch differs from this one by the integer
    d_e, so integrality of the profile does not depend on the branch.
    """
    if isinstance(position, float):
        raise ValueError("position must be an exact rational")
    form = harmonic_form(cover)
    t = Fraction(position)
    return tuple(Fraction(d) * t / form.target_length for d in form.dilations)


def is_optimal(cover):
    """Both optimality readings of a cover, never collapsed into one.

    kernel_connected asks that the pushforward kernel be connected;
    the dumbbell gcd criterion asks gcd(d1, d2) = gcd(n1, n2) = 1.  The two
    disagree exactly when the kernel is connected but the cover still
    factors through a dilation (a_sharp > 1); the note records that case.
    """
    gamma = quotient_and_gamma(cover)
    count = _component_count(gamma)
    kernel_connected = count == 1
    if isinstance(cover, DumbbellCover):
        d1, d2 = cover.dilations
        n1, n2 = cover.windings
        dumbbell_gcd_free = gcd(d1, d2) == 1 and gcd(n1, n2) == 1
    else:
        dumbbell_gcd_free = None
    note = None
    if kernel_connected and gamma.a_sharp > 1:
        note = (
            "kernel is connected, but the cover factors through the "
            f"multiplication-by-{gamma.a_sharp} dilation of the target; the "
            "connectedness and gcd readings of optimality diverge here"
        )
    return OptimalityVerdict(kernel_connected, dumbbell_gcd_free, count, note)


def _source(cover):
    """The source graph of a cover and its cycle basis, which together fix
    the coordinates of the Jacobian."""
    graph = cover.source
    return graph.vertices, graph.edges, graph.cycle_basis()


def factor_pushforward(first, second):
    """The circle isogeny through which first's pushforward factors via
    second's, or None when no such factorization exists.

    Both covers must have the same source graph with the same cycle basis;
    the candidate multiplicities are forced by the gcd and length data and
    then verified exactly.
    """
    if _source(first) != _source(second):
        raise SourceMismatch("covers must share the same source curve")
    analysis1, analysis2 = _analysis_of(first), _analysis_of(second)
    if analysis1.kernel_direction != analysis2.kernel_direction:
        return None
    push1, push2 = analysis1.pushforward, analysis2.pushforward
    g1 = gcd(*push1.f_sharp.column_tuple(0))
    g2 = gcd(*push2.f_sharp.column_tuple(0))
    if g1 % g2 != 0:
        return None
    a_sharp = g1 // g2
    length1 = push1.target.pairing[0, 0]
    length2 = push2.target.pairing[0, 0]
    a_hash, rest = divmod(a_sharp * length2, length1)
    if rest:
        return None
    for sign in (1, -1):
        psi = TorusMorphism(
            circle(length2),
            circle(length1),
            Matrix([[sign * a_sharp]]),
            Matrix([[sign * a_hash]]),
        )
        if compose(psi, push2) == push1:
            return psi
    return None
