"""Torus-level analysis of circle covers of genus-2 graphs.

A valid cover mu of a circle induces mu_* : Jac -> C(l) on Jacobians.  It is
read off the harmonic form of the cover (curves_covers.harmonic_form): the
slopes give the lattice map, and the pairing law gives its dual.  The kernel
circle, the connectedness data and the kernel of the pullback mu^* then
follow from mu_* by exact integer linear algebra, the same way for every
cover.
"""

from fractions import Fraction
from math import gcd

from .curves_covers import DumbbellCover, harmonic_form, jacobian
from .curves_covers import require_valid  # noqa: F401  (bound here for bench/test_bench.py)
from .errors import InvalidCover, SourceMismatch
from .exact_lattice import Matrix, integer_kernel, xgcd
from .torus_category import TorusMorphism, circle, compose, dual_morphism, kernel0


class GammaData:
    """Kernel-quotient data of a pushforward: the length of the quotient
    circle, the multiplicity a_sharp of the quotient map on lattices, and
    the multiplicity a_hash on dual lattices (the component count)."""

    __slots__ = ("l_tilde", "a_sharp", "a_hash")

    def __init__(self, l_tilde, a_sharp, a_hash):
        self.l_tilde = l_tilde
        self.a_sharp = a_sharp
        self.a_hash = a_hash

    def __eq__(self, other):
        if not isinstance(other, GammaData):
            return NotImplemented
        return (self.l_tilde, self.a_sharp, self.a_hash) == (
            other.l_tilde,
            other.a_sharp,
            other.a_hash,
        )

    def __repr__(self):
        return f"GammaData(l_tilde={self.l_tilde}, a_sharp={self.a_sharp}, a_hash={self.a_hash})"


class TorsionDivisor:
    """A divisor class P - P0 of finite order in the target Jacobian,
    recorded by the position of P on the circle and the order."""

    __slots__ = ("position", "order")

    def __init__(self, position, order):
        self.position = position
        self.order = order

    def __eq__(self, other):
        if not isinstance(other, TorsionDivisor):
            return NotImplemented
        return (self.position, self.order) == (other.position, other.order)

    def __hash__(self):
        return hash((TorsionDivisor, self.position, self.order))

    def __repr__(self):
        return f"TorsionDivisor(position={self.position}, order={self.order})"


class OptimalityVerdict:
    """Both optimality readings, reported side by side: connectedness of the
    pushforward kernel, the dumbbell gcd criterion (None for theta covers),
    and the component count.  When the two criteria disagree, note says why."""

    __slots__ = ("kernel_connected", "dumbbell_gcd_free", "component_count", "note")

    def __init__(self, kernel_connected, dumbbell_gcd_free, component_count, note=None):
        self.kernel_connected = kernel_connected
        self.dumbbell_gcd_free = dumbbell_gcd_free
        self.component_count = component_count
        self.note = note

    def __repr__(self):
        return (
            f"OptimalityVerdict(kernel_connected={self.kernel_connected}, "
            f"dumbbell_gcd_free={self.dumbbell_gcd_free}, "
            f"component_count={self.component_count}, note={self.note!r})"
        )


def _universal_row(graph, slopes):
    """The row r with slopes = C·r for the cycle basis C of the graph.

    Every basis cycle has an edge that no other basis cycle uses, with
    coefficient ±1 (the non-tree edge of a fundamental cycle, or e, e1 and
    the loops on the curve models), so r is read off those edges.
    """
    cycles = graph.cycle_basis()
    row = []
    for cycle in cycles:
        private = next(
            edge
            for edge, coefficient in enumerate(cycle)
            if coefficient and sum(1 for other in cycles if other[edge]) == 1
        )
        row.append(slopes[private] * cycle[private])
    return row


def pushforward_morphism(cover):
    """mu_* : Jac(source) -> C(l) on Jacobians, for a valid cover.

    f_sharp is the universal cover row of the slopes; f_hash then follows
    from the pairing law f_sharp^T P = l·f_hash.
    """
    form = harmonic_form(cover)
    jac = jacobian(form.graph).torus
    length = form.target_length
    f_sharp = Matrix.column(_universal_row(form.graph, form.slopes))
    f_hash = f_sharp.transpose() * jac.pairing * (1 / length)
    return TorusMorphism(jac, circle(length), f_sharp, f_hash)


def pullback_morphism(cover):
    """mu^* : C(l) -> Jac(source), the dual of the pushforward."""
    return dual_morphism(pushforward_morphism(cover))


def _content(f_sharp):
    """gcd of the entries of an integral lattice map."""
    return gcd(*(int(x) for row in f_sharp.entries() for x in row))


def kernel_length(cover):
    """Length of the connected kernel circle of the pushforward."""
    kernel_circle, _ = kernel0(pushforward_morphism(cover))
    return kernel_circle.pairing[0, 0]


def quotient_and_gamma(cover):
    """Quotient data of the pushforward kernel.

    The quotient map to a circle of length l_tilde has lattice multiplicity
    a_sharp = the gcd of the entries of f_sharp and dual multiplicity
    a_hash, tied together by l_tilde · a_sharp = l · a_hash.  l_tilde pairs
    the primitive row f_sharp^T / a_sharp with a vector completing the
    kernel direction to a unimodular basis.
    """
    push = pushforward_morphism(cover)
    a_sharp = _content(push.f_sharp)
    wq = push.universal_cover_matrix * Fraction(1, a_sharp)
    w = integer_kernel(push.f_hash)
    _, a, b = xgcd(w[0, 0], w[1, 0])  # a·w1 + b·w2 = 1 since w is primitive
    vq = Matrix([[-b], [a]])  # completes w to a unimodular basis
    l_tilde = abs((wq * push.source.pairing * vq)[0, 0])
    a_hash = l_tilde * a_sharp / push.target.pairing[0, 0]
    return GammaData(l_tilde, a_sharp, a_hash)


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


def factor_pushforward(first, second):
    """The circle isogeny through which first's pushforward factors via
    second's, or None when no such factorization exists.

    Both covers must live on the same curve; the candidate multiplicities
    are forced by the gcd and length data and then verified exactly.
    """
    if type(first) is not type(second) or first.curve != second.curve:
        raise SourceMismatch("covers must share the same source curve")
    push1 = pushforward_morphism(first)
    push2 = pushforward_morphism(second)
    if integer_kernel(push1.f_hash) != integer_kernel(push2.f_hash):
        return None
    g1 = _content(push1.f_sharp)
    g2 = _content(push2.f_sharp)
    if g1 % g2 != 0:
        return None
    a_sharp = g1 // g2
    length1 = push1.target.pairing[0, 0]
    length2 = push2.target.pairing[0, 0]
    a_hash = Fraction(a_sharp) * length2 / length1
    if a_hash.denominator != 1:
        return None
    a_hash = int(a_hash)
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
