"""Torus-level analysis of circle covers of genus-2 graphs.

A valid cover mu of a circle induces mu_* : Jac -> C(l) on Jacobians.  It is
read off the harmonic form of the cover (curves_covers.harmonic_form): the
slopes give the lattice map, and the pairing law gives its dual.  The kernel
circle, the connectedness data and the kernel of the pullback mu^* then
follow from mu_* by exact integer linear algebra, the same way for every
cover.

Each cover builds these once.  The cover is its own analysis: on first use
it derives and then keeps the validation report, the harmonic form, mu_*,
the kernel circle and its inclusion, the gamma data and mu^*, and every
function here reads them from the cover.  Covers, their graphs and the kept
values are immutable, so a kept value never goes stale; the values returned
here are shared, never copied.
"""

from collections import namedtuple
from math import gcd, isqrt

from .curves_covers import DumbbellCover, _circle_cover, _coordinates, _rational, harmonic_form
from .curves_covers import GammaData  # noqa: F401  (returned by quotient_and_gamma)
from .curves_covers import require_valid  # noqa: F401  (bound here for bench/test_bench.py)
from .errors import SourceMismatch
from .exact_lattice import _quotient, rational_solve
from .tav import _require_listable
from .torus_category import TorusMorphism, compose


# A divisor class P - P0 of finite order in the target Jacobian, recorded by
# the position of P on the circle and the order.  A position is stored as a
# Matrix entry is: an int when it is integral, else a Fraction.
TorsionDivisor = namedtuple("TorsionDivisor", ["position", "order"])

# A finite cyclic group of the target Jacobian: its order and the position of
# its generator, a divisor class of that order, stored as a position is.
CyclicKernel = namedtuple("CyclicKernel", ["order", "generator"])

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
    return _circle_cover(cover)._pushforward


def pullback_morphism(cover):
    """mu^* : C(l) -> Jac(source), the dual of the pushforward."""
    return _circle_cover(cover)._pullback


def kernel_length(cover):
    """Length of the connected kernel circle of the pushforward."""
    kernel_circle, _ = _circle_cover(cover)._kernel
    return kernel_circle.pairing[0, 0]


def quotient_and_gamma(cover):
    """Quotient data of the pushforward kernel.

    mu_* factors as the quotient by its kernel circle, onto a circle of
    length l_tilde, followed by an isogeny of circles with lattice
    multiplicity a_sharp, the gcd of the entries of f_sharp, and dual
    multiplicity a_hash, the gcd of the entries of f_hash (the index of its
    image, hence the component count).  The pairing law of that isogeny,
    l_tilde · a_sharp = l · a_hash, gives l_tilde.
    """
    return _circle_cover(cover)._gamma


def component_count(cover):
    """Number of connected components of the kernel of the pushforward."""
    return quotient_and_gamma(cover).a_hash


def pullback_kernel_group(cover):
    """Kernel of mu^* : Jac(target) -> Jac(source) as a cyclic group.

    A class of order m at position j·l/m, gcd(j, m) = 1, lies in the kernel
    exactly when m divides d·j, hence d, for every dilation d.  The kernel is
    therefore the g-torsion of the target circle, g the gcd of all
    dilations, generated by the class at l/g: CyclicKernel(g, l/g), with the
    step stored as every number is, by one exact_lattice._quotient.  Nothing
    is listed, so no order is refused.
    """
    form = harmonic_form(cover)
    g = gcd(*form.dilations)
    return CyclicKernel(g, _quotient(form.target_length, g))


def _torsion_orders(g, write=int, count=None):
    """write(g // gcd(j, g)) for j in range(count), count = g if not given:
    the order of the j-th multiple of a generator of order g, as write
    writes it, with no gcd per multiple.  It is also the denominator of
    j·n/g in lowest terms for any n prime to g.  gcd(j, g) is the largest
    divisor e of g that divides j, so one pass over the divisors e of g in
    increasing order, each a slice store of write(g // e) at the multiples
    of e below count, leaves every j with its order: at most
    count·(1 + ln(count)) stores from C and one write per divisor.  Apart
    from e = 1 and e = g, only the divisors below count are stored at a j
    other than 0.  Those up to min(isqrt(g), count - 1) come from trial
    division, so g is never factored, and the others are their cofactors
    below count."""
    count = g if count is None else count
    orders = [write(g)] * count  # e = 1
    small = [e for e in range(2, min(isqrt(g), count - 1) + 1) if g % e == 0]
    for e in small:
        orders[::e] = [write(g // e)] * -(-count // e)
    for m in reversed(small):  # the cofactors e = g // m, increasing
        if m * m != g and (e := g // m) < count:
            orders[::e] = [write(m)] * -(-count // e)
    if g > 1:  # e = g, at j = 0 and at each multiple of g below count
        orders[::g] = [write(1)] * -(-count // g)
    return orders


def pullback_kernel(cover):
    """Kernel of mu^* as its torsion divisors, listed from
    pullback_kernel_group: the j-th multiple of the generator num/den sits
    at j·num/den and has order g/gcd(j, g), read from the divisor sieve of
    _torsion_orders.  The first multiple is the generator itself; each
    other is one exact_lattice._quotient of two ints, an int when it is
    integral, else the one Fraction built for it.  A kernel of more than
    tav.MAX_LISTED_POINTS divisors raises KernelTooLarge before any is
    listed.
    """
    g, step = pullback_kernel_group(cover)
    _require_listable(g, "the pullback kernel")
    num, den = step.numerator, step.denominator
    return [
        TorsionDivisor(step if j == 1 else _quotient(j * num, den), order)
        for j, order in enumerate(_torsion_orders(g))
    ]


def q_gamma_profile(cover, position):
    """Per-edge slope profile of the connecting function at a target point.

    Returns d_e·t/l for each edge, where t is the position on the target
    circle; the opposite-arc branch differs from this one by the integer
    d_e, so integrality of the profile does not depend on the branch.
    """
    t = _rational(position, "position")
    form = harmonic_form(cover)
    return tuple(_quotient(d * t, form.target_length) for d in form.dilations)


def is_optimal(cover):
    """Both optimality readings of a cover, never collapsed into one.

    kernel_connected asks that the pushforward kernel be connected;
    the dumbbell gcd criterion asks gcd(d1, d2) = gcd(n1, n2) = 1, which is
    a_sharp = a_hash = 1, as a valid dumbbell has f_sharp = (d1, d2) and
    f_hash = (n1, n2) by its loop equations d_i·l_i = n_i·l.  The two
    disagree exactly when the kernel is connected but the cover still
    factors through a dilation (a_sharp > 1); the note records that case.
    """
    gamma = quotient_and_gamma(cover)
    count = gamma.a_hash
    kernel_connected = count == 1
    if isinstance(cover, DumbbellCover):
        dumbbell_gcd_free = gamma.a_hash == 1 and gamma.a_sharp == 1
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
    """The circle isogeny psi with psi ∘ second's pushforward = first's,
    or None when no such factorization exists.

    Both covers must have the same source graph with the same cycle basis,
    as curves_covers._coordinates reads them off the sparse cycles.
    psi's f_sharp is solved from push2.f_sharp * X = push1.f_sharp, whose
    one rational solution is unique, as a valid cover's f_sharp is a
    nonzero column; its f_hash is then read from psi's pairing law
    a_sharp · l2 = l1 · a_hash.  psi exists when both are integral and the
    composite reproduces first's f_hash, which is verified exactly.
    """
    if _coordinates(_circle_cover(first).source) != _coordinates(_circle_cover(second).source):
        raise SourceMismatch("covers must share the same source curve")
    push1, push2 = first._pushforward, second._pushforward
    sharp = rational_solve(push2.f_sharp, push1.f_sharp)
    if sharp is None or not sharp.is_integral():
        return None
    f_hash = sharp * _quotient(push2.target.pairing[0, 0], push1.target.pairing[0, 0])
    if not f_hash.is_integral():
        return None
    psi = TorusMorphism(push2.target, push1.target, sharp, f_hash)
    return psi if compose(psi, push2) == push1 else None
