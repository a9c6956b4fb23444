"""Shared fixtures, generators, and independent oracles for the test suite.

Everything here is deterministic: generators take an explicit random.Random
so the same corpus is rebuilt identically on every run.
"""

from fractions import Fraction
from math import floor, lcm

from tropjac.errors import NotIsogeny
from tropjac.exact_lattice import Matrix, _read_exact, smith_normal_form
from tropjac.torus_category import (
    IntegralTorus,
    TorusMorphism,
    circle,
    classify,
    compose,
    image,
    quotient_by_subtorus,
)

# The running example: Jacobian of the symmetric theta graph with unit
# lengths, and its push-forward / pull-back to the base circle of length 3.

THETA_PERIOD = Matrix([[2, 1], [1, 2]])


def theta_jacobian():
    return IntegralTorus(2, THETA_PERIOD)


def degree_two_pushforward():
    return TorusMorphism(
        theta_jacobian(), circle(3), Matrix([[2], [-1]]), Matrix([[1, 0]])
    )


def degree_two_pullback():
    return TorusMorphism(
        circle(3), theta_jacobian(), Matrix([[1, 0]]), Matrix([[2], [-1]])
    )


def splitting_phi():
    """The isogeny C(1) x C(3) -> Jac assembled from the kernel inclusion
    and the pull-back; universal cover [[1, 1], [2, 0]]."""
    product = IntegralTorus(2, Matrix.diagonal([1, 3]))
    return TorusMorphism(
        product, theta_jacobian(), Matrix([[1, 2], [1, 0]]), Matrix([[0, 2], [1, -1]])
    )


# -- random generators -----------------------------------------------------


def random_unimodular(rng, n):
    """A unimodular matrix built from random shears and signed swaps."""
    m = Matrix.identity(n)
    for _ in range(2 * n + 2 if n else 0):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        shear = Matrix.identity(n)
        rows = [list(r) for r in shear.entries()]
        rows[i][j] = Fraction(rng.randint(-2, 2))
        m = m * Matrix(rows)
    if rng.random() < 0.5 and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        rows = [[Fraction(1) if c == order[r] else Fraction(0) for c in range(n)] for r in range(n)]
        m = m * Matrix(rows)
    return m


def random_subtorus_sequence(rng, max_rank=3):
    """An (inclusion, projection) pair that is exact by construction.

    Probes the middle torus with a random morphism from a product of unit
    circles, takes its image as the subtorus, and quotients by it.
    """
    n = rng.randint(2, max_rank)
    mid = IntegralTorus(n, Matrix.diagonal([rng.randint(1, 4) for _ in range(n)]))
    j = rng.randint(1, n - 1)
    probe_source = IntegralTorus(j, Matrix.identity(j))
    y = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(j)] for _ in range(n)])
    probe = TorusMorphism(probe_source, mid, (mid.pairing * y).transpose(), y)
    _, inclusion = image(probe)
    _, projection = quotient_by_subtorus(mid, inclusion)
    return inclusion, projection


def random_covolume_preserving_isogeny(rng, max_rank=3, min_rank=1):
    """An isogeny u2 . dilation . u1 between tori of equal covolume."""
    n = rng.randint(min_rank, max_rank)
    base = IntegralTorus(n, Matrix.diagonal([rng.randint(1, 4) for _ in range(n)]))
    factors = [rng.randint(1, 3) for _ in range(n)]
    dilation = TorusMorphism(
        base, base, Matrix.diagonal(factors), Matrix.diagonal(factors)
    )
    a1, b1 = random_unimodular(rng, n), random_unimodular(rng, n)
    source = IntegralTorus(n, a1.transpose().inv() * base.pairing * b1)
    u1 = TorusMorphism(source, base, a1, b1)
    a2, b2 = random_unimodular(rng, n), random_unimodular(rng, n)
    target = IntegralTorus(n, a2.transpose() * base.pairing * b2.inv())
    u2 = TorusMorphism(base, target, a2, b2)
    return compose(u2, compose(dilation, u1))


def matrix_isogeny_kernel_points(m):
    """The kernel points of an isogeny, listed by Matrix arithmetic on every
    coset representative: the reference for tav.isogeny_kernel_points,
    which lists them on int tuples over one common denominator."""
    if not classify(m).isogeny:
        raise NotIsogeny("kernel-point enumeration requires an isogeny")
    lifted = m.universal_cover_matrix.inv() * m.target.pairing
    relation = lifted.inv() * m.source.pairing
    u, s, _ = smith_normal_form(relation)
    coset_basis = lifted * u.inv()
    pairing = m.source.pairing
    inverse = pairing.inv()
    reps = [[]]
    for i in range(m.source.rank):
        reps = [prefix + [j] for prefix in reps for j in range(s[i, i])]
    points = {}
    for rep in reps:
        c = inverse * (coset_basis * Matrix.column(rep))
        point = pairing * Matrix.column([ci - floor(ci) for ci in c.column_tuple(0)])
        points[point.column_tuple(0)] = point
    return sorted(points.values(), key=lambda p: p.column_tuple(0))


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


def closure_subgroup_generated(torus, gens):
    """The points of the subgroup generated by rational points, by the coset
    closure on int pairing coordinates over their lcm denominator, each
    point made a Matrix by Matrix arithmetic: the reference for
    tav.subgroup_generated, which lists the Smith box of an HNF basis."""
    pairing = torus.pairing
    inverse = pairing.inv()
    coords = [(inverse * Matrix.column(g)).column_tuple(0) for g in gens]
    den = lcm(*(Fraction(x).denominator for c in coords for x in c))
    scaled = [tuple(int(x * den) for x in c) for c in coords]
    points = [
        pairing * Matrix.column([Fraction(x, den) for x in c])
        for c in _subgroup(scaled, den, torus.rank)
    ]
    return sorted(points, key=lambda p: p.column_tuple(0))


# -- Fraction eliminations ---------------------------------------------------
# The eliminations that exact_lattice ran on Fraction entries before it ran
# them on ints over one denominator: the references for rational_solve,
# Matrix.inv and Matrix.det.


def _divide(a, b):
    """Exact quotient of two entries; int / int would give a float."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b)
    return a / b


def fraction_rational_solve(a, b):
    """One exact solution X of A*X = B (free variables set to 0), or None."""
    m, n = a.shape
    if b.nrows != m:
        raise ValueError("shape mismatch in rational_solve")
    k = b.ncols
    work = [list(a.row_tuple(i)) + list(b.row_tuple(i)) for i in range(m)]
    pivot_cols = []
    row = 0
    for col in range(n):
        pivot_row = next((i for i in range(row, m) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        pivot = work[row][col]
        work[row] = [_divide(x, pivot) for x in work[row]]
        for i in range(m):
            if i != row and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[row])]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if any(work[i][n + j] != 0 for j in range(k)):
            return None
    solution = [[0] * k for _ in range(n)]
    for i, col in enumerate(pivot_cols):
        solution[col] = work[i][n:]
    return Matrix(solution, ncols=k)


def fraction_det(a):
    """Determinant by exact fraction elimination; det of the 0x0 matrix is 1."""
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = a.ncols
    work = [list(row) for row in a.entries()]
    sign = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        for i in range(col + 1, n):
            if work[i][col] != 0:
                factor = _divide(work[i][col], pivot)
                work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    result = sign
    for i in range(n):
        result *= work[i][i]
    return _read_exact(result)


# -- cover corpus ----------------------------------------------------------

from math import ceil, gcd  # noqa: E402

from tropjac.curves_covers import (  # noqa: E402
    DumbbellCover,
    DumbbellCurve,
    ThetaCover,
    ThetaCurve,
    cover_degree,
    target_length,
    validate_cover,
)

THETA_LENGTH_TRIPLES = [
    (1, 1, 1),
    (1, 1, 2),
    (1, 1, 4),
    (1, 2, 3),
    (2, 1, 1),
    (2, 2, 2),
    (1, 3, 1),
    (3, 1, 2),
    (2, 1, 4),
    (5, 1, 1),
]

DUMBBELL_LOOP_PAIRS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def degree_two_cover():
    return ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (2, 1, 1))


def cover_key(cover):
    """Hashable identity of a cover for membership checks."""
    if isinstance(cover, ThetaCover):
        curve = cover.curve
        return ("theta", curve.l_e, curve.l_e1, curve.l_e2, cover.windings, cover.dilations)
    curve = cover.curve
    return (
        "dumbbell",
        curve.l_loop1,
        curve.l_loop2,
        curve.l_bridge,
        cover.windings,
        cover.dilations,
    )


def named_special_covers():
    """Covers the corpus is required to contain."""
    return [
        degree_two_cover(),
        ThetaCover(ThetaCurve(1, 1, 1), (1, 1, 1), (4, 2, 2)),
        ThetaCover(ThetaCurve(1, 1, 4), (1, 1, 2), (2, 1, 1)),
        DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (2, 2)),
        DumbbellCover(DumbbellCurve(1, 1, 1), (2, 2), (1, 1)),
        DumbbellCover(DumbbellCurve(1, 1, 1), (1, 1), (1, 1)),
    ]


_CORPUS = None


def cover_corpus():
    """Every valid cover in a fixed enumeration window, both curve types.

    Windings range over 0..3, dilations over 0..4 (theta dilations subject
    to balancing), arc and target lengths derived; the window is chosen so
    the corpus comfortably exceeds two hundred covers and contains all the
    named special covers.
    """
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS
    covers = []
    for lengths in THETA_LENGTH_TRIPLES:
        curve = ThetaCurve(*lengths)
        for n in range(4):
            for n1 in range(4):
                for n2 in range(4):
                    for d_e1 in range(5):
                        for d_e2 in range(5):
                            d_e = d_e1 + d_e2
                            if d_e == 0 or d_e > 4:
                                continue
                            cover = ThetaCover(curve, (n, n1, n2), (d_e, d_e1, d_e2))
                            if validate_cover(cover).valid:
                                covers.append(cover)
    for loops in DUMBBELL_LOOP_PAIRS:
        curve = DumbbellCurve(loops[0], loops[1], 1)
        for n1 in range(4):
            for n2 in range(4):
                for d1 in range(5):
                    for d2 in range(5):
                        if d1 == 0 and d2 == 0:
                            continue
                        cover = DumbbellCover(curve, (n1, n2), (d1, d2))
                        if validate_cover(cover).valid:
                            covers.append(cover)
    _CORPUS = covers
    return covers


# -- independent oracles ---------------------------------------------------


def brute_force_lattice_index(a, b):
    """[Z : aZ + bZ] by minimizing |x·a + y·b| over a small window.

    No gcd call: the minimum over |x|, |y| <= 6 is checked to divide both
    generators, which certifies it as the index.
    """
    best = None
    for x in range(-6, 7):
        for y in range(-6, 7):
            value = abs(x * a + y * b)
            if value and (best is None or value < best):
                best = value
    assert best is not None, "zero lattice has no finite index"
    assert a % best == 0 and b % best == 0, "window too small to certify the index"
    return best


def _cover_walks(cover):
    """(start, signed length, dilation) of each edge image walk, in the
    all-positive orientation used by the winding convention."""
    if isinstance(cover, ThetaCover):
        report = validate_cover(cover)
        first_arc = report.arcs[0]
        d_e, d_e1, d_e2 = cover.dilations
        curve = cover.curve
        return [
            (Fraction(0), d_e * curve.l_e, d_e),
            (first_arc, d_e1 * curve.l_e1, d_e1),
            (first_arc, d_e2 * curve.l_e2, d_e2),
        ]
    d1, d2 = cover.dilations
    curve = cover.curve
    return [
        (Fraction(0), d1 * curve.l_loop1, d1),
        (Fraction(0), d2 * curve.l_loop2, d2),
    ]


def _pullback_slopes_integral(cover, position):
    """Literal subdivision oracle: pull the piecewise-affine function with
    divisor P - P0 back along every edge walk and check all slopes."""
    length = target_length(cover)
    if position == 0:
        return True  # the function is constant
    slope_low = (length - position) / length  # on (0, position)
    slope_high = -position / length  # on (position, length)
    for start, signed, dilation in _cover_walks(cover):
        if dilation == 0:
            continue
        a, b = (start, start + signed) if signed > 0 else (start + signed, start)
        breakpoints = {a, b}
        for k in range(floor(a / length) - 1, ceil(b / length) + 2):
            for point in (k * length, position + k * length):
                if a < point < b:
                    breakpoints.add(Fraction(point))
        ordered = sorted(breakpoints)
        for left, right in zip(ordered, ordered[1:]):
            midpoint = (left + right) / 2
            tau = midpoint - floor(midpoint / length) * length
            base_slope = slope_low if tau < position else slope_high
            direction = 1 if signed > 0 else -1
            if (direction * dilation * base_slope).denominator != 1:
                return False
    return True


def walk_slope_kernel(cover):
    """(position, order) pairs in the kernel of the pullback, by brute
    force over all torsion points of order dividing the degree."""
    degree = cover_degree(cover)
    length = target_length(cover)
    found = []
    for order in range(1, degree + 1):
        if degree % order != 0:
            continue
        for j in range(order):
            if order > 1 and (j == 0 or gcd(j, order) != 1):
                continue
            position = Fraction(j, order) * length
            if _pullback_slopes_integral(cover, position):
                found.append((position, order))
    found.sort(key=lambda pair: pair[0])
    return found


# -- closed forms of the cover invariants ------------------------------------
#
# The library derives every invariant from the harmonic form of a cover.  The
# closed forms in the winding and dilation numbers of the two curve models
# stay here as references that share none of that pipeline.

from hypothesis import strategies as st  # noqa: E402

from tropjac.cover_analysis import GammaData  # noqa: E402
from tropjac.exact_lattice import xgcd  # noqa: E402


def model_period_matrix(curve):
    """Period matrix in the fixed cycle basis: B1 = e + e2, B2 = e2 - e1 on
    the theta graph, the two loops on the dumbbell."""
    if isinstance(curve, ThetaCurve):
        return Matrix(
            [[curve.l_e + curve.l_e2, curve.l_e2], [curve.l_e2, curve.l_e1 + curve.l_e2]]
        )
    return Matrix.diagonal([curve.l_loop1, curve.l_loop2])


def model_target_length(cover):
    if isinstance(cover, ThetaCover):
        first, second = validate_cover(cover).arcs
        return first + second
    return cover.target_length


def forward_form(cover):
    """The edge walks (dilation, start, signed length) of a valid curve-model
    cover whose edges all run forward at slope equal to their dilation: P0
    lies over 0, and P1 over the first target arc on the theta curve and
    over 0 on the dumbbell, whose bridge is contracted."""
    length = model_target_length(cover)
    if isinstance(cover, ThetaCover):
        dilations, p1_position = cover.dilations, validate_cover(cover).arcs[0]
    else:
        dilations, p1_position = cover.dilations + (0,), Fraction(0)
    positions = {"P0": Fraction(0), "P1": p1_position % length}
    return tuple(
        (dilation, positions[tail], dilation * edge_length)
        for dilation, (tail, _, edge_length) in zip(dilations, cover.curve.edges)
    )


def winding_pushforward(cover):
    """(f_sharp, f_hash) of the pushforward, read from dilations and windings."""
    if isinstance(cover, ThetaCover):
        n, n1, n2 = cover.windings
        d_e, d_e1, _ = cover.dilations
        return Matrix([[d_e], [-d_e1]]), Matrix([[n + n2 - 1, n2 - n1]])
    n1, n2 = cover.windings
    d1, d2 = cover.dilations
    return Matrix([[d1], [d2]]), Matrix([[n1, n2]])


def _kernel_direction(f_hash):
    """A primitive integer column spanning the kernel of a nonzero 1x2 row."""
    a, b = int(f_hash[0, 0]), int(f_hash[0, 1])
    g = gcd(a, b)
    return -b // g, a // g


def xgcd_kernel_length(cover):
    """|v P w| for the kernel direction w and a functional v built from an
    extended gcd of the two dilations that define f_sharp; any such v gives
    the same value because w pairs to zero against f_sharp."""
    _, f_hash = winding_pushforward(cover)
    w = Matrix.column(_kernel_direction(f_hash))
    _, x, y = xgcd(cover.dilations[0], cover.dilations[1])
    v = Matrix([[y, x]]) if isinstance(cover, ThetaCover) else Matrix([[-y, x]])
    return abs((v * model_period_matrix(cover.curve) * w)[0, 0])


def closed_form_gamma(cover):
    """GammaData from a_sharp = gcd of the defining dilations, the quotient
    row f_sharp^T / a_sharp, and a vector completing the kernel direction."""
    left, right = cover.dilations[0], cover.dilations[1]
    g = gcd(left, right)
    if isinstance(cover, ThetaCover):
        wq = Matrix([[left // g, -(right // g)]])
    else:
        wq = Matrix([[left // g, right // g]])
    _, f_hash = winding_pushforward(cover)
    w1, w2 = _kernel_direction(f_hash)
    _, a, b = xgcd(w1, w2)
    vq = Matrix([[-b], [a]])
    l_tilde = abs((wq * model_period_matrix(cover.curve) * vq)[0, 0])
    return GammaData(l_tilde, g, l_tilde * g / model_target_length(cover))


def winding_component_count(cover):
    """Index of the image of f_hash: the gcd of its entries."""
    _, f_hash = winding_pushforward(cover)
    return gcd(int(f_hash[0, 0]), int(f_hash[0, 1]))


def divisor_pullback_kernel(cover):
    """(position, order) pairs of the pullback kernel, by the divisor loop: a
    class of order m | degree at j·l/m, gcd(j, m) = 1, is in the kernel when
    every dilation satisfies d·j ≡ 0 (mod m)."""
    degree = cover_degree(cover)
    length = model_target_length(cover)
    found = []
    for m in range(1, degree + 1):
        if degree % m != 0:
            continue
        for j in range(m):
            if m > 1 and (j == 0 or gcd(j, m) != 1):
                continue
            if all(d * j % m == 0 for d in cover.dilations):
                found.append((Fraction(j, m) * length, m))
    found.sort(key=lambda pair: pair[0])
    return found


# -- covers beyond the corpus ------------------------------------------------

MAX_WINDING = 40
MAX_DILATION = 60

_positive_rationals = st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))


@st.composite
def theta_covers(draw):
    """Valid theta covers up to degree 9480.  Arcs, windings and dilations
    come first; the edge lengths are solved from the realizability
    equations, so every edge length is positive."""
    first = draw(st.one_of(st.just(Fraction(0)), _positive_rationals))
    second = draw(_positive_rationals)
    # with l~1 = 0 the edge e needs n >= 2 to have positive length
    n = draw(st.integers(1 if first else 2, MAX_WINDING))
    n1, n2 = draw(st.integers(1, MAX_WINDING)), draw(st.integers(1, MAX_WINDING))
    d_e1, d_e2 = draw(st.integers(1, MAX_DILATION)), draw(st.integers(1, MAX_DILATION))
    d_e = d_e1 + d_e2
    curve = ThetaCurve(
        (n * first + (n - 1) * second) / d_e,
        ((n1 - 1) * first + n1 * second) / d_e1,
        ((n2 - 1) * first + n2 * second) / d_e2,
    )
    return ThetaCover(curve, (n, n1, n2), (d_e, d_e1, d_e2))


@st.composite
def dumbbell_covers(draw):
    """Valid dumbbell covers up to degree 4800, one loop possibly
    contracted.  The target length, windings and dilations come first; each
    loop that is not contracted gets the length n·l/d."""
    length = draw(_positive_rationals)
    d1 = draw(st.integers(0, MAX_DILATION))
    d2 = draw(st.integers(1 if d1 == 0 else 0, MAX_DILATION))
    loops, windings = [], []
    for d in (d1, d2):
        n = draw(st.integers(1, MAX_WINDING)) if d else 0
        windings.append(n)
        loops.append(n * length / d if d else draw(_positive_rationals))
    curve = DumbbellCurve(loops[0], loops[1], draw(_positive_rationals))
    return DumbbellCover(curve, tuple(windings), (d1, d2))


def model_covers():
    return st.one_of(theta_covers(), dumbbell_covers())


MAX_KERNEL_GCD = 3000

# target lengths with denominators that share factors with g or not
_target_lengths = st.builds(Fraction, st.integers(1, 97), st.integers(1, 60))


@st.composite
def wide_kernel_covers(draw):
    """Valid theta and dumbbell covers whose dilations are g·a and g·b with
    g up to MAX_KERNEL_GCD, so that the pullback kernel lists at least g
    points, over a target of any positive rational length."""
    g = draw(st.integers(1, MAX_KERNEL_GCD))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        length = draw(_target_lengths)
        curve = DumbbellCurve(n1 * length / (g * a), n2 * length / (g * b), draw(_target_lengths))
        return DumbbellCover(curve, (n1, n2), (g * a, g * b))
    # the target arcs l~1, l~2 come first, as in theta_covers
    first, second = draw(_target_lengths), draw(_target_lengths)
    n = draw(st.integers(1, 3))
    curve = ThetaCurve(
        (n * first + (n - 1) * second) / (g * (a + b)),
        ((n1 - 1) * first + n1 * second) / (g * a),
        ((n2 - 1) * first + n2 * second) / (g * b),
    )
    return ThetaCover(curve, (n, n1, n2), (g * (a + b), g * a, g * b))
