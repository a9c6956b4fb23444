"""Shared fixtures, generators, and independent oracles for the test suite.

Everything here is deterministic: generators take an explicit random.Random
so the same corpus is rebuilt identically on every run.
"""

from fractions import Fraction
from itertools import combinations
from math import floor, lcm

from tropjac.errors import NotIsogeny
from tropjac.exact_lattice import Matrix, _over_lcm, _quotient, _read_exact, smith_normal_form
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


def random_covolume_preserving_isogeny(rng, max_rank=3, min_rank=1, factors=None):
    """An isogeny u2 . dilation . u1 between tori of equal covolume: the
    dilation is diag(factors), or, when factors is None, of a random rank
    in [min_rank, max_rank] with random factors 1 to 3."""
    n = rng.randint(min_rank, max_rank) if factors is None else len(factors)
    base = IntegralTorus(n, Matrix.diagonal([rng.randint(1, 4) for _ in range(n)]))
    if factors is None:
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


def over_lcm_is_d_torsion(positions, length, degree):
    """Whether the stored-number positions, in any order, are exactly the
    degree-torsion j·length/degree of a circle of the given length, with
    the positions and the step rescaled to ints over their lcm: the
    reference for the torsion flags of split_jacobian.verify_split_package,
    which read the order and the generator of the kernel group and list no
    point."""
    step = _quotient(length, degree)
    _, (scaled, (unit,)) = _over_lcm([positions, [step]])
    return sorted(scaled) == [j * unit for j in range(degree)]


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


def _minors(a, k):
    """All k x k minors of a, as determinants of submatrices."""
    return [
        a.submatrix(rows, cols).det()
        for rows in combinations(range(a.nrows), k)
        for cols in combinations(range(a.ncols), k)
    ]


def minor_flags(m):
    """classify's flags from determinants of minors alone, with no normal
    form: the rank of a matrix is the largest k with a nonzero k x k minor.
    Surjective is f_sharp of rank target rank (the universal-cover map
    f_sharp^T is onto), finite is f_hash of rank source rank, and an image
    of full rank is saturated when the gcd of the maximal minors of f_hash,
    its index in its saturation, is 1."""

    def rank(a):
        return max((k for k in range(1, min(a.shape) + 1) if any(_minors(a, k))), default=0)

    surjective = rank(m.f_sharp) == m.target.rank
    finite = rank(m.f_hash) == m.source.rank
    injective = finite and gcd(*_minors(m.f_hash, m.source.rank)) == 1
    return (surjective, finite, injective, surjective and finite)


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


def winding_gcd_free(cover):
    """The dumbbell gcd criterion read off the windings and dilations,
    gcd(d1, d2) = gcd(n1, n2) = 1; None for a theta cover."""
    if isinstance(cover, ThetaCover):
        return None
    d1, d2 = cover.dilations
    n1, n2 = cover.windings
    return gcd(d1, d2) == 1 and gcd(n1, n2) == 1


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


def gcd_divisor_texts(kernel, opening, between, closing):
    """The divisor texts of a CyclicKernel as the CLI wrote them before the
    divisor sieve: one loop step per divisor, with gcd(j, den) for the
    position in lowest terms and gcd(j, g) for the order g/gcd(j, g)."""
    g, step = kernel
    num, den = step.numerator, step.denominator
    texts = []
    for j in range(g):
        k = gcd(j, den)
        position = j * num // k if k == den else f"{j * num // k}/{den // k}"
        texts.append(f'{opening}"position": "{position}"{between}"order": {g // gcd(j, g)}{closing}')
    return texts


# The kernel writers of the CLI as they were before the divisor sieve wrote
# the denominators of positions: one gcd(j, den) per position.  The CLI's
# _divisors and _split_points must write the same texts for every kernel.
def reference_positions(n, den, before, afters):
    """The texts before p/q after of the positions j·n/den, the j-th with
    the j-th text after of afters; the callers put the quotes of p/q into
    before and afters, so each text is one f-string of three pieces.  The
    step n/den is put in lowest terms first, so position j in lowest terms
    is j·n/k over den/k for k = gcd(j, den), a gcd of j and the reduced den,
    or the int j·n with no gcd when den is 1.  A number past Python's digit
    limit raises ValueError, which _render turns into NumberTooLarge."""
    content = gcd(n, den)
    n, den = n // content, den // content
    if den == 1:
        return [f"{before}{position}{after}" for position, after in zip(range(0, len(afters) * n, n), afters)]
    return [
        f"{before}{j * n // k}{after}" if (k := gcd(j, den)) == den else f"{before}{j * n // k}/{den // k}{after}"
        for j, after in enumerate(afters)
    ]


def reference_divisors(kernel, opening, between, closing):
    """The divisors of a cyclic kernel, order g and generator num/den, as
    the texts opening "position": "p/q" between "order": m closing, written
    by reference_positions.  The j-th sits at j·num/den and has order
    g//gcd(j, g), one gcd per divisor."""
    g, step = kernel
    tails = [f'"{between}"order": {g // gcd(j, g)}{closing}' for j in range(g)]
    return reference_positions(step.numerator, step.denominator, opening + '"position": "', tails)


def reference_split_points(kernel, opening, between, closing):
    """The points of a SplitKernel, as the texts opening "p/q" between
    "p/q" closing, written from its generator.  reference_positions writes
    one table per circle, the texts of the positions j·a/den on TE' and
    j·b/den on TE, j < d, for the steps (a, b) over den, and point m joins
    TE' text m to TE text m·r mod d, with no gcd of its own."""
    d, (a, b), r, den = kernel
    heads = reference_positions(a, den, opening + '"', [f'"{between}'] * d)
    tails = reference_positions(b, den, '"', [f'"{closing}'] * d)
    return [head + tails[m * r % d] for m, head in enumerate(heads)]


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


# -- strongly optimal covers beyond the corpus --------------------------------

from tropjac.curves_covers import MetricGraph, jacobian  # noqa: E402
from tropjac.split_jacobian import _walk_cover, strong_optimality_gap  # noqa: E402

MAX_SPLIT_DEGREE = 2001


def row_walk_cover(graph, row):
    """The walk cover of a genus-2 graph with the primitive universal cover
    row r: its target length is the content of P·r, the largest rational
    dividing both entries, for the period matrix P."""
    values = (jacobian(graph).torus.pairing * Matrix.column(row)).column_tuple(0)
    den = lcm(*(Fraction(x).denominator for x in values))
    return _walk_cover(graph, row, Fraction(gcd(*(int(x * den) for x in values)), den))


@st.composite
def _split_candidates(draw):
    kind = draw(st.sampled_from(["ladder", "dumbbell", "walk"]))
    length = draw(_target_lengths)
    if kind == "ladder":
        # the benchmark's ladder over a target of length l: degree 2k + 1
        k = draw(st.integers(1, (MAX_SPLIT_DEGREE - 1) // 2))
        curve = DumbbellCurve(length / k, length / (k + 1), draw(_target_lengths))
        return DumbbellCover(curve, (1, 1), (k, k + 1))
    if kind == "dumbbell":
        d1, d2 = draw(st.integers(1, 1000)), draw(st.integers(1, 1000))
        n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        curve = DumbbellCurve(n1 * length / d1, n2 * length / d2, draw(_target_lengths))
        return DumbbellCover(curve, (n1, n2), (d1, d2))
    a, b, c = draw(_positive_rationals), draw(_positive_rationals), draw(_positive_rationals)
    graph = draw(
        st.sampled_from(
            [
                ThetaCurve(a, b, c).graph(),
                DumbbellCurve(a, b, c).graph(),
                MetricGraph(["v"], [("v", "v", a), ("v", "v", b)]),
            ]
        )
    )
    row = draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(lambda r: gcd(*r) == 1))
    return row_walk_cover(graph, row)


def split_covers():
    """Strongly optimal covers up to degree MAX_SPLIT_DEGREE: ladder
    dumbbells and other dumbbells over rational targets, and the walk
    covers of theta, dumbbell and figure-eight graphs of rational lengths."""
    return _split_candidates().filter(
        lambda cover: strong_optimality_gap(cover) is None and cover_degree(cover) <= MAX_SPLIT_DEGREE
    )


# -- lattice-basis and Smith-form references -------------------------------

from math import prod  # noqa: E402
from operator import mul  # noqa: E402

from tropjac.cover_analysis import pushforward_morphism  # noqa: E402
from tropjac.exact_lattice import (  # noqa: E402
    _require_integral,
    column_hnf,
    integer_kernel,
    invariant_factors,
    row_hnf,
    snf_rank,
)
from tropjac.tav import ScaledPoints  # noqa: E402
from tropjac.torus_category import kernel0  # noqa: E402


# The Smith elimination as it ran on separate S, U and V lists, with each
# elementary operation a closure looping over them: exact_lattice._smith
# must return the same (U, S, V) for every input and choice of transforms.
def reference_smith(a, left, right):
    """The Smith elimination of an integer matrix: (U, S, V) with U*A*V = S,
    where U is built only when left is set and V only when right is set,
    and a transform that is not built is None.  The transforms never steer
    the elimination, so S is the same whichever of them are asked for.

    U and V are unimodular; S is diagonal with nonnegative invariant factors
    dividing in sequence.  Pivot rule: the nonzero entry of smallest absolute
    value in the remaining submatrix, ties broken by lowest (row, col).
    """
    _require_integral(a, "smith_normal_form")
    m, n = a.shape
    s = [list(row) for row in a.entries()]
    u = [[int(i == j) for j in range(m)] for i in range(m)] if left else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if right else None
    # a row operation acts on S and U, a column operation on S and V
    by_rows = [s, u] if left else [s]
    by_cols = [s, v] if right else [s]

    def swap_rows(i, j):
        for rows in by_rows:
            rows[i], rows[j] = rows[j], rows[i]

    def swap_cols(i, j):
        for rows in by_cols:
            for row in rows:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        for rows in by_rows:
            rows[dst] = [a_ + factor * b_ for a_, b_ in zip(rows[dst], rows[src])]

    def add_col(dst, src, factor):
        for rows in by_cols:
            for row in rows:
                row[dst] += factor * row[src]

    def negate_row(i):
        for rows in by_rows:
            rows[i] = [-x for x in rows[i]]

    for t in range(min(m, n)):
        # Position phase: bring the preferred pivot to (t, t) and clear its
        # row and column, restarting whenever a smaller remainder shows up.
        while True:
            nonzero = [(abs(x), i, j) for i in range(t, m) for j, x in enumerate(s[i][t:], t) if x]
            if not nonzero:
                break
            _, pi, pj = min(nonzero)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if s[t][t] < 0:
                negate_row(t)
            pivot = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // pivot
                    if q:
                        add_row(i, t, -q)
                    if s[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // pivot
                    if q:
                        add_col(j, t, -q)
                    if s[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; enforce divisibility of the rest.
            bad_row = None
            for i in range(t + 1, m):
                if any(s[i][j] % pivot for j in range(t + 1, n)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            add_row(t, bad_row, 1)
        if not nonzero:  # the rest of S is zero
            break

    return (
        Matrix._of(tuple(map(tuple, u)), m) if left else None,
        Matrix._of(tuple(map(tuple, s)), n),
        Matrix._of(tuple(map(tuple, v)), n) if right else None,
    )


def basis_exact(f, g):
    """Exactness of 0 -> source(f) -> middle -> target(g) -> 0 decided on
    canonical lattice bases: the invariant factors of g.f_hash are as many
    as the target rank and all 1, and the column HNF of f.f_hash has full
    rank and equals the integer kernel of g.f_hash."""
    factors = invariant_factors(g.f_hash)
    if len(factors) != g.target.rank or prod(factors) != 1:
        return False
    image = column_hnf(f.f_hash)
    return image.ncols == f.source.rank and image == integer_kernel(g.f_hash)


def inverse_hnf_kernel_numerators(m):
    """The kernel of an isogeny listed from f_hash^-1, the reference for
    tav.isogeny_kernel_numerators, which presents it by one Smith form.

    The columns of the inverse, the kernel's pairing coordinates, are
    written as ints over the lcm den of their denominators; the column HNF
    of [columns | den·I] is a lower-triangular basis whose pivots h_j
    divide den, and its box of sums k_j·b_j, 0 <= k_j < den/h_j, lists each
    point once.  Each point is then pairing * (c / den), as sorted int
    tuples over den times the pairing's lcm denominator.  An m whose f_hash
    has no inverse raises NotIsogeny."""
    try:
        inverse = m.f_hash.inv()
    except ValueError:
        raise NotIsogeny("kernel-point enumeration requires an isogeny") from None
    n = m.source.rank
    den, coords = _over_lcm(inverse.columns())
    lattice = Matrix(
        [[c[i] for c in coords] + [den if i == j else 0 for j in range(n)] for i in range(n)],
        ncols=len(coords) + n,
    )
    basis = column_hnf(lattice)
    coordinates = [[0] for _ in range(n)]
    for j in range(n):
        generator, count = basis.column_tuple(j), den // basis[j, j]
        for i in range(n):
            multiples = [k * generator[i] % den for k in range(count)]
            coordinates[i] = [(a + b) % den for a in coordinates[i] for b in multiples]
    pairing_den, pairing = _over_lcm(m.source.pairing.entries())
    points = list(zip(*coordinates))
    rows = [[sum(map(mul, row, point)) for point in points] for row in pairing]
    numerators = tuple(sorted(zip(*rows))) if rows else ((),)
    return ScaledPoints(numerators, den * pairing_den)


def smith_dual_polarization(zeta):
    """V * diag(a_1*a_n/a_i) * U for the Smith form S = diag(a_i) of a
    nonsingular integer zeta with transforms U and V: the dual polarization
    in Smith-adapted bases, transported back."""
    u, s, v = smith_normal_form(zeta)
    alphas = [s[i, i] for i in range(zeta.nrows)]
    return v * Matrix.diagonal([alphas[0] * alphas[-1] // a for a in alphas]) * u


def divided_complementary_f_hash(cover):
    """w^T * P * (1/l') for the period matrix P, the kernel direction w and
    the kernel circle length l' of a genus-2 cover: the f_hash that the
    pairing law of the complementary projection divides out."""
    push = pushforward_morphism(cover)
    kernel_circle, inclusion = kernel0(push)
    w = inclusion.f_hash
    return w.transpose() * push.source.pairing * _quotient(1, kernel_circle.pairing[0, 0])


def section_kernel_pairing(m):
    """The connected kernel of m with its inclusion, its pairing read as
    section^T * P_src * kernel_basis.  For the Smith form U * f_sharp * V
    of f_sharp, the rows of U past the rank r of f_sharp and the columns of
    U^-1 past r are a projection and a section of it, with
    projection * section = I.  The projection is put in Hermite form by the
    unimodular change = row_hnf(rows) * section, which takes the rows to
    their Hermite form, and the section is multiplied by change^-1 so that
    the two stay inverse.  A rank-1 kernel is oriented to a positive length
    by flipping the projection, the section and so the pairing together."""
    n1 = m.source.rank
    u, s, _ = smith_normal_form(m.f_sharp)
    r = snf_rank(s)
    projection = row_hnf(u.submatrix(range(r, n1), range(n1)))
    section = u.inv().submatrix(range(n1), range(r, n1))
    section = section * (projection * section).inv()
    kernel_basis = integer_kernel(m.f_hash)
    pairing = section.transpose() * m.source.pairing * kernel_basis
    if n1 - r == 1 and pairing[0, 0] < 0:
        projection, pairing = -projection, -pairing
    torus = IntegralTorus(n1 - r, pairing)
    return torus, TorusMorphism(torus, m.source, projection, kernel_basis)


def gcd_sign_factor_pushforward(first, second):
    """The circle isogeny psi with psi ∘ mu2_* = mu1_* for two covers with
    one source graph and cycle basis, or None, found by search: a_sharp is
    the quotient of the gcds of the two f_sharp columns, a_hash follows
    from the two target lengths, and each sign of the pair is composed with
    mu2_* and kept when the composite is mu1_*."""
    push1, push2 = pushforward_morphism(first), pushforward_morphism(second)
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


# -- dense references for the sparse cycle basis -----------------------------

import random  # noqa: E402

from tropjac.tav import reduce_point  # noqa: E402


@st.composite
def metric_graphs(draw):
    """A connected metric graph of genus 0 to 4: a random spanning tree on
    1 to 3 vertices and up to four more edges, loops and multi-edges
    allowed, then one edge cut into up to four pieces of equal length."""
    vertices = list(range(draw(st.integers(1, 3))))
    lengths = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)
    edges = [(draw(st.sampled_from(vertices[:v])), v, draw(lengths)) for v in vertices[1:]]
    edges += [
        (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)), draw(lengths))
        for _ in range(draw(st.integers(0, 4)))
    ]
    pieces = draw(st.integers(1, 4))
    if edges and pieces > 1:
        tail, head, length = edges.pop(draw(st.integers(0, len(edges) - 1)))
        stops = [tail, *range(len(vertices), len(vertices) + pieces - 1), head]
        vertices += stops[1:-1]
        edges += [(a, b, length / pieces) for a, b in zip(stops, stops[1:])]
    random.Random(draw(st.integers(0, 2**16))).shuffle(edges)
    return MetricGraph(vertices, edges)


def _dense_cycle_matrix(graph):
    """The edge-by-cycle coefficient matrix C of the dense cycle basis."""
    basis = graph.cycle_basis()
    return Matrix([[cycle[e] for cycle in basis] for e in range(len(graph.edges))], ncols=len(basis))


def dense_period_matrix(graph):
    """C^T diag(len) C by Matrix products, from the dense cycle basis."""
    c = _dense_cycle_matrix(graph)
    return c.transpose() * Matrix.diagonal([length for _, _, length in graph.edges]) * c


def dense_coordinates(graph):
    """What fixes the Jacobian coordinates of a graph, with its dense cycle
    basis: its vertices, its edges and the tuples of cycle_basis()."""
    return graph.vertices, graph.edges, graph.cycle_basis()


def dense_tree_path(graph, start, end):
    """Edge coefficients of the BFS tree path from start to end, one per
    edge: the path from the root to end less the path from the root to
    start."""
    tree = graph._root_paths
    path = [0] * len(graph.edges)
    for vertex, direction in ((end, 1), (start, -1)):
        while (step := tree[vertex]) is not None:
            vertex, index, sign = step
            path[index] += direction * sign
    return path


def dense_abel_jacobi(graph, basepoint, point):
    """abel_jacobi summed over every edge for each dense basis cycle."""
    edge, offset = point
    index = graph.edge_index(edge)
    path = dense_tree_path(graph, basepoint, graph.edges[index][0])
    coords = [
        sum(
            coefficient * edge_length * on_cycle
            for coefficient, (_, _, edge_length), on_cycle in zip(path, graph.edges, cycle)
        )
        + offset * cycle[index]
        for cycle in graph.cycle_basis()
    ]
    return reduce_point(jacobian(graph).torus, coords)
