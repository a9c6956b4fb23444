import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from oracles import fraction_det, fraction_rational_solve
import tropjac.exact_lattice as exact_lattice
from tropjac.torus_category import circle
from tropjac.exact_lattice import (
    Matrix,
    _read_exact,
    column_hnf,
    hstack,
    integer_kernel,
    invariant_factors,
    quotient_group,
    rational_solve,
    row_hnf,
    smith_normal_form,
    vstack,
    xgcd,
)


def int_matrix_lists(max_dim=4, lo=-9, hi=9):
    def rows(shape):
        m, n = shape
        return st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )

    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(rows)


# -- Matrix basics ---------------------------------------------------------


def test_matrix_shapes_and_empty():
    a = Matrix([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    empty_rows = Matrix([], ncols=3)
    assert empty_rows.shape == (0, 3)
    empty_cols = Matrix.zeros(3, 0)
    assert empty_cols.shape == (3, 0)
    assert Matrix([], ncols=0).det() == 1


def test_matrix_requires_ncols_when_no_rows():
    pytest.raises(ValueError, lambda: Matrix([]))


@pytest.mark.parametrize("ncols", [-1, 2.5, "2", True])
def test_matrix_without_rows_refuses_a_bad_column_count(ncols):
    # with no rows, ncols alone sets the shape, so it must be an int >= 0
    pytest.raises(ValueError, Matrix, [], ncols=ncols)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Matrix.identity(-1),
        lambda: Matrix.identity(2.5),
        lambda: Matrix.zeros(-1, 2),
        lambda: Matrix.zeros(2, -1),
        lambda: Matrix.zeros(2, "2"),
        lambda: Matrix([1, 2]),
        lambda: Matrix(3),
    ],
    ids=["identity-negative", "identity-float", "zeros-negative-rows", "zeros-negative-cols",
         "zeros-string-cols", "flat-list", "int"],
)
def test_matrix_builders_refuse_bad_shapes_with_value_error(build):
    pytest.raises(ValueError, build)


@pytest.mark.parametrize(
    "combine",
    [
        lambda m: m + 1,
        lambda m: 1 + m,
        lambda m: m - None,
        lambda m: None - m,
        lambda m: m + [[1, 2]],
        lambda m: m - Fraction(1, 2),
    ],
    ids=["plus-int", "int-plus", "minus-none", "none-minus", "plus-list", "minus-fraction"],
)
def test_matrix_sum_with_a_non_matrix_raises_type_error(combine):
    # a sum or difference is of two matrices; anything else is left to
    # the other operand, as == leaves it, and Python then raises TypeError
    pytest.raises(TypeError, combine, Matrix([[1, 2]]))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "operand",
    ["2", b"2", None, 2.0, True, Decimal(2)],
    ids=["str", "bytes", "none", "float", "bool", "decimal"],
)
def test_matrix_product_with_a_non_scalar_raises_type_error(operand, side):
    # a scalar is an int or a Fraction; anything else is left to the other
    # operand, and Python then raises TypeError
    m = Matrix([[1, 2]])
    with pytest.raises(TypeError):
        m * operand if side == "right" else operand * m


def test_matrix_product_with_a_scalar_on_either_side():
    m = Matrix([[1, 2]])
    assert m * 2 == 2 * m == Matrix([[2, 4]])
    assert m * Fraction(1, 2) == Fraction(1, 2) * m == Matrix([[Fraction(1, 2), 1]])
    assert type((m * Fraction(2))[0, 0]) is int


def test_matrix_product_and_transpose():
    a = Matrix([[2, 1], [1, 2]])
    b = Matrix([[1], [1]])
    assert a * b == Matrix([[3], [3]])
    assert a.transpose() == a
    assert (2 * b) == Matrix([[2], [2]])


# -- entry representation --------------------------------------------------


def test_integral_entries_are_ints_and_others_fractions():
    m = Matrix([[Fraction(4, 2), Fraction(1, 3), 5]])
    assert [type(x) for x in m.row_tuple(0)] == [int, Fraction, int]
    assert m.row_tuple(0) == (2, Fraction(1, 3), 5)
    assert m.is_integral() is False
    assert Matrix([[Fraction(4, 2)]]).is_integral()
    # equal entries of either type give equal matrices and hashes
    assert hash(Matrix([[Fraction(2)]])) == hash(Matrix([[2]]))


def test_matrix_rejects_floats():
    pytest.raises(ValueError, Matrix, [[0.5]])
    pytest.raises(ValueError, Matrix, [[1, 2.0]])
    pytest.raises(ValueError, Matrix, [[True]])
    pytest.raises(ValueError, Matrix, [["1e10000000"]])
    # a float is no scalar: the product is left to it, and Python raises
    pytest.raises(TypeError, lambda: Matrix([[1]]) * 0.25)
    pytest.raises(TypeError, lambda: 0.25 * Matrix([[1]]))
    pytest.raises(ValueError, circle, 0.5)


@pytest.mark.parametrize("rows", [["12"], "12", [b"12"], "", [[1, 2], "34"]])
def test_matrix_refuses_string_rows(rows):
    # a str or bytes would be read one entry, or one row, per character
    with pytest.raises(ValueError, match="sequences of entries"):
        Matrix(rows, ncols=2)


@pytest.mark.parametrize(
    "value",
    [0.5, True, "1e10000000", "2E3", "1" * 5000, "1/0", "abc", None, Decimal("1e10000000")],
)
def test_exact_reader_refuses_at_once(value):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^not "):
        _read_exact(value)
    assert time.perf_counter() - start < 1


def test_exact_reader_reads_ints_fractions_and_plain_strings():
    # a number is stored as an int when it is integral, else as a Fraction
    values = [_read_exact(x) for x in (3, Fraction(1, 3), "3/2", "1.5", " -7 ")]
    assert values == [3, Fraction(1, 3), Fraction(3, 2), Fraction(3, 2), -7]
    assert [type(x) for x in values] == [int, Fraction, Fraction, Fraction, int]
    assert [type(_read_exact(x)) for x in (Fraction(6, 3), "4/2", "2.0")] == [int, int, int]


def test_repr_prints_each_entry_with_its_own_repr():
    m = Matrix([[2, Fraction(1, 3)], [Fraction(-6, 3), 0]])
    assert repr(m) == "Matrix([[2, Fraction(1, 3)], [-2, 0]], ncols=2)"


def rational_entries():
    return st.one_of(
        st.integers(-6, 6),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    )


def rational_matrix_lists(m, n):
    row = st.lists(rational_entries(), min_size=n, max_size=n)
    return st.lists(row, min_size=m, max_size=m)


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _ref_product(a, b, ncols):
    """The product of two lists of rows on plain Fractions; an empty inner
    dimension gives zeros."""
    return [[sum((x * row[j] for x, row in zip(r, b)), Fraction(0)) for j in range(ncols)] for r in a]


def _ref_inverse(a):
    """Gauss–Jordan on plain Fractions; None when singular."""
    n = len(a)
    work = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for i in range(n):
            if i != col:
                work[i] = [x - work[i][col] * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def _assert_represents(m, reference):
    """Every entry is an int exactly when it is integral, never a float, and
    the matrix equals the plain-Fraction reference.  Its rows are a tuple of
    tuples, so no caller can change a kept, hashed matrix through them, and
    the constructor, reading them again, builds an equal matrix with the
    same hash."""
    entries = m.entries()
    assert type(entries) is tuple and all(type(row) is tuple for row in entries)
    for row in entries:
        assert len(row) == m.ncols
        for x in row:
            assert type(x) in (int, Fraction), x
            assert (type(x) is int) == (Fraction(x).denominator == 1), x
    assert [list(row) for row in entries] == reference
    read = Matrix(entries, ncols=m.ncols)
    assert read == m and hash(read) == hash(m)


@settings(max_examples=120)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_every_operation_keeps_one_representation(m, n, data):
    rows_a = data.draw(rational_matrix_lists(m, n))
    rows_b = data.draw(rational_matrix_lists(m, n))
    rows_c = data.draw(rational_matrix_lists(n, 2))
    rows_s = data.draw(rational_matrix_lists(m, m))
    scalar = data.draw(rational_entries())
    picked_rows = data.draw(st.lists(st.integers(0, m - 1), max_size=3)) if m else []
    picked_cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)) if n else []
    a, b = Matrix(rows_a, ncols=n), Matrix(rows_b, ncols=n)
    c, square = Matrix(rows_c, ncols=2), Matrix(rows_s, ncols=m)
    ra, rb, rc, rs = map(_fractions, (rows_a, rows_b, rows_c, rows_s))
    _assert_represents(a, ra)
    _assert_represents(a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
    _assert_represents(a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
    _assert_represents(-a, [[-x for x in row] for row in ra])
    _assert_represents(a * c, _ref_product(ra, rc, 2))
    scaled = [[x * Fraction(scalar) for x in row] for row in ra]
    _assert_represents(a * scalar, scaled)
    _assert_represents(scalar * a, scaled)
    transposed = a.transpose()
    assert transposed.shape == (n, m)
    _assert_represents(transposed, [[row[j] for row in ra] for j in range(n)])
    _assert_represents(
        a.submatrix(picked_rows, picked_cols), [[ra[i][j] for j in picked_cols] for i in picked_rows]
    )
    _assert_represents(hstack(a, b), [p + q for p, q in zip(ra, rb)])
    _assert_represents(vstack(a, b), ra + rb)
    assert hstack(a, b).shape == (m, 2 * n) and vstack(a, b).shape == (2 * m, n)
    assert (a * c).shape == (m, 2) and (-a).shape == a.shape
    inverse = _ref_inverse(rs)
    solution = rational_solve(square, a)
    if inverse is None:
        pytest.raises(ValueError, square.inv)
        if solution is not None:
            _assert_represents(solution, _fractions(solution.entries()))
            assert _ref_product(rs, _fractions(solution.entries()), n) == ra
    else:
        _assert_represents(square.inv(), inverse)
        _assert_represents(solution, _ref_product(inverse, ra, n))


def test_derived_matrices_are_not_read_again(monkeypatch):
    # the constructor reads caller input once; each operation below builds
    # its result from entries already stored, which are not read again
    a = Matrix([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 4)]])
    b = Matrix([[Fraction(7, 3)], [-1]])
    integral = Matrix([[2, 4, 4], [-6, 6, 12]])
    reads = []
    original = exact_lattice._read_exact
    monkeypatch.setattr(exact_lattice, "_read_exact", lambda x: reads.append(x) or original(x))
    Matrix([[Fraction(1, 2)]])
    assert len(reads) == 1  # the counter sees the constructor's reads
    reads.clear()
    results = [
        a.transpose(),
        -a,
        a * b,
        a.submatrix([1, 0], [1]),
        hstack(a, b),
        vstack(a, a),
        *smith_normal_form(integral),
        row_hnf(integral),
        rational_solve(a, b),
        a.inv(),
    ]
    monkeypatch.undo()
    assert reads == []
    assert a.inv() * a == Matrix.identity(2) and a * rational_solve(a, b) == b
    assert all(type(r) is Matrix for r in results)


def test_matrix_inverse_exact():
    a = Matrix([[2, 1], [1, 2]])
    assert a.inv() * a == Matrix.identity(2)
    assert a.inv()[0, 0] == Fraction(2, 3)
    pytest.raises(ValueError, lambda: Matrix([[1, 1], [1, 1]]).inv())


def test_stacking():
    a = Matrix([[1]])
    b = Matrix([[2]])
    assert hstack(a, b) == Matrix([[1, 2]])
    assert vstack(a, b) == Matrix([[1], [2]])


def test_xgcd_small_cases():
    assert xgcd(0, 0) == (0, 0, 0)
    g, x, y = xgcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6
    g, x, y = xgcd(-4, 6)
    assert g == 2 and -4 * x + 6 * y == 2


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(2), 2.7, 2.0, True, "2"])
def test_xgcd_refuses_anything_but_ints(a):
    # int() would truncate 1/2 and 2.7 to a wrong gcd
    pytest.raises(ValueError, xgcd, a, 1)
    pytest.raises(ValueError, xgcd, 1, a)


# -- Smith normal form -----------------------------------------------------


def test_snf_theta_period_matrix():
    a = Matrix([[2, 1], [1, 2]])
    u, s, v = smith_normal_form(a)
    assert s == Matrix([[1, 0], [0, 3]])
    assert u * a * v == s


def test_snf_zero_and_empty():
    u, s, v = smith_normal_form(Matrix.zeros(2, 3))
    assert s == Matrix.zeros(2, 3)
    assert u == Matrix.identity(2) and v == Matrix.identity(3)
    u, s, v = smith_normal_form(Matrix([], ncols=2))
    assert s.shape == (0, 2)


def test_snf_pinned_pivot_rule_single_column():
    # The smallest-|value| pivot is the -1 in row 1; the pinned rule makes
    # the transform matrix fully reproducible.
    a = Matrix([[2], [-1]])
    u, s, v = smith_normal_form(a)
    assert s == Matrix([[1], [0]])
    assert u == Matrix([[0, -1], [1, 2]])
    assert v == Matrix([[1]])


def test_invariant_factors():
    assert invariant_factors(Matrix([[2, 1], [1, 2]])) == (1, 3)
    assert invariant_factors(Matrix.identity(3)) == (1, 1, 1)
    assert invariant_factors(Matrix.zeros(2, 2)) == ()
    assert invariant_factors(Matrix.diagonal([4, 6])) == (2, 12)


def integer_matrices_with_zero_rows(max_dim=6):
    """Integer matrices up to max_dim x max_dim in which a row may be zero or
    a multiple of the first row, so rank-deficient inputs come up often."""

    def assemble(drawn):
        first = drawn[0][2]
        return [
            row if kind == "random" else [factor * x for x in first] if kind == "multiple" else [0] * len(row)
            for kind, factor, row in drawn
        ]

    def build(shape):
        m, n = shape
        row = st.tuples(
            st.sampled_from(["random", "random", "zero", "multiple"]),
            st.integers(-3, 3),
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        )
        return st.lists(row, min_size=m, max_size=m).map(assemble)

    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(build)


@settings(max_examples=150, deadline=None)
@given(integer_matrices_with_zero_rows())
def test_invariant_factors_match_sympy(rows):
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy import Matrix as SympyMatrix
    from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

    theirs = sympy_invariant_factors(SympyMatrix(rows), domain=ZZ)
    expected = tuple(abs(int(d)) for d in theirs if d != 0)
    assert invariant_factors(Matrix(rows)) == expected


@settings(max_examples=80)
@given(int_matrix_lists(lo=-6, hi=6))
def test_factor_product_is_the_gcd_of_maximal_minors(rows):
    # for a of full row rank m, the product of its invariant factors is the
    # index of its column lattice in Z^m: the gcd of its m x m minors
    a = Matrix(rows)
    if a.nrows > a.ncols:
        a = a.transpose()
    m, n = a.shape
    minors = [a.submatrix(range(m), cols).det() for cols in combinations(range(n), m)]
    assume(any(minors))
    assert prod(invariant_factors(a)) == gcd(*minors)


@settings(max_examples=80)
@given(int_matrix_lists())
def test_snf_transform_identity_and_divisibility(rows):
    a = Matrix(rows)
    u, s, v = smith_normal_form(a)
    assert u * a * v == s
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [s[i, i] for i in range(min(s.shape))]
    # off-diagonal entries vanish and invariant factors divide in sequence
    for i in range(s.nrows):
        for j in range(s.ncols):
            if i != j:
                assert s[i, j] == 0
    for d in diag:
        assert d >= 0
    for prev, nxt in zip(diag, diag[1:]):
        if nxt != 0:
            assert prev != 0 and nxt % prev == 0


def smith_matrices(square=False, max_dim=6):
    """Integer matrices of up to max_dim rows and columns, the shapes with
    no rows or no columns among them, in which a row may be zero or a
    multiple of the first row, so rank-deficient inputs come up often;
    square ones when square is set."""

    def assemble(drawn, n):
        first = drawn[0][2] if drawn else []
        rows = [
            row if kind == "random" else [factor * x for x in first] if kind == "multiple" else [0] * n
            for kind, factor, row in drawn
        ]
        return Matrix(rows, ncols=n)

    def build(shape):
        m, n = shape
        row = st.tuples(
            st.sampled_from(["random", "random", "zero", "multiple"]),
            st.integers(-3, 3),
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        )
        return st.lists(row, min_size=m, max_size=m).map(lambda drawn: assemble(drawn, n))

    dims = st.integers(0, max_dim)
    return (dims.map(lambda n: (n, n)) if square else st.tuples(dims, dims)).flatmap(build)


@settings(max_examples=200, deadline=None)
@given(smith_matrices())
def test_smith_builds_only_the_transforms_asked_for(a):
    # one elimination: S is the same whichever transforms are built, and a
    # transform that is built is the one smith_normal_form returns
    u, s, v = smith_normal_form(a)
    assert u * a * v == s and abs(u.det()) == abs(v.det()) == 1
    for left in (False, True):
        for right in (False, True):
            got_u, got_s, got_v = exact_lattice._smith(a, left, right)
            assert got_s == s
            assert got_u == u if left else got_u is None
            assert got_v == v if right else got_v is None


@settings(max_examples=200, deadline=None)
@given(smith_matrices(square=True))
def test_quotient_group_presents_z_n_over_a(a):
    group = quotient_group(a)
    if a.det() == 0:
        assert group is None
        return
    factors, den, generators = group
    assert factors == invariant_factors(a)
    assert prod(factors) == abs(a.det())
    # den is the lcm of the denominators of A^-1
    assert den == lcm(*[x.denominator for row in a.inv().entries() for x in row])
    assert len(generators) == a.nrows
    for generator, factor in zip(generators, factors):
        assert all(type(x) is int and 0 <= x < den for x in generator)
        # generator / den lies in A^-1·Z^n and has order exactly its factor
        assert all(x % den == 0 for x in (a * Matrix.column(generator)).column_tuple(0))
        assert den // gcd(den, *generator) == factor


def test_quotient_group_examples():
    assert quotient_group(Matrix([[2, 1], [1, 2]])) == ((1, 3), 3, [(0, 0), (1, 1)])
    assert quotient_group(Matrix.diagonal([4, 6])) == ((2, 12), 12, [(6, 6), (3, 10)])
    assert quotient_group(Matrix.identity(0)) == ((), 1, [])
    # singular: Z^n / A·Z^n is infinite
    assert quotient_group(Matrix.zeros(2, 2)) is None
    assert quotient_group(Matrix([[1, 2], [2, 4]])) is None
    with pytest.raises(ValueError, match="non-square"):
        quotient_group(Matrix([[1, 2]]))


# -- Hermite form and kernels ----------------------------------------------


def test_row_hnf_canonicalization():
    assert row_hnf(Matrix([[2, -1]])) == Matrix([[2, -1]])
    assert row_hnf(Matrix([[-2, 1]])) == Matrix([[2, -1]])
    assert row_hnf(Matrix([[0, 0], [1, 2]])) == Matrix([[1, 2]])
    # same row lattice, two presentations
    assert row_hnf(Matrix([[1, 2], [0, 3]])) == row_hnf(Matrix([[1, 5], [0, 3]]))


def test_integer_kernel_examples():
    assert integer_kernel(Matrix([[1, 0]])) == Matrix([[0], [1]])
    assert integer_kernel(Matrix([[2, -1]])) == Matrix([[1], [2]])
    assert integer_kernel(Matrix([[1, 2]])) == Matrix([[2], [-1]])
    assert integer_kernel(Matrix.zeros(1, 2)) == Matrix.identity(2)
    assert integer_kernel(Matrix([[2, 1], [1, 2]])).shape == (2, 0)


@settings(max_examples=60)
@given(int_matrix_lists(max_dim=3, lo=-4, hi=4))
def test_integer_kernel_exhaustive_small_coefficients(rows):
    a = Matrix(rows)
    k = integer_kernel(a)
    assert (a * k).is_zero()
    n = a.ncols
    # every small integer solution must lie in the span of the basis
    candidates = [[c] for c in range(-5, 6)]
    for _ in range(n - 1):
        candidates = [prefix + [c] for prefix in candidates for c in range(-5, 6)]
    for coeffs in candidates:
        x = Matrix.column(coeffs)
        if (a * x).is_zero():
            if k.ncols == 0:
                assert x.is_zero()
            else:
                combo = rational_solve(k, x)
                assert combo is not None and combo.is_integral()


# -- solvers ---------------------------------------------------------------


def test_rational_solve_inconsistent():
    assert rational_solve(Matrix([[1], [1]]), Matrix([[1], [2]])) is None
    sol = rational_solve(Matrix([[2]]), Matrix([[1]]))
    assert sol == Matrix([[Fraction(1, 2)]])


def test_column_hnf_drops_dependent_columns():
    assert column_hnf(Matrix([[1, 2], [2, 4]])) == Matrix([[1], [2]])
    assert column_hnf(Matrix.zeros(2, 2)).shape == (2, 0)


# -- ints over one denominator, against the Fraction eliminations ---------------


def wide_entries():
    """Ints up to 2^200 and Fractions with denominators up to 10^6; small
    ints and zeros come often enough to give dependent rows and columns."""
    big = st.integers(-(2**200), 2**200)
    return st.one_of(
        st.integers(-2, 2),
        big,
        st.builds(Fraction, big, st.integers(1, 10**6)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 10**6)),
    )


def wide_lists(m, n):
    return st.lists(st.lists(wide_entries(), min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def wide_matrices(draw, m, n):
    """An m x n matrix of wide entries, or, half the time, one of rank below
    min(m, n) drawn as a product through a narrower inner dimension."""
    if min(m, n) and draw(st.booleans()):
        r = draw(st.integers(0, min(m, n) - 1))
        return Matrix(_ref_product(draw(wide_lists(m, r)), draw(wide_lists(r, n)), n), ncols=n)
    return Matrix(draw(wide_lists(m, n)), ncols=n)


dims = st.integers(0, 7)


@st.composite
def linear_systems(draw):
    """(A, B) with A m x n and B m x k, from 0 to 7 each: B is A times a
    wide matrix (a consistent system) or drawn on its own (over-determined
    and rank-deficient ones are then mostly inconsistent)."""
    m, n, k = draw(dims), draw(dims), draw(dims)
    a = draw(wide_matrices(m, n))
    if draw(st.booleans()):
        x = draw(wide_lists(n, k))
        return a, Matrix(_ref_product([list(row) for row in a.entries()], x, k), ncols=k)
    return a, draw(wide_matrices(m, k))


def _assert_same(got, expected):
    """Equal to the oracle in value and in each entry's type; None for None."""
    if expected is None:
        assert got is None
        return
    assert got == expected
    assert [list(map(type, row)) for row in got.entries()] == [
        list(map(type, row)) for row in expected.entries()
    ]


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_rational_solve_matches_the_fraction_elimination(system):
    a, b = system
    _assert_same(rational_solve(a, b), fraction_rational_solve(a, b))


@settings(max_examples=150, deadline=None)
@given(dims.flatmap(lambda n: wide_matrices(n, n)))
def test_inverse_and_det_match_the_fraction_elimination(a):
    n = a.ncols
    expected = fraction_rational_solve(a, Matrix.identity(n))
    if expected is None:
        pytest.raises(ValueError, a.inv)
    else:
        _assert_same(a.inv(), expected)
    det = a.det()
    assert det == fraction_det(a) and type(det) is type(fraction_det(a))
    assert (det == 0) == (expected is None)


@settings(max_examples=150, deadline=None)
@given(st.tuples(dims, dims, dims), st.data())
def test_product_matches_the_fraction_product(shape, data):
    m, n, k = shape
    a, b = data.draw(wide_matrices(m, n)), data.draw(wide_matrices(n, k))
    rows = [list(row) for row in a.entries()]
    expected = Matrix(_ref_product(rows, [list(row) for row in b.entries()], k), ncols=k)
    product = a * b
    assert product.shape == (m, k)
    _assert_same(product, expected)


def test_solve_and_inverse_cost_grows_with_the_answer():
    # a 16 x 16 system with 32-bit entries: the answer has entries of some
    # 500 bits, and the elimination on ints keeps its rows that size
    rng = random.Random(16)
    a = Matrix([[rng.randrange(-(2**31), 2**31) for _ in range(16)] for _ in range(16)])
    b = Matrix([[rng.randrange(-(2**31), 2**31) for _ in range(3)] for _ in range(16)])
    start = time.perf_counter()
    solution = rational_solve(a, b)
    inverse = a.inv()
    elapsed = time.perf_counter() - start
    _assert_same(solution, fraction_rational_solve(a, b))
    _assert_same(inverse, fraction_rational_solve(a, Matrix.identity(16)))
    assert a * inverse == Matrix.identity(16)
    assert elapsed < 2
