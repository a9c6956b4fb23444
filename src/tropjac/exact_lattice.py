"""Exact integer/rational linear algebra for lattice computations.

Everything here works over arbitrary-precision rationals; floating point is
never used.  Every number the package stores has one representation: a
plain ``int`` when it is integral and a ``fractions.Fraction`` otherwise,
so an integer matrix holds ints and the normal forms work on its rows as
they are.  Only this module decides how a number is stored: _read_exact
reads every number that comes in, a matrix entry, a length or a point
coordinate, and _quotient is the package's one division.  No other module
imports ``fractions`` or divides with ``/``.

Caller input is read once, by the Matrix constructor.  A result built from
entries that are already stored numbers (a transpose, a negation, a product,
a stacking, a submatrix, a normal form or a solution) is wrapped as it is by
Matrix._of and not read again; only sums, differences and scalar products,
whose Fraction entries can come out integral, go back through the reader.

Solving, inverting, multiplying and taking determinants run on ints over
one denominator: the input is scaled once to int numerators over the lcm
of its denominators (each row of [A|B] over its own when solving), the
elimination or product works on those ints alone, and each output entry
is one exact quotient, so at most one ``Fraction`` is built per entry and
no ``Fraction`` arithmetic is done.

rational_solve is the package's one linear solver.  Every equation the
package solves for an integer matrix (a Stein factor, a circle isogeny
between two covers, a quotient relation) has at most one rational
solution, so the solver decides it, and integrality is tested on the one
solution it returns; no lattice solver over the integers is needed.
The central normal form is Smith (``U*A*V = S``) with a pinned pivot rule —
smallest absolute value, ties broken by lowest (row, column) — so that
every downstream coordinate choice is reproducible run to run.

>>> u, s, v = smith_normal_form(Matrix([[2, 1], [1, 2]]))
>>> s == Matrix([[1, 0], [0, 3]])
True
>>> u * Matrix([[2, 1], [1, 2]]) * v == s
True
"""

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul


def _rebuild(cls, *values):
    """The instance of cls whose fields, in order, are values, built
    without __init__: for values whose invariant the caller has proved, or
    that were copied or unpickled from a built instance."""
    value = cls.__new__(cls)
    for name, field in zip(cls._fields, values, strict=True):
        object.__setattr__(value, name, field)
    return value


class _Immutable:
    """Base of the package's immutable classes: their fields are set once,
    while the instance is built, and assigning to them afterwards raises.
    What is derived from a cover is kept and shared, so it must never change.

    The fields are the names in the __slots__ of the class and its bases, in
    order; the repr lists them.  Copying and pickling rebuild an instance
    from its fields alone; the parts a cover or graph keeps in its __dict__
    are derived again on first use."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for base in reversed(cls.__mro__)
            for name in vars(base).get("__slots__", ())
            if name != "__dict__"
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return _rebuild, (type(self), *(getattr(self, name) for name in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _Value(_Immutable):
    """An immutable value: equal to another instance of exactly its type
    whose fields are equal, and hashed the same way.

    The constructor of a value type checks caller input.  A value that the
    library derives from values already checked, by a construction that
    proves the type's invariant (a dual, a composite, a kernel solved from
    its pairing law), is wrapped by _derived instead, which runs no check:
    caller input is checked once, as Matrix._of reads matrix entries once."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    _derived = classmethod(_rebuild)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash((type(self), self._values(self)))


def _read_exact(x):
    """The one reader of exact numbers: x as the package stores a number,
    an int when it is integral and a Fraction otherwise.

    Ints pass as they are and a Fraction becomes its int when integral;
    any other value is read by Fraction, except a float or a bool, which is
    not an exact rational, and a Decimal or a string with an exponent,
    whose reading takes time exponential in its length
    (Decimal("1e10000000"), "1e10000000").  A refusal raises ValueError
    saying what x is not.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, (bool, float, Decimal)) or (isinstance(x, str) and ("e" in x or "E" in x)):
            raise ValueError(f"not the {type(x).__name__} {x!r}")
        try:
            x = Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not {x!r}") from exc
    return x.numerator if x.denominator == 1 else x


def _require_size(n):
    """Refuse, with ValueError, a matrix dimension that is not an int >= 0."""
    if type(n) is not int or n < 0:
        raise ValueError(f"a matrix dimension must be a nonnegative int, not {n!r}")


def _entries(row):
    """row as it is.  A str or bytes, which would be read one entry (or, as
    the rows argument, one row) per character, raises TypeError, the error
    that iterating any other non-sequence raises, so the constructor
    refuses them alike."""
    if isinstance(row, (str, bytes)):
        raise TypeError(f"not the {type(row).__name__} {row!r}")
    return row


def _over_lcm(rows):
    """Rows of entries as (den, rows of ints): int numerators over the lcm
    of all their denominators.  All-int rows come back as they are, over 1."""
    den = lcm(*[x.denominator for row in rows for x in row if type(x) is not int])
    if den == 1:
        return 1, rows
    return den, [
        [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row]
        for row in rows
    ]


def _quotient(num, den):
    """The exact quotient num/den of two stored numbers, den != 0, stored as
    every number is: an int when it is integral, else one Fraction.  This
    is the package's one division.  Two ints take divmod; any other pair
    becomes one Fraction, read back by _read_exact."""
    if type(num) is int and type(den) is int:
        if den == 1:
            return num
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return _read_exact(Fraction(num, den))


class Matrix(_Immutable):
    """Immutable matrix with exact rational entries.

    Each entry is stored as an int when it is integral and as a Fraction
    otherwise, whatever exact type it was given as; a float raises
    ValueError.  Zero-row and zero-column shapes are first class (rank-0
    tori use them), which is why the constructor takes an explicit ``ncols``
    when there are no rows to infer it from.  Like every _Immutable, a
    matrix refuses assignment once it is built: matrices are kept inside
    cover analyses and used as set members and dict keys.

    The constructor is the one gate for caller input: it reads every entry
    and checks the shape, and anything it cannot read raises ValueError.
    Every other result below is built by _of from entries already stored,
    which are not read again, except sums, differences and scalar products:
    their Fraction entries can come out integral, so the constructor reads
    them.

    >>> Matrix([[Fraction(4, 2), Fraction(1, 3)]])
    Matrix([[2, Fraction(1, 3)]], ncols=2)
    """

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows, ncols=None):
        # ints, the common entry, skip the call
        try:
            converted = tuple(
                tuple(x if type(x) is int else _read_exact(x) for x in _entries(row))
                for row in _entries(rows)
            )
        except ValueError as exc:
            raise ValueError(f"matrix entries must be exact rationals, {exc}") from exc
        except TypeError as exc:  # rows, or a row, that is not iterable
            raise ValueError(f"matrix rows must be sequences of entries, {exc}") from exc
        if converted:
            width = len(converted[0])
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row length")
            for row in converted:
                if len(row) != width:
                    raise ValueError("ragged rows")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        else:
            _require_size(ncols)
        _set_rows(self, converted)
        _set_ncols(self, ncols)

    @classmethod
    def _of(cls, rows, ncols):
        """The matrix of rows, a tuple of row tuples of stored numbers, each
        of length ncols: the builder of results, which reads nothing again."""
        matrix = cls.__new__(cls)
        _set_rows(matrix, rows)
        _set_ncols(matrix, ncols)
        return matrix

    @classmethod
    def identity(cls, n):
        _require_size(n)
        return cls._of(tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]), n)

    @classmethod
    def zeros(cls, m, n):
        _require_size(m)
        _require_size(n)
        return cls._of(((0,) * n,) * m, n)

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries], ncols=1)

    # -- shape and access ---------------------------------------------------

    @property
    def nrows(self):
        return len(self._rows)

    @property
    def ncols(self):
        return self._ncols

    @property
    def shape(self):
        return (len(self._rows), self._ncols)

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def entries(self):
        return self._rows

    def row_tuple(self, i):
        return self._rows[i]

    def column_tuple(self, j):
        return tuple(row[j] for row in self._rows)

    def columns(self):
        return [self.column_tuple(j) for j in range(self._ncols)]

    def submatrix(self, row_indices, col_indices):
        col_indices = list(col_indices)
        rows = self._rows
        return Matrix._of(
            tuple([tuple([rows[i][j] for j in col_indices]) for i in row_indices]),
            len(col_indices),
        )

    # -- predicates ---------------------------------------------------------

    def is_integral(self):
        return all(type(x) is int for row in self._rows for x in row)

    def is_zero(self):
        return all(x == 0 for row in self._rows for x in row)

    @property
    def is_square(self):
        return len(self._rows) == self._ncols

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self._ncols, self._rows))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            ncols=self._ncols,
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch in subtraction")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            ncols=self._ncols,
        )

    def __neg__(self):
        return Matrix._of(tuple([tuple([-x for x in row]) for row in self._rows]), self._ncols)

    def __mul__(self, other):
        """Matrix product, or the product with a scalar.

        A product of two matrices multiplies int numerators: each operand
        over the lcm of its denominators, and, when the product of the two
        denominators is not 1, each entry one quotient of an int sum by it.
        A zero-row operand keeps its shape.  A scalar is an int or a
        Fraction; any other operand, a bool, float or str among them, is
        NotImplemented, so Python raises TypeError."""
        if isinstance(other, Matrix):
            if self._ncols != other.nrows:
                raise ValueError("shape mismatch in multiplication")
            a_den, a = _over_lcm(self._rows)
            b_den, b = _over_lcm(other._rows)
            cols = list(zip(*b)) if b else [()] * other._ncols
            product = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])
            den = a_den * b_den
            if den != 1:
                product = tuple([tuple([_quotient(x, den) for x in row]) for row in product])
            return Matrix._of(product, other._ncols)
        if type(other) is not int and type(other) is not Fraction:
            return NotImplemented
        return Matrix([[x * other for x in row] for row in self._rows], ncols=self._ncols)

    __rmul__ = __mul__  # only a scalar reaches it, and scalars commute

    def transpose(self):
        # zip of no rows gives no columns, so a 0 x n matrix is built apart
        rows = self._rows
        return Matrix._of(tuple(zip(*rows)) if rows else ((),) * self._ncols, len(rows))

    def det(self):
        """Determinant by Bareiss elimination on ints; det of the 0x0 matrix is 1.

        The rows are scaled to int numerators over one lcm denominator, and
        the int determinant is divided by den**n at the end.  Each step of
        the elimination divides exactly by the previous pivot, so every
        entry it holds is a minor of the scaled matrix (Bareiss, Math.
        Comp. 22, 1968)."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        den, rows = _over_lcm(self._rows)
        rows = list(rows)
        sign, previous = 1, 1
        while rows:
            pivot_row = next((i for i, row in enumerate(rows) if row[0] != 0), None)
            if pivot_row is None:
                return 0
            if pivot_row:
                rows[0], rows[pivot_row] = rows[pivot_row], rows[0]
                sign = -sign
            top = rows[0]
            pivot = top[0]
            # the rows below, with the pivot column dropped
            rows = [
                [(pivot * x - row[0] * y) // previous for x, y in zip(row[1:], top[1:])]
                for row in rows[1:]
            ]
            previous = pivot
        return _quotient(sign * previous, den**self._ncols)

    def inv(self):
        """Exact inverse; raises ValueError when singular."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        inverse = rational_solve(self, Matrix.identity(self._ncols))
        if inverse is None:
            raise ValueError("matrix is singular")
        return inverse

    def __repr__(self):
        body = ", ".join("[" + ", ".join(map(repr, row)) + "]" for row in self._rows)
        return f"Matrix([{body}], ncols={self._ncols})"


# the slot setters, which fill a matrix while it is built; _Immutable
# refuses every later assignment
_set_rows, _set_ncols = Matrix._rows.__set__, Matrix._ncols.__set__


def hstack(a, b):
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch in hstack")
    return Matrix._of(
        tuple([r1 + r2 for r1, r2 in zip(a.entries(), b.entries())]), a.ncols + b.ncols
    )


def vstack(a, b):
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch in vstack")
    return Matrix._of(a.entries() + b.entries(), a.ncols)


def block_diagonal(a, b):
    top = hstack(a, Matrix.zeros(a.nrows, b.ncols))
    bottom = hstack(Matrix.zeros(b.nrows, a.ncols), b)
    return vstack(top, bottom)


def xgcd(a, b):
    """Extended Euclid: returns (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g.

    The classical iterative scheme; deterministic, with xgcd(0, 0) = (0, 0, 0).
    Both arguments must be ints: anything else raises ValueError rather than
    being truncated.
    """
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"xgcd takes two ints, not {a!r} and {b!r}")
    if a == 0 and b == 0:
        return 0, 0, 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _require_integral(a, what):
    if not a.is_integral():
        raise ValueError(f"{what} requires an integer matrix")


def _smith(a, left, right):
    """The Smith elimination of an integer matrix: (U, S, V) with U*A*V = S,
    where U is built only when left is set and V only when right is set,
    and a transform that is not built is None.  The transforms never steer
    the elimination, so S is the same whichever of them are asked for.

    U and V are unimodular; S is diagonal with nonnegative invariant factors
    dividing in sequence.  Pivot rule: the nonzero entry of smallest absolute
    value in the remaining submatrix, ties broken by lowest (row, col).

    It runs on one working array w: row i < m is row i of S followed, when
    left is set, by row i of U, and the n rows of V follow when right is
    set.  A row operation (swap, negate, add a multiple) is one list
    operation on a row of w, so it updates S and U together; a column
    operation j < n (swap, add a multiple) is one loop over the rows of w,
    so it updates S and V together.  U, S and V are sliced out at the end.
    """
    _require_integral(a, "smith_normal_form")
    m, n = a.shape
    w = [list(row) + [int(i == k) for k in range(m if left else 0)] for i, row in enumerate(a.entries())]
    w += [[int(i == j) for j in range(n)] for i in range(n if right else 0)]
    for t in range(min(m, n)):
        # Position phase: bring the preferred pivot to (t, t) and clear its
        # row and column, restarting whenever a smaller remainder shows up.
        while True:
            best = 0  # the first smallest |x| in row-major order; 1 is smallest
            for i in range(t, m):
                for j, x in enumerate(w[i][t:n], t):
                    if x and (not best or abs(x) < best):
                        best, pi, pj = abs(x), i, j
                if best == 1:
                    break
            if not best:  # the rest of S is zero
                break
            if pi != t:
                w[t], w[pi] = w[pi], w[t]
            if pj != t:
                for row in w:
                    row[t], row[pj] = row[pj], row[t]
            top = w[t]
            if top[t] < 0:
                top = w[t] = [-x for x in top]
            pivot = top[t]
            dirty = False
            for i in range(t + 1, m):
                row = w[i]
                if row[t]:
                    q = row[t] // pivot
                    if q:
                        row = w[i] = [x - q * y for x, y in zip(row, top)]
                    if row[t]:
                        dirty = True
            for j in range(t + 1, n):
                if top[j]:
                    q = top[j] // pivot
                    if q:
                        for row in w:
                            row[j] -= q * row[t]
                    if top[j]:
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; enforce divisibility of the rest by
            # adding the first row that breaks it to the pivot row.  A unit
            # pivot divides every entry.
            if pivot == 1:
                break
            for i in range(t + 1, m):
                if any(x % pivot for x in w[i][t + 1 : n]):
                    w[t] = [x + y for x, y in zip(top, w[i])]
                    break
            else:
                break
        if not best:
            break
    rows = w[:m]
    return (
        Matrix._of(tuple([tuple(row[n:]) for row in rows]), m) if left else None,
        Matrix._of(tuple([tuple(row[:n]) for row in rows]), n),
        Matrix._of(tuple(map(tuple, w[m:])), n) if right else None,
    )


def smith_normal_form(a):
    """Smith normal form with transforms: returns (U, S, V) with U*A*V = S,
    by the one elimination, _smith, building both transforms."""
    return _smith(a, True, True)


def snf_rank(s):
    """Number of nonzero diagonal entries of a Smith form."""
    return sum(1 for i in range(min(s.shape)) if s[i, i] != 0)


def invariant_factors(a):
    """Nonzero diagonal entries of the Smith form of ``a``, reduced with
    no transform built.  A single row or column is not eliminated: its one
    invariant factor is the gcd of its entries, and a zero vector has
    none."""
    if 1 in a.shape:
        _require_integral(a, "smith_normal_form")
        g = gcd(*[x for row in a.entries() for x in row])
        return (g,) if g else ()
    _, s, _ = _smith(a, False, False)
    return tuple(s[i, i] for i in range(min(s.shape)) if s[i, i] != 0)


def content(a):
    """The content of a matrix: the largest rational c >= 0 of which every
    entry is an integer multiple, 0 for a zero matrix.  It is the gcd of
    the int numerators over the lcm of the denominators, divided once by
    that lcm."""
    den, rows = _over_lcm(a.entries())
    return _quotient(gcd(*[x for row in rows for x in row]), den)


def row_hnf(a):
    """Canonical (row-style Hermite) basis of the lattice spanned by the rows.

    Pivots are positive, pivot columns strictly increase, and entries above a
    pivot are reduced into [0, pivot).  Zero rows are dropped, so the result
    is a canonical full-row-rank matrix: two row sets span the same lattice
    iff their forms are equal.
    """
    _require_integral(a, "row_hnf")
    rows = [list(row) for row in a.entries()]
    n = a.ncols
    r = 0
    for col in range(n):
        while True:
            pivot_row = None
            best = None
            for i in range(r, len(rows)):
                if rows[i][col] != 0 and (best is None or abs(rows[i][col]) < best):
                    best = abs(rows[i][col])
                    pivot_row = i
            if pivot_row is None:
                break
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r][col]
                    if q:
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                if rows[r][col] < 0:
                    rows[r] = [-x for x in rows[r]]
                for i in range(r):
                    q = rows[i][col] // rows[r][col]
                    if q:
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                r += 1
                break
    return Matrix._of(tuple(map(tuple, rows[:r])), n)


def column_hnf(a):
    """Canonical basis (as columns) of the lattice spanned by the columns."""
    return row_hnf(a.transpose()).transpose()


def integer_kernel(a):
    """Canonical basis of the saturated lattice {x integral : A*x = 0}.

    The span is computed from the Smith form (last columns of V, the one
    transform built) and then canonicalised, so equal kernels always
    produce identical matrices.  A nonzero 1x2 row (x, y) is not
    eliminated: its kernel is spanned by the primitive perpendicular
    (-y, x)/gcd(x, y), signed so that its first nonzero entry is positive,
    which is the column HNF of that one vector.
    """
    if a.shape == (1, 2):
        _require_integral(a, "smith_normal_form")
        x, y = a.entries()[0]
        g = gcd(x, y)
        if g:
            if y > 0 or (y == 0 and x < 0):
                g = -g
            return Matrix._of(((-y // g,), (x // g,)), 1)
    _, s, v = _smith(a, False, True)
    r = snf_rank(s)
    n = a.ncols
    basis = v.submatrix(range(n), range(r, n))
    return column_hnf(basis)


def quotient_group(a):
    """The finite group Z^n / A·Z^n of a square integer matrix A, as
    (factors, den, generators), or None when A is singular and the group
    is infinite.

    One Smith form U*A*V = S, with V the one transform built, presents it
    (Cohen, A Course in Computational Algebraic Number Theory, §2.4).  A^-1
    maps it onto A^-1·Z^n / Z^n, and A^-1 = V·S^-1·U with U unimodular, so
    that group is spanned by the columns v_i / s_i of V·S^-1.  As V is
    unimodular, it is the direct sum of the cyclic groups they generate,
    of orders s_i.  factors is (s_1, ..., s_n), with s_i dividing s_(i+1);
    den = s_n, 1 when n = 0, is the lcm of the denominators of A^-1; and
    generator i is the int tuple v_i · (s_n / s_i) mod s_n, the point
    v_i / s_i as numerators over den.
    """
    if not a.is_square:
        raise ValueError("quotient group of a non-square matrix")
    _, s, v = _smith(a, False, True)
    factors = tuple(s[i, i] for i in range(a.ncols))
    if 0 in factors:
        return None
    den = factors[-1] if factors else 1
    return factors, den, [
        tuple([x * (den // f) % den for x in column]) for column, f in zip(v.columns(), factors)
    ]


def rational_solve(a, b):
    """One exact solution X of A*X = B (free variables set to 0), or None.

    Fraction-free Gauss–Jordan on ints.  Each row of [A|B] is scaled once
    to int numerators over its lcm denominator.  The first nonzero entry at
    or below the current row is the pivot, and every other row with a
    nonzero entry in the pivot column becomes pivot·row − entry·pivot_row,
    divided by its content, so entries stay the size of minors.  Each row
    stays a nonzero multiple of the row that Fraction Gauss–Jordan would
    hold, so the pivots and the solution are the same; the solution entry
    of pivot row i is row[n + j] / row[pivot column], one quotient each.
    """
    m, n = a.shape
    if b.nrows != m:
        raise ValueError("shape mismatch in rational_solve")
    k = b.ncols
    # each row of [A|B] over the lcm of its own denominators
    work = [_over_lcm((ra + rb,))[1][0] for ra, rb in zip(a.entries(), b.entries())]
    pivot_cols = []
    row = 0
    for col in range(n):
        pivot_row = next((i for i in range(row, m) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        top = work[row]
        pivot = top[col]
        for i in range(m):
            factor = work[i][col]
            if i != row and factor != 0:
                updated = [pivot * x - factor * y for x, y in zip(work[i], top)]
                content = gcd(*updated)
                work[i] = [x // content for x in updated] if content > 1 else updated
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if any(work[i][n:]):
            return None
    solution = [[0] * k for _ in range(n)]
    for i, col in enumerate(pivot_cols):
        pivot = work[i][col]
        solution[col] = [_quotient(x, pivot) for x in work[i][n:]]
    return Matrix._of(tuple(map(tuple, solution)), k)

