"""Exact linear algebra over the coefficient fields: echelon forms,
kernel/image bases, characteristic polynomials and the multiplicative
Jordan-Chevalley decomposition.

Echelon conventions are deterministic (first invertible pivot, columns
ordered by pivot row, pivots normalized to 1, reduced) so every basis
this module emits is the unique canonical basis of its subspace.

Every matrix has one stored form: rows `num` over a denominator `den`.
Over Q they are Python ints over one int in canonical form, which every
operation (products, sums, fraction-free elimination, the charpoly
recurrence, Horner steps) reads and writes, and Fractions are built only
when `Matrix.rows` is read; over any other field they are the scalars
themselves and `den` is None.  `_make` builds every computed matrix and
`_blocks` every block matrix.  `charpoly` is Berkowitz's division-free
recurrence on the stored form for every field, kept on the matrix: `det`,
`inverse` (the Cayley-Hamilton adjugate) and `wd_validate`'s nilpotency
test read it; only `rref` eliminates.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm

from .fields import Field, Poly, QQ, QT, _poly, binary_power, squarefree_part


class SingularMatrixError(ArithmeticError):
    """Inversion or a decomposition that requires invertibility met a
    singular matrix."""


class ZeroDivisorPivotError(ValueError):
    """Elimination over an etale algebra (a reducible squarefree minpoly)
    met a column whose nonzero entries all divide zero."""


class Matrix:
    """Immutable dense matrix over a `Field`, stored as rows `num` over
    `den`: over Q int rows over an int `den` > 0 with gcd(den, entries) = 1
    (den = 1 when zero), and `rows` builds Fractions on first access;
    elsewhere `num` holds the scalars, `rows` is `num` and `den` is None.
    The column count is stored, so a matrix without rows keeps its width
    (0 x n is not 0 x 0).  The `_charpoly` slot holds the characteristic
    polynomial once `charpoly` has computed it."""

    __slots__ = ("field", "ncols", "den", "num", "_rows", "_charpoly")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix rows")
        num, den = rows, None
        if field == QQ:  # over the lcm of reduced denominators, no prime divides every entry
            den = lcm(*[x.denominator for row in rows for x in row])
            num = tuple(tuple([x.numerator * (den // x.denominator) for x in row])
                        for row in rows)
        self.field, self.ncols, self.num, self.den, self._rows = field, ncols, num, den, rows

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        den, zero, one = _units(field)
        return _make(field, tuple(tuple(one if i == j else zero for j in range(n))
                                  for i in range(n)), n, den)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return _blocks(field, [(nrows, [])], ncols)

    @classmethod
    def diagonal(cls, field: Field, entries) -> "Matrix":
        entries = list(entries)
        return cls(field, [[e if i == j else field.zero for j in range(len(entries))]
                           for i, e in enumerate(entries)])

    # -- shape and access ---------------------------------------------

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(tuple([Fraction(x, self.den) if x else _ZERO for x in row])
                               for row in self.num)
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self.num)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def column(self, j: int):
        return [row[j] for row in self.rows]

    def select(self, rows=None, cols=None) -> "Matrix":
        """The submatrix on the given row and column indices (all if None)."""
        grid = self.num if rows is None else tuple(map(self.num.__getitem__, rows))
        if cols is None:
            return _make(self.field, grid, self.ncols, self.den)
        return _make(self.field, tuple(tuple([row[j] for j in cols]) for row in grid),
                     len(cols), self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.ncols == other.ncols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.field, self.den, self.num))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.rows]!r})"

    # -- arithmetic ----------------------------------------------------

    def _entrywise(self, fn, *others) -> "Matrix":
        """fn applied entry by entry to the numerators of self and matrices
        of its shape, over their common denominator."""
        if any((o.nrows, o.ncols) != (self.nrows, self.ncols) for o in others):
            raise ValueError("shape mismatch in an entrywise matrix operation")
        den = self.den and lcm(self.den, *(o.den for o in others))
        rows = zip(*(_over(M, den) for M in (self, *others)))
        return _make(self.field, tuple(tuple(map(fn, *rs)) for rs in rows), self.ncols, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(operator.sub, other)

    def __neg__(self) -> "Matrix":
        return self._entrywise(operator.neg)

    def __mul__(self, other):
        """A product skips the zero entries of both factors; over Q it runs
        on the numerators, over den * other.den.  A scalar factor goes
        through `field.promote`, so anything it refuses gives TypeError."""
        if not isinstance(other, Matrix):
            s = self.field.promote(other)
            return NotImplemented if s is None else self._scale(s)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        zero = _units(self.field)[1]
        support = [[(j, w) for j, w in enumerate(row) if w] for row in other.num]
        out = []
        for row in self.num:
            acc = [zero] * other.ncols
            for v, row_support in zip(row, support):
                if v:
                    for j, w in row_support:
                        acc[j] = acc[j] + v * w
            out.append(tuple(acc))
        return _make(self.field, tuple(out), other.ncols, self.den and self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, s) -> "Matrix":
        # over Q the numerators take s's numerator and den its denominator
        s, q = s.as_integer_ratio() if self.den else (s, None)
        return _make(self.field, tuple(tuple([x * s for x in row]) for row in self.num),
                     self.ncols, self.den and self.den * q)

    def __pow__(self, n: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, Matrix.identity(self.field, self.nrows))

    def transpose(self) -> "Matrix":
        return _make(self.field, tuple(zip(*self.num)) if self.num else ((),) * self.ncols,
                     self.nrows, self.den)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        s = sum((row[i] for i, row in enumerate(self.num)), _units(self.field)[1])
        return Fraction(s, self.den) if self.den else s

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return _blocks(self.field, [(self.nrows, [(0, self), (self.ncols, other)])],
                       self.ncols + other.ncols)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, first factor most significant."""
        return _make(self.field, tuple(tuple(a * b for a in ra for b in rb)
                                       for ra in self.num for rb in other.num),
                     self.ncols * other.ncols, self.den and self.den * other.den)

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot_columns).
        Over Q the elimination runs on the numerators (`_rref_q`)."""
        if self.den is not None:
            return _rref_q(self.num, self.ncols)
        rows = [list(r) for r in self.num]
        nr, nc = self.nrows, self.ncols
        one = self.field.one
        pivots = []
        r = 0
        for c in range(nc):
            pr, inv = _pivot(rows, r, c, one)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            if inv != one:
                rows[r] = [x * inv for x in rows[r]]
            for i in range(nr):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return _make(self.field, tuple(map(tuple, rows)), nc), tuple(pivots)

    def det(self):
        """(-1)^n times the constant term of `charpoly`, over every field
        (etale algebras included); the charpoly stays on the matrix for
        later calls."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        p0 = charpoly(self)[0]
        return -p0 if self.nrows % 2 else p0

    def inverse(self) -> "Matrix":
        """The Cayley-Hamilton adjugate: the kept charpoly p(x) = x r(x) + p(0)
        gives M^-1 = -r(M) / p(0), over every field.  SingularMatrixError
        when p(0) is zero or, over an etale algebra, divides zero."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        p = charpoly(self).num  # over Q p's denominator cancels in r / p(0)
        if not p[0]:
            raise SingularMatrixError("matrix is singular")
        try:
            scale = -self.field.one / p[0]
        except ZeroDivisionError:
            raise SingularMatrixError("its determinant divides zero") from None
        return poly_eval_matrix(_poly(self.field, p[1:], _units(self.field)[0]),
                                self)._scale(scale)


# ---------------------------------------------------------------------------
# the stored form, and the integer kernel over Q: every operation reads and
# writes numerators over one denominator; Fractions appear only in
# `Matrix.rows`
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _units(field: Field):
    """(den, zero, one) of the stored form over `field`."""
    return (1, 0, 1) if field == QQ else (None, field.zero, field.one)


def _make(field: Field, num, ncols: int, den: int | None = None) -> Matrix:
    """The matrix with stored rows `num` (a tuple of equal-length tuples),
    uncoerced and unchecked: for results this module computed.  Over Q
    `num` holds ints and `den` > 0, and the result is put in canonical
    form; over any other field `num` holds the scalars and `den` is None."""
    if den is not None and den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            den //= g
            num = tuple(tuple([x // g for x in row]) for row in num)
    M = object.__new__(Matrix)
    M.field, M.ncols, M.num, M.den = field, ncols, num, den
    M._rows = num if den is None else None
    return M


def _over(M: Matrix, den):
    """The stored rows of M, over Q rescaled to the multiple den of M.den."""
    if den is None or den == M.den:
        return M.num
    f = den // M.den
    return tuple(tuple([x * f for x in row]) for row in M.num)


def _rref_q(num, ncols: int):
    """`Matrix.rref` of a Q matrix with numerators num: fraction-free
    Gauss-Jordan elimination on primitive rows, each divided by its pivot
    only at the end, over the lcm of the pivots.  The reduced form is
    unique, so it equals the one field arithmetic gives."""
    work = list(num)
    nr = len(work)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if work[i][c]), None)
        if pr is None:
            continue
        prow = work[pr]
        g = gcd(*prow)
        if g > 1:
            prow = [x // g for x in prow]
        work[pr], work[r] = work[r], prow
        p = prow[c]
        for i in range(nr):
            f = work[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(work[i], prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                work[i] = row
        pivots.append(c)
    # each pivot row is primitive, so the rows over den are canonical
    den = lcm(*[work[i][c] for i, c in enumerate(pivots)])
    out = []
    for row, c in zip(work, pivots):
        f = den // row[c]
        out.append(tuple([x * f for x in row]))
    out.extend([(0,) * ncols] * (nr - len(pivots)))
    return _make(QQ, tuple(out), ncols, den), tuple(pivots)


def _pivot(rows, start: int, c: int, one):
    """Row, at or below `start`, of the first invertible entry of column c,
    and that entry's inverse; (None, None) when the column is zero there.
    Over an etale algebra, a nonzero column of zero divisors raises."""
    nonzero = False
    for i in range(start, len(rows)):
        x = rows[i][c]
        if x == one:
            return i, one
        if x:
            nonzero = True
            try:
                return i, one / x
            except ZeroDivisionError:
                pass
    if nonzero:
        raise ZeroDivisorPivotError(f"column {c + 1} has no invertible pivot: each of "
                                    "its nonzero entries divides zero")
    return None, None


def _blocks(field: Field, grid, ncols: int) -> Matrix:
    """The ncols-column matrix of `grid`'s block rows, each a height and
    (column offset, block) pairs, zero elsewhere: the stored rows of blocks
    over `field`, over Q over the lcm of their denominators."""
    den, zero, _ = _units(field)
    den = den and lcm(*[M.den for _, row in grid for _, M in row])
    out = []
    for height, row in grid:
        lines = [[zero] * ncols for _ in range(height)]
        for off, M in row:
            for line, r in zip(lines, _over(M, den)):
                line[off:off + M.ncols] = r
        out += map(tuple, lines)
    return _make(field, tuple(out), ncols, den)


def block_diagonal(field: Field, blocks) -> Matrix:
    blocks = list(blocks)
    offsets = list(accumulate([b.ncols for b in blocks], initial=0))
    return _blocks(field, [(b.nrows, [(o, b)]) for b, o in zip(blocks, offsets)], offsets[-1])


def column_echelon(M: Matrix) -> Matrix:
    """Canonical basis of the column space: reduced column echelon form,
    columns ordered by pivot row, pivot entries 1."""
    red, pivots = M.transpose().rref()
    return red.select(rows=range(len(pivots))).transpose()


def pivot_rows(basis: Matrix):
    """The pivot row (first nonzero entry) of each canonical basis column."""
    return [next(i for i, x in enumerate(col) if x) for col in zip(*basis.num)]


def kernel_basis(M: Matrix) -> Matrix:
    """Canonical basis of the kernel of M, in reduced column echelon form,
    from one elimination: of M with its columns reversed.  The kernel
    vector of a free column f there is 1 at f and nonzero elsewhere only at
    pivot columns before f.  Reversed back, its 1 is its first nonzero
    entry and every other kernel vector is 0 there, so these vectors,
    ordered by that entry, are already the canonical basis."""
    field, n = M.field, M.ncols
    red, pivots = M.select(cols=range(n - 1, -1, -1)).rref()
    # over Q the kernel columns are scaled by red.den, as red's rows are
    zero, one = (field.zero, field.one) if red.den is None else (0, red.den)
    pivot_set = set(pivots)
    kernel_cols = []
    for f in range(n - 1, -1, -1):
        if f in pivot_set:
            continue
        col = [zero] * n
        col[n - 1 - f] = one
        for row, p in zip(red.num, pivots):
            col[n - 1 - p] = -row[f]
        kernel_cols.append(tuple(col))
    return _make(field, tuple(kernel_cols), n, red.den).transpose()


def mat_subspaces(M: Matrix):
    """Rank, canonical kernel basis and canonical image basis of M.

    rank + kernel columns = ncols; M * kernel column = 0; image columns
    span the column space.  Both bases are in reduced column echelon form.
    """
    kernel = kernel_basis(M)
    return M.ncols - kernel.ncols, kernel, column_echelon(M)


def solve_in_span(A: Matrix, Y: Matrix) -> Matrix:
    """Solve A * X = Y where the columns of A are independent and Y lies
    in their span; raises ValueError otherwise."""
    red, pivots = A.hstack(Y).rref()
    if len(pivots) != A.ncols or any(p >= A.ncols for p in pivots):
        raise ValueError("columns dependent or right-hand side outside the span")
    return red.select(rows=range(A.ncols), cols=range(A.ncols, A.ncols + Y.ncols))


def intersect_columns(U: Matrix, V: Matrix) -> Matrix:
    """Canonical basis of (column space of U) intersected with (column
    space of V)."""
    kernel = kernel_basis(U.hstack(-V))
    # the U-coordinates of each kernel vector give a spanning vector
    return column_echelon(U * kernel.select(rows=range(U.ncols)))


def charpoly(M: Matrix) -> Poly:
    """Characteristic polynomial det(xI - M), monic, by Berkowitz's
    division-free recurrence on the stored form: over Q on the numerators
    A = den * M, whose coefficient c_k of x^k gives M's as
    c_k den^k / den^n, the stored form of the result; over every other
    field and etale algebra on the stored scalars, so no zero divisor is
    ever inverted.  The result is kept on M, so `M.det()` and a later
    `charpoly(M)` run it once."""
    if not M.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    kept = getattr(M, "_charpoly", None)
    if kept is None:
        p, den = _berkowitz(M.num, *_units(M.field)[1:])[::-1], M.den
        if den is not None and den != 1:
            p = [c * den ** k for k, c in enumerate(p)]
        M._charpoly = kept = _poly(M.field, p, den and den ** M.nrows)
    return kept


def _berkowitz(A, zero, one) -> list:
    """Coefficients of det(xI - A), high degree first, by Berkowitz's
    division-free recurrence [Berkowitz 1984]: the leading (r+1) x (r+1)
    block [[A_r, C], [R, a]] has characteristic polynomial T * p_r, with T
    the lower-triangular Toeplitz matrix whose first column is
    (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C).  O(n^4) ring operations,
    none on a zero entry of A, of the vectors A_r^k C or of T."""
    def dot(support, w):
        return sum((x * w[j] for j, x in support if w[j]), zero)

    p = [one]
    for r in range(len(A)):
        # the nonzero entries of the rows of A_r and of R
        support = [[(j, x) for j, x in enumerate(row[:r]) if x] for row in A[:r + 1]]
        R = support.pop()
        col, w = [one, -A[r][r]], [row[r] for row in A[:r]]
        for k in range(r):
            col.append(-dot(R, w))
            if k < r - 1:
                w = [dot(row, w) for row in support]
        new = p + [zero]
        for j in range(1, r + 2):
            if col[j]:
                for k, y in enumerate(p[:r + 2 - j]):
                    if y:
                        new[j + k] = new[j + k] + col[j] * y
        p = new
    return p


def poly_eval_matrix(p: Poly, M: Matrix) -> Matrix:
    """Horner evaluation of a polynomial at a square matrix, on the stored
    forms: over Q, for p = P / d of degree k and M = A / e, Horner on the
    int matrix A with the constants P_i e^(k-i) gives d e^k p(M), scaled
    once at the end.  Each Horner constant goes onto the diagonal of the
    stored rows alone, with no I*c built and added.  A polynomial over
    another field is first read into M's."""
    if not M.is_square():
        raise ValueError("polynomial evaluation needs a square matrix")
    if p.field != M.field:
        p = Poly(M.field, p.coeffs)
    n, cs, e, k = M.nrows, p.num, M.den, p.degree
    if p.is_zero():
        return Matrix.zeros(M.field, n, n)
    if e is not None:
        cs, M = [c * e ** (k - i) for i, c in enumerate(cs)], _make(QQ, M.num, n, 1)
    acc = Matrix.identity(M.field, n)._scale(cs[-1])
    for c in reversed(cs[:-1]):
        acc = acc * M
        if c:
            acc = _make(M.field, tuple(row[:i] + (row[i] + c,) + row[i + 1:]
                                       for i, row in enumerate(acc.num)), n, acc.den)
    return acc if e is None else _make(QQ, acc.num, n, p.den * e ** k)


def mult_jordan_chevalley(M: Matrix):
    """Multiplicative Jordan-Chevalley decomposition M = S*U = U*S with S
    semisimple and U unipotent, both polynomial expressions in M.

    Factorization-free: Newton iteration against the squarefree part f of
    the characteristic polynomial converges to the semisimple part S in at
    most ceil(log2 n) + 1 steps, then U = S^-1 * M.  Over a number field f
    is taken over Q, from the restriction of scalars: every eigenvalue of M
    is a root of it, and its roots are simple, so S is the same and no gcd
    runs over the field (an etale algebra has zero divisors).  A semisimple
    M takes no Newton step, and S is M itself (`S is M`): callers read
    semisimplicity off that identity.
    """
    if not M.is_square():
        raise ValueError("decomposition of a non-square matrix")
    if not M.det():
        raise SingularMatrixError("multiplicative decomposition needs an invertible matrix")
    f = squarefree_part(charpoly(M if M.field in (QQ, QT) else scalar_restriction(M)))
    fp = f.derivative()
    X = M
    for _ in range(max(1, M.nrows.bit_length() + 1) + 1):
        FX = poly_eval_matrix(f, X)
        if FX.is_zero():
            return X, X.inverse() * M
        X = X - poly_eval_matrix(fp, X).inverse() * FX
    raise ArithmeticError("Jordan-Chevalley iteration failed to converge")


def scalar_restriction(M: Matrix) -> Matrix:
    """Restriction of scalars to Q.  Over a number field of degree m each
    entry becomes its m x m multiplication matrix (its int regular matrix,
    over the entries' lcm); over Q this is the identity operation.  The
    characteristic polynomial of the result is the product of the
    entry-wise embeddings' characteristic polynomials."""
    if M.field == QQ:
        return M
    if M.field == QT:
        raise ValueError("scalar restriction is defined over Q and number fields only")
    m = M.field.degree
    return _blocks(QQ, [(m, [(j * m, x._regular()) for j, x in enumerate(row)])
                        for row in M.num], M.ncols * m)
