import math
import random
from fractions import Fraction

import pytest

from wdreps import (Matrix, Partition, Poly, QQ, QT, SingularMatrixError, WDRep,
                    ZeroDivisorPivotError, charpoly,
                    column_echelon, frobenius_semisimplify, frss_signature,
                    mat_subspaces, mult_jordan_chevalley, poly_eval_matrix,
                    root_moduli_certified, scalar_restriction, sp_construct,
                    squarefree_part, wd_direct_sum, wd_schur)
from wdreps import linalg
from wdreps.families import specialize_signature
from wdreps.fields import Field, NFElem, NumberField, poly_gcd
from wdreps.linalg import intersect_columns, kernel_basis, solve_in_span

from support import (flagship_family, from_columns, generator_shear, inverse_by_elimination,
                     random_fraction, random_matrix, random_unimodular, rank)


class TestSubspaces:
    def test_identity(self):
        rank, kernel, image = mat_subspaces(Matrix.identity(QQ, 2))
        assert rank == 2
        assert kernel.ncols == 0
        assert image == Matrix.identity(QQ, 2)

    def test_rank_one_elementary(self):
        e21 = Matrix(QQ, [[0, 0], [1, 0]])
        rank, kernel, image = mat_subspaces(e21)
        assert rank == 1
        assert kernel == Matrix(QQ, [[0], [1]])
        assert image == Matrix(QQ, [[0], [1]])

    def test_function_field_kernel(self):
        M = Matrix(QT, [["t", "1"], ["t", "1"]])
        rank, kernel, _ = mat_subspaces(M)
        assert rank == 1
        # canonical form of the kernel line is (1, -t)
        assert kernel == Matrix(QT, [["1"], ["-t"]])

    def test_zero_matrix(self):
        rank, kernel, image = mat_subspaces(Matrix.zeros(QQ, 3, 3))
        assert rank == 0 and kernel == Matrix.identity(QQ, 3) and image.ncols == 0

    def test_rank_nullity_and_cayley_hamilton(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 6)
            M = Matrix(QQ, [[Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                             for _ in range(n)] for _ in range(n)])
            rank, kernel, image = mat_subspaces(M)
            assert rank + kernel.ncols == M.ncols
            assert image.ncols == rank
            if kernel.ncols:
                assert (M * kernel).is_zero()
            assert poly_eval_matrix(charpoly(M), M).is_zero()

    def test_kernel_canonical_under_generator_order(self):
        M = Matrix(QQ, [[1, 2, 3], [2, 4, 6]])
        _, kernel, _ = mat_subspaces(M)
        # reduced column echelon: pivots 1 at increasing rows, reduced
        assert kernel == column_echelon(kernel)


class TestCharpoly:
    def test_identity_cube(self):
        assert charpoly(Matrix.identity(QQ, 3)) == Poly(QQ, [-1, 3, -3, 1])

    def test_rotation(self):
        assert charpoly(Matrix(QQ, [[0, 1], [-1, 0]])) == Poly(QQ, [1, 0, 1])

    def test_function_field_diagonal(self):
        p = charpoly(Matrix(QT, [["t", "0"], ["0", "1"]]))
        t = QT.gen()
        # (x - t)(x - 1) = x^2 - (t+1)x + t
        assert p.coeffs == (t, -(t + 1), QT.one)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            charpoly(Matrix.zeros(QQ, 2, 3))

    def test_zero_dim(self):
        assert charpoly(Matrix.zeros(QQ, 0, 0)) == Poly.one(QQ)


class TestJordanChevalley:
    def test_already_semisimple(self):
        M = Matrix.diagonal(QQ, [2, 3])
        S, U = mult_jordan_chevalley(M)
        assert S == M and U == Matrix.identity(QQ, 2)

    def test_already_unipotent(self):
        M = Matrix(QQ, [[1, 1], [0, 1]])
        S, U = mult_jordan_chevalley(M)
        assert S == Matrix.identity(QQ, 2) and U == M

    def test_distinct_eigenvalues_forced_semisimple(self):
        M = Matrix(QQ, [[1, 1], [0, 2]])
        S, U = mult_jordan_chevalley(M)
        # eigenbasis oracle: e1 for 1 and (1,1) for 2 diagonalize M exactly
        P = Matrix(QQ, [[1, 1], [0, 1]])
        assert S == P * Matrix.diagonal(QQ, [1, 2]) * P.inverse()
        assert S == M and U == Matrix.identity(QQ, 2)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            mult_jordan_chevalley(Matrix.zeros(QQ, 2, 2))

    def test_properties_random(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 4)
            M = random_matrix(rng, n)
            if not M.det():
                continue
            checked += 1
            S, U = mult_jordan_chevalley(M)
            assert S * U == M and U * S == M
            f = squarefree_part(charpoly(M))
            assert poly_eval_matrix(f, S).is_zero()  # min poly of S divides f
            assert ((U - Matrix.identity(QQ, n)) ** n).is_zero()
            # uniqueness: the pair transforms equivariantly under conjugation
            P = random_unimodular(rng, n)
            S2, U2 = mult_jordan_chevalley(P * M * P.inverse())
            assert S2 == P * S * P.inverse()
            assert U2 == P * U * P.inverse()

    @pytest.mark.parametrize("minpoly, units", [
        ([-1, 0, 1], ("a", "1", "2", "a+2", "-a", "2*a-3")),  # Q[a]/(a^2-1), etale
        ([-2, 0, 1], ("a", "1", "2", "a+1", "-a", "3-a"))])  # Q(sqrt 2)
    def test_number_fields(self, minpoly, units):
        """S*U = M = U*S with U unipotent and S killed by a squarefree
        polynomial over Q, on conjugated Jordan matrices over K; and the
        same S as Newton iteration against the squarefree part taken over K
        wherever that one runs (over an etale algebra Euclid can meet a
        zero divisor, as for diag(a, 1))."""
        K = NumberField(minpoly)
        rng = random.Random(47)
        diag_a1 = Matrix.diagonal(K, [K.gen(), K.one])
        matrices = [diag_a1]
        for _ in range(30):
            n = rng.randint(1, 4)
            J = [[K.zero] * n for _ in range(n)]
            for i in range(n):
                J[i][i] = K.coerce(rng.choice(units))
                if i and rng.random() < 0.5:  # join block i-1 when the eigenvalue repeats
                    J[i][i] = J[i - 1][i - 1]
                    J[i][i - 1] = K.one
            P = random_unimodular(rng, n, K) * generator_shear(rng, n, K)
            matrices.append(P * Matrix(K, J) * P.inverse())
        agreed = failed = 0
        for M in matrices:
            n = M.nrows
            S, U = mult_jordan_chevalley(M)
            assert S * U == M and U * S == M
            assert ((U - Matrix.identity(K, n)) ** n).is_zero()
            f = squarefree_part(charpoly(scalar_restriction(M)))
            assert poly_eval_matrix(Poly(K, f.coeffs), S).is_zero()
            try:
                reference = _newton_semisimple_over_the_field(M)
            except ZeroDivisionError:
                failed += 1
                continue
            assert S == reference
            agreed += 1
        assert agreed >= 25
        if minpoly == [-1, 0, 1]:
            assert failed >= 1
            assert mult_jordan_chevalley(diag_a1)[0] is diag_a1

    def test_function_field(self):
        t = QT.gen()
        M = Matrix(QT, [[t, QT.one], [QT.zero, t]])
        S, U = mult_jordan_chevalley(M)
        assert S == Matrix.diagonal(QT, [t, t])
        assert (U - Matrix.identity(QT, 2)) * (U - Matrix.identity(QT, 2)) == Matrix.zeros(QT, 2, 2)


def _newton_semisimple_over_the_field(M: Matrix) -> Matrix:
    """Reference: the semisimple part by Newton iteration against
    p / gcd(p, p'), with p the charpoly over M's own field and the gcd by
    Euclid there."""
    p = charpoly(M)
    f = (p // poly_gcd(p, p.derivative())).monic()
    fp = f.derivative()
    X = M
    for _ in range(M.nrows.bit_length() + 1):
        FX = poly_eval_matrix(f, X)
        if FX.is_zero():
            return X
        X = X - poly_eval_matrix(fp, X).inverse() * FX
    assert poly_eval_matrix(f, X).is_zero()
    return X


class TestHelpers:
    def test_solve_in_span(self):
        A = Matrix(QQ, [[1, 0], [1, 1], [0, 2]])
        X = Matrix(QQ, [[2, 1], [3, 0]])
        Y = A * X
        assert solve_in_span(A, Y) == X
        with pytest.raises(ValueError):
            solve_in_span(A, Matrix(QQ, [[1], [0], [0]]))

    def test_intersection(self):
        U = Matrix(QQ, [[1, 0], [0, 1], [0, 0]])
        V = Matrix(QQ, [[0, 1], [1, 0], [0, 1]])
        # only multiples of (0, 1, 0) have vanishing third coordinate
        assert intersect_columns(U, V) == Matrix(QQ, [[0], [1], [0]])
        W = Matrix(QQ, [[0], [0], [1]])
        assert intersect_columns(U, W).ncols == 0
        assert intersect_columns(U, U) == U

    def test_kron_big_endian(self):
        A = Matrix(QQ, [[1, 2], [3, 4]])
        B = Matrix.identity(QQ, 2)
        K = A.kron(B)
        assert K[0, 0] == 1 and K[0, 2] == 2 and K[2, 0] == 3

    def test_scalar_restriction_charpoly(self):
        K = NumberField([1, 0, 1])
        M = Matrix(K, [["a"]])
        R = scalar_restriction(M)
        assert charpoly(R) == Poly(QQ, [1, 0, 1])
        # over Q the restriction is the identity operation
        M2 = Matrix(QQ, [[1, 2], [3, 4]])
        assert scalar_restriction(M2) is M2

    def test_scalar_restriction_matches_the_fraction_blocks(self):
        """The restriction built on the entries' int regular matrices over
        one denominator equals the one built from the Fraction view
        `regular_matrix`, over Q(sqrt 2), the etale Q[a]/(a^2 - 1) and a
        cubic field, on random rectangular matrices."""
        def by_fractions(M):
            m = M.field.degree
            blocks = [[x.regular_matrix() for x in row] for row in M.rows]
            return Matrix(QQ, [[b[bi][bj] for b in brow for bj in range(m)]
                               for brow in blocks for bi in range(m)])

        rng = random.Random(70)
        for minpoly in ([-2, 0, 1], [-1, 0, 1], [-3, 1, 0, 1]):
            K = NumberField(minpoly)
            for _ in range(25):
                nr, nc = rng.randint(1, 3), rng.randint(1, 3)
                M = Matrix(K, [[NFElem(K, [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 10]))
                                   if rng.random() < 0.8 else 0 for _ in range(K.degree)])
                                for _ in range(nc)] for _ in range(nr)])
                R = scalar_restriction(M)
                assert R == by_fractions(M)
                assert (R.nrows, R.ncols) == (nr * K.degree, nc * K.degree)


def _from_rows(field, rows, ncols):
    """The coercing constructor on rows, keeping ncols when there are none."""
    return Matrix(field, rows) if rows else Matrix.zeros(field, 0, ncols)


def _random_scalar(rng, field):
    """A random scalar of field, zero one time in four."""
    if rng.random() < 0.25:
        return field.zero
    if isinstance(field, NumberField):
        return NFElem(field, [random_fraction(rng, -9, 9, 10) for _ in range(field.degree)])
    x = field.coerce(random_fraction(rng, -9, 9, 10))
    if field == QT:
        t = field.gen()
        x = x + t * random_fraction(rng) / (t - rng.randint(-3, 3))
    return x


def _random_block(rng, field, nrows, ncols):
    return _from_rows(field, [[_random_scalar(rng, field) for _ in range(ncols)]
                              for _ in range(nrows)], ncols)


class TestBlockAssembly:
    """`block_diagonal`, `hstack`, `scalar_restriction` and the monodromy of
    `sp_construct`, all laid out by `linalg._blocks` on the stored form,
    against the same matrices built from the Fraction view (the scalars
    themselves off Q) through the coercing constructor."""

    FIELDS = [QQ, QT, NumberField([-2, 0, 1]), NumberField([-1, 0, 1])]
    SHAPES = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 3), (3, 2), (3, 3)]

    def test_block_diagonal_and_hstack(self):
        rng = random.Random(36)
        for field in self.FIELDS:
            for _ in range(12):
                blocks = [_random_block(rng, field, *rng.choice(self.SHAPES))
                          for _ in range(rng.randint(0, 4))]
                size = sum(b.ncols for b in blocks)
                rows, off = [], 0
                for b in blocks:
                    rows += [[field.zero] * off + list(row) + [field.zero] * (size - off - b.ncols)
                             for row in b.rows]
                    off += b.ncols
                assert linalg.block_diagonal(field, blocks) == _from_rows(field, rows, size)
            for nrows, ncols in self.SHAPES:
                A = _random_block(rng, field, nrows, ncols)
                B = _random_block(rng, field, nrows, rng.randint(0, 3))
                stacked = A.hstack(B)
                assert stacked == _from_rows(field, [list(r) + list(s)
                                                     for r, s in zip(A.rows, B.rows)],
                                             A.ncols + B.ncols)
                assert (stacked.nrows, stacked.ncols) == (nrows, A.ncols + B.ncols)

    def test_scalar_restriction(self):
        """Each entry becomes its regular matrix `regular_matrix`; an n x 0
        matrix keeps its n*m empty rows and a 0 x n one its n*m columns."""
        rng = random.Random(37)
        for K in self.FIELDS[2:]:
            m = K.degree
            for nrows, ncols in self.SHAPES * 3:
                M = _random_block(rng, K, nrows, ncols)
                blocks = [[x.regular_matrix() for x in row] for row in M.rows]
                R = scalar_restriction(M)
                assert R == _from_rows(QQ, [[b[bi][bj] for b in brow for bj in range(m)]
                                            for brow in blocks for bi in range(m)], ncols * m)
                assert (R.nrows, R.ncols) == (nrows * m, ncols * m)
        assert scalar_restriction(Matrix(NumberField([-2, 0, 1]), [[], []])).nrows == 4

    def test_sp_construct_monodromy(self):
        """The rule sp_construct has always used: entry (i, j) of N is 1
        exactly when i = j + n0, with n0 the dimension of the input."""
        rng = random.Random(38)
        for field in self.FIELDS:
            for n0 in (1, 2, 3):
                r = WDRep(5, field, random_unimodular(rng, n0, field), Matrix.zeros(field, n0, n0))
                for t in (1, 2, 3):
                    size = t * n0
                    N = sp_construct(t, r).nilp
                    assert N == Matrix(field, [[field.one if i == j + n0 else field.zero
                                                for j in range(size)] for i in range(size)])


class TestShapes:
    def test_matrix_without_rows_keeps_its_width(self):
        Z = Matrix.zeros(QQ, 0, 3)
        assert (Z.nrows, Z.ncols) == (0, 3) and Z != Matrix.zeros(QQ, 0, 0)
        assert kernel_basis(Z) == Matrix.identity(QQ, 3)
        assert mat_subspaces(Z)[0] == 0
        T = Z.transpose()
        assert (T.nrows, T.ncols) == (3, 0) and T.transpose() == Z
        assert T * Z == Matrix.zeros(QQ, 3, 3) and (Z * T).ncols == 0
        assert (Z.hstack(Z).ncols, Z.kron(Matrix.identity(QQ, 2)).ncols) == (6, 6)
        assert from_columns(QQ, [[], []], 0).ncols == 2
        assert column_echelon(T) == T and column_echelon(Z).ncols == 0

    def test_empty_spans_need_no_branch(self):
        for field in (QQ, QT):
            empty = Matrix.zeros(field, 3, 0)
            U = Matrix.identity(field, 3)
            assert intersect_columns(empty, U) == empty
            assert intersect_columns(U, empty) == empty
            assert solve_in_span(empty, Matrix.zeros(field, 3, 2)) == Matrix.zeros(field, 0, 2)
            with pytest.raises(ValueError):
                solve_in_span(empty, U)


def _kernel_by_two_eliminations(M):
    """The kernel as the natural basis of the rref of M, then re-echeloned:
    independent of the reversed-column rule in `kernel_basis`."""
    red, pivots = M.rref()
    cols = []
    for f in (c for c in range(M.ncols) if c not in pivots):
        col = [M.field.zero] * M.ncols
        col[f] = M.field.one
        for r, p in enumerate(pivots):
            col[p] = -red[r, f]
        cols.append(col)
    return column_echelon(from_columns(M.field, cols, M.ncols))


class TestKernelBasis:
    def test_one_elimination_per_kernel(self, monkeypatch):
        calls = []
        rref = Matrix.rref

        def counting_rref(M):
            calls.append(M)
            return rref(M)

        monkeypatch.setattr(Matrix, "rref", counting_rref)
        for M in _oracle_cases():
            del calls[:]
            kernel_basis(M)
            assert len(calls) == 1

    def test_equals_two_elimination_kernel(self):
        rng = random.Random(640)
        K = NumberField([-2, 0, 1])
        t, a = QT.gen(), K.gen()
        scalars = {QQ: lambda: random_fraction(rng),
                   QT: lambda: random_fraction(rng) * t + random_fraction(rng),
                   K: lambda: random_fraction(rng) * a + random_fraction(rng)}
        for field, scalar in scalars.items():
            for _ in range(40):
                nrows, ncols, rank = rng.randint(0, 4), rng.randint(0, 5), rng.randint(0, 3)
                # a product of random factors has rank at most `rank`
                A = from_columns(field, [[scalar() for _ in range(nrows)]
                                                for _ in range(rank)], nrows)
                B = from_columns(field, [[scalar() for _ in range(rank)]
                                                for _ in range(ncols)], rank)
                M = A * B
                kernel = kernel_basis(M)
                assert kernel == _kernel_by_two_eliminations(M)
                assert (M * kernel).is_zero() and kernel.nrows == ncols


# ---------------------------------------------------------------------------
# independent oracles for the integer Q kernel and the Berkowitz charpoly
# ---------------------------------------------------------------------------

BIG = 10 ** 40


def _oracle_cases():
    """Q matrices of every shape the kernel special-cases: empty shapes
    (0 x 0, 0 x n and n x 0), zero rows and columns, rank deficiency,
    sparse and 40-digit entries."""
    rng = random.Random(1512)
    cases = [Matrix(QQ, rows) for rows in
             ([], [[]], [[], [], []], [[0, 0], [0, 0]],
              [[Fraction(BIG + 7, BIG - 3), Fraction(-3, BIG + 1)],
               [Fraction(BIG ** 2 - 1, 17), Fraction(5 * BIG + 1, BIG)]])]
    cases += [Matrix.zeros(QQ, 0, 1), Matrix.zeros(QQ, 0, 3), Matrix.zeros(QQ, 2, 0)]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["dense", "sparse", "low-rank", "huge"])
        if kind == "low-rank":
            k = rng.randint(1, min(nrows, ncols))
            A = [[random_fraction(rng) for _ in range(k)] for _ in range(nrows)]
            B = [[random_fraction(rng) for _ in range(ncols)] for _ in range(k)]
            rows = [[sum((A[i][j] * B[j][c] for j in range(k)), Fraction(0))
                     for c in range(ncols)] for i in range(nrows)]
        elif kind == "huge":
            rows = [[Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
                     for _ in range(ncols)] for _ in range(nrows)]
        else:
            density = 1.0 if kind == "dense" else 0.3
            rows = [[random_fraction(rng) if rng.random() < density else Fraction(0)
                     for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
        if rng.random() < 0.3:
            c = rng.randrange(ncols)
            for row in rows:
                row[c] = Fraction(0)
        cases.append(Matrix(QQ, rows))
    return cases


def _to_sympy(sp, M):
    return sp.Matrix(M.nrows, M.ncols,
                     [sp.Rational(x.numerator, x.denominator) for row in M.rows for x in row])


def _from_sympy(S):
    """The sympy matrix S as a Matrix of the same shape."""
    return from_columns(QQ, [[Fraction(int(x.p), int(x.q)) for x in S.col(j)]
                                    for j in range(S.cols)], S.rows)


def _canonical_span_sympy(sp, vectors, nrows):
    """Reduced column echelon basis of the span of sympy column vectors."""
    if not vectors:
        return Matrix.zeros(QQ, nrows, 0)
    red, pivots = sp.Matrix.hstack(*vectors).T.rref()
    return _from_sympy(red[:len(pivots), :]).transpose()


class TestQKernelOracle:
    def test_against_sympy(self):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        for M in _oracle_cases():
            S = _to_sympy(sp, M)
            red, pivots = M.rref()
            s_red, s_pivots = S.rref()
            assert pivots == tuple(s_pivots)
            assert red == _from_sympy(s_red)
            assert rank(M) == S.rank()
            r, kernel, image = mat_subspaces(M)
            assert r == S.rank()
            assert kernel == _canonical_span_sympy(sp, S.nullspace(), M.ncols)
            assert image == _canonical_span_sympy(sp, S.columnspace(), M.nrows)
            if M.is_square():
                expected = [Fraction(int(c.p), int(c.q))
                            for c in reversed(S.charpoly(x).all_coeffs())]
                assert charpoly(M) == Poly(QQ, expected)
                if S.rank() == M.nrows:
                    assert M.inverse() == _from_sympy(S.inv())
                else:
                    with pytest.raises(SingularMatrixError):
                        M.inverse()

    def test_products_against_sympy(self):
        sp = pytest.importorskip("sympy")
        for M in _oracle_cases():
            for P, Q in ((M, M.transpose()), (M.transpose(), M)):
                expected = _to_sympy(sp, P) * _to_sympy(sp, Q)
                assert P * Q == _from_sympy(expected)
                assert P.hstack(P) == _from_sympy(_to_sympy(sp, P).row_join(_to_sympy(sp, P)))
                K = P.kron(Q)
                assert (K.nrows, K.ncols) == (P.nrows * Q.nrows, P.ncols * Q.ncols)
                if K.nrows * K.ncols:  # sympy cannot index an empty product
                    assert K == _from_sympy(sp.kronecker_product(_to_sympy(sp, P),
                                                                 _to_sympy(sp, Q)))


def _check_charpoly_identities(M):
    n = M.nrows
    p = charpoly(M)
    assert p.degree == n and p.is_monic()
    assert poly_eval_matrix(p, M).is_zero()  # Cayley-Hamilton
    assert p[n - 1] == -M.trace()
    assert p[0] == (M.det() if n % 2 == 0 else -M.det())


def _sympy_charpoly(sp, M):
    """Coefficients of sympy's charpoly of a Q matrix, low degree first."""
    x = sp.Symbol("x")
    return Poly(QQ, [Fraction(int(c.p), int(c.q))
                     for c in reversed(_to_sympy(sp, M).charpoly(x).all_coeffs())])


def test_charpoly_of_a_dense_40x40_q_matrix_against_sympy():
    """A size where elimination on Fraction entries was slow: a dense
    random Q matrix over a common denominator."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(4040)
    M = Matrix(QQ, [[random_fraction(rng) for _ in range(40)] for _ in range(40)])
    assert charpoly(M) == _sympy_charpoly(sp, M)


def test_charpoly_of_a_dense_8x8_qt_matrix_against_sympy():
    """Over Q(t) the recurrence never divides, so a dense 8 x 8 matrix
    with entries linear in t keeps polynomial coefficients; specialized
    at three rational t they equal sympy's charpoly of the specialized
    matrix."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(88)
    t = QT.gen()
    M = Matrix(QT, [[t * rng.randint(-5, 5) + rng.randint(-5, 5) for _ in range(8)]
                    for _ in range(8)])
    p = charpoly(M)
    assert all(c.den == Poly(QQ, [1]) for c in p.coeffs)
    for a in (Fraction(-2), Fraction(1, 3), Fraction(5, 2)):
        specialized = Matrix(QQ, [[x.eval(a) for x in row] for row in M.rows])
        assert Poly(QQ, [c.eval(a) for c in p.coeffs]) == _sympy_charpoly(sp, specialized)


class TestHessenbergCharpoly:
    def test_function_field(self):
        rng = random.Random(7)
        t = QT.gen()
        for _ in range(12):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    choice = rng.random()
                    if choice < 0.3:
                        row.append(QT.zero)
                    elif choice < 0.7:
                        row.append(QT.coerce(rng.randint(-3, 3)) + t * rng.randint(-2, 2))
                    else:
                        row.append((t * t - rng.randint(1, 3)) / (t + rng.randint(1, 4)))
                rows.append(row)
            _check_charpoly_identities(Matrix(QT, rows))

    def test_number_field(self):
        rng = random.Random(11)
        for K in (NumberField([-2, 0, 1]), NumberField([-2, 0, 0, 1])):
            a = K.gen()
            for _ in range(12):
                n = rng.randint(1, 5)
                rows = [[K.zero if rng.random() < 0.3 else
                         a * random_fraction(rng) + random_fraction(rng)
                         for _ in range(n)] for _ in range(n)]
                _check_charpoly_identities(Matrix(K, rows))

    def test_needs_row_exchange(self):
        # the subdiagonal entry below the first column is zero: a
        # similarity reduction would swap in a lower row, the division-free
        # recurrence needs no exchange
        M = Matrix(QQ, [[1, 2, 3, 4], [0, 5, 6, 7], [8, 9, 1, 2], [3, 4, 5, 6]])
        _check_charpoly_identities(M)
        _check_charpoly_identities(Matrix(QT, [["t", "0", "1"], ["0", "1", "0"], ["1", "t", "0"]]))

    def test_etale_algebra_passes_over_zero_divisor_pivot(self):
        # a+1 divides zero in Q[a]/(a^2-1); the recurrence never divides
        K = NumberField([-1, 0, 1])
        M = Matrix(K, [["0", "0", "0"], ["a+1", "0", "0"], ["1", "0", "0"]])
        assert charpoly(M) == Poly(K, [0, 0, 0, 1])

    def test_etale_algebra_lone_zero_divisor_needs_no_inverse(self):
        # a+1, a zero divisor, is the only nonzero entry below the diagonal
        # of column 0; it is never inverted
        K = NumberField([-1, 0, 1])
        M = Matrix(K, [["1", "0", "0"], ["a+1", "1", "0"], ["0", "0", "1"]])
        assert charpoly(M) == Poly(K, [-1, 3, -3, 1])
        rho = WDRep(5, K, M, Matrix.zeros(K, 3, 3))
        (entry,) = frss_signature(rho).entries
        assert entry.charpoly == Poly(K, [-1, 3, -3, 1])

    def test_etale_algebra_without_invertible_pivot(self):
        # a+1 and a-1 both divide zero: column 0 has no invertible pivot,
        # and the division-free recurrence needs none
        K = NumberField([-1, 0, 1])
        M = Matrix(K, [["1", "0", "0"], ["a+1", "1", "0"], ["a-1", "0", "1"]])
        assert charpoly(M) == Poly(K, [-1, 3, -3, 1])

    def test_etale_algebra_rref_pivots_on_invertible_entry(self):
        # the first entry a+1 divides zero, the 1 below it is invertible
        K = NumberField([-1, 0, 1])
        M = Matrix(K, [["a+1", "1"], ["1", "0"]])
        assert M * M.inverse() == Matrix.identity(K, 2)
        assert M.det() == K.coerce(-1)
        assert rank(M) == 2

    def test_etale_algebra_column_of_zero_divisors(self):
        # a+1 and a-1 both divide zero, so no elimination can start; the
        # determinants 2 and 4a are units, read off Berkowitz's charpoly,
        # and the inverses are Cayley-Hamilton adjugates over them
        K = NumberField([-1, 0, 1])
        a = K.gen()
        M = Matrix(K, [["a+1", "1"], ["a-1", "1"]])
        with pytest.raises(ZeroDivisorPivotError, match="no invertible pivot"):
            M.rref()
        assert issubclass(ZeroDivisorPivotError, ValueError)
        assert M.det() == K.coerce(2)
        P = Matrix(K, [["a+1", "a-1"], ["a-1", "a+1"]])
        assert charpoly(P) == Poly(K, [4 * a, -2 * a - 2, 1])
        assert P.det() == 4 * a
        for X in (M, P):
            assert X * X.inverse() == Matrix.identity(K, 2)
            assert X.inverse() * X == Matrix.identity(K, 2)

    def test_etale_algebra_singular_matrix_still_raises(self):
        # det a+1 divides zero: no inverse, even though det is nonzero
        K = NumberField([-1, 0, 1])
        for M in (Matrix(K, [["a+1", "0"], ["0", "1"]]),
                  Matrix(K, [["a+1", "a+1"], ["a-1", "a+1"]])):
            assert M.det() and M.det() * (K.gen() - 1) == K.zero
            with pytest.raises(SingularMatrixError, match="determinant divides zero"):
                M.inverse()

    def test_etale_algebra_matches_both_factors(self):
        # Q[a]/(a^2-1) = Q x Q by a -> 1 and a -> -1; the charpoly over the
        # algebra maps to the charpoly over Q of each image
        K = NumberField([-1, 0, 1])
        a = K.gen()
        entries = [K.zero, K.one, a, a + 1, a - 1, 2 * a - 3]
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 5)
            M = Matrix(K, [[rng.choice(entries) for _ in range(n)] for _ in range(n)])
            p = charpoly(M)
            assert poly_eval_matrix(p, M).is_zero()  # Cayley-Hamilton
            for root in (1, -1):
                image = Matrix(QQ, [[x.coeffs[0] + root * x.coeffs[1] for x in row]
                                     for row in M.rows])
                assert [c.coeffs[0] + root * c.coeffs[1] for c in p.coeffs] == \
                    list(charpoly(image).coeffs)


def test_frss_signature_ignores_frobenius_unipotent_part():
    """The signature sees only the semisimple part of Frobenius, even when
    Frobenius is not semisimple and the monodromy is nonzero."""
    r = WDRep(5, QQ, Matrix(QQ, [[2, 1], [0, 2]]), Matrix.zeros(QQ, 2, 2))
    ramified = WDRep(5, QQ, Matrix(QQ, [[3]]), Matrix.zeros(QQ, 1, 1),
                     (("g", Matrix(QQ, [[-1]])),))
    rho = wd_direct_sum(sp_construct(2, r), ramified)
    ss = frobenius_semisimplify(rho)
    assert ss.phi != rho.phi and not rho.nilp.is_zero()
    assert frss_signature(rho) == frss_signature(ss)


def test_poly_eval_matrix_horner():
    M = Matrix(QQ, [[1, 2], [Fraction(1, 3), 4]])
    eye = Matrix.identity(QQ, 2)
    assert poly_eval_matrix(Poly(QQ, [2, -3, 1]), M) == M * M - M * 3 + eye * 2
    assert poly_eval_matrix(Poly(QQ, [5]), M) == eye * 5
    assert poly_eval_matrix(Poly(QQ, []), M) == Matrix.zeros(QQ, 2, 2)
    t = QT.gen()
    N = Matrix(QT, [["t", "1"], ["0", "1/t"]])
    assert poly_eval_matrix(Poly(QT, [t, 0, 1]), N) == N * N + Matrix.identity(QT, 2) * t
    # rational coefficients over a matrix with a denominator, and a Q polynomial at a Q(t) matrix
    half, p = Fraction(1, 2), Poly(QQ, [Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3)])
    assert poly_eval_matrix(p, M) == M * M * Fraction(7, 3) - M * Fraction(3, 5) + eye * half
    assert poly_eval_matrix(p, N) == (N * N * Fraction(7, 3) - N * Fraction(3, 5)
                                      + Matrix.identity(QT, 2) * half)


# ---------------------------------------------------------------------------
# the stored form over Q against a nested-list Fraction reference that
# shares no code with linalg
# ---------------------------------------------------------------------------

def _ref_mul(a, b, ncols):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(ncols)]
            for row in a]


def _ref_rref(rows, ncols):
    """Gauss-Jordan over Fractions: pivot on the first nonzero entry."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _ref_transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def _ref_det(rows):
    rows, n, acc = [list(r) for r in rows], len(rows), Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            acc = -acc
        acc *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return acc


def _ref_column_echelon(rows, nrows, ncols):
    red, pivots = _ref_rref(_ref_transpose(rows, ncols), nrows)
    return _ref_transpose(red[:len(pivots)], nrows)


def _ref_kernel(rows, ncols):
    red, pivots = _ref_rref(rows, ncols)
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        vectors.append(v)
    return _ref_column_echelon(_ref_transpose(vectors, ncols), ncols, len(vectors))


def _draw_rows(rng, nrows, ncols):
    """Sparse or dense entries with small, negative or large denominators."""
    density = rng.choice([0.05, 0.2, 0.6, 1.0])
    dens = rng.choice([(1, 1), (1, 4), (-9, -1), (10 ** 12, 10 ** 12 + 50)])
    return [[Fraction(rng.randint(-9, 9), rng.randint(*dens)) if rng.random() < density
             else Fraction(0) for _ in range(ncols)] for _ in range(nrows)]


class TestStoredFormOracle:
    def _check(self, M, ref, nrows=None, ncols=None):
        """M has the entries ref, stored canonically."""
        nrows = len(ref) if nrows is None else nrows
        ncols = (len(ref[0]) if ref else 0) if ncols is None else ncols
        assert (M.nrows, M.ncols) == (nrows, ncols)
        assert M.rows == tuple(map(tuple, ref))
        entries = [x for row in M.num for x in row]
        assert all(type(x) is int for x in entries) and type(M.den) is int
        assert M.den > 0 and math.gcd(M.den, *entries) == 1
        assert M.den == 1 or any(entries)
        expected = Matrix(QQ, ref)
        expected.ncols = ncols
        assert M == expected and hash(M) == hash(expected)

    def test_operations_against_reference(self):
        rng = random.Random(909)
        shapes = [(0, 3), (3, 0), (1, 1), (0, 0)] + [
            (rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60)]
        for nrows, ncols in shapes:
            a = _draw_rows(rng, nrows, ncols)
            b = _draw_rows(rng, nrows, ncols)
            A, B = Matrix(QQ, a), Matrix(QQ, b)
            A.ncols = B.ncols = ncols
            self._check(A, a, nrows, ncols)
            self._check(A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)],
                        nrows, ncols)
            self._check(A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)],
                        nrows, ncols)
            self._check(-A, [[-x for x in r] for r in a], nrows, ncols)
            s = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            self._check(A * s, [[x * s for x in r] for r in a], nrows, ncols)
            self._check(A.transpose(), _ref_transpose(a, ncols), ncols, nrows)
            self._check(A.hstack(B), [r + s for r, s in zip(a, b)], nrows, 2 * ncols)
            c = _draw_rows(rng, ncols, nrows + 1)
            C = Matrix(QQ, c)
            C.ncols = nrows + 1
            self._check(A * C, _ref_mul(a, c, nrows + 1), nrows, nrows + 1)
            self._check(A.kron(B), [[x * y for x in r for y in s] for r in a for s in b],
                        nrows * nrows, ncols * ncols)
            assert A.is_zero() == all(x == 0 for r in a for x in r)
            red, pivots = A.rref()
            ref_red, ref_pivots = _ref_rref(a, ncols)
            assert list(pivots) == ref_pivots
            self._check(red, ref_red, nrows, ncols)
            self._check(kernel_basis(A), _ref_kernel(a, ncols), ncols)
            self._check(column_echelon(A), _ref_column_echelon(a, nrows, ncols), nrows)
            if nrows == ncols:
                assert A.det() == _ref_det(a)
                assert A.trace() == sum((a[i][i] for i in range(nrows)), Fraction(0))
                p = Poly(QQ, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)])
                acc = [[Fraction(0)] * nrows for _ in range(nrows)]
                for coeff in reversed(p.coeffs):
                    acc = _ref_mul(acc, a, nrows)
                    acc = [[x + coeff * (i == j) for j, x in enumerate(r)]
                           for i, r in enumerate(acc)]
                self._check(poly_eval_matrix(p, A), acc, nrows, nrows)
                if _ref_det(a):
                    aug = [r + [Fraction(int(i == j)) for j in range(nrows)]
                           for i, r in enumerate(a)]
                    inv = [r[nrows:] for r in _ref_rref(aug, 2 * nrows)[0]]
                    self._check(A.inverse(), inv, nrows, nrows)
                else:
                    with pytest.raises(SingularMatrixError):
                        A.inverse()

    def test_solve_and_intersect_against_reference(self):
        rng = random.Random(910)
        for _ in range(40):
            n, k = rng.randint(1, 6), rng.randint(0, 3)
            a = _ref_column_echelon(_draw_rows(rng, n, k), n, k)
            x = _draw_rows(rng, len(a[0]) if a and a[0] else 0, rng.randint(0, 3))
            m = len(x[0]) if x else 0
            A, X = from_columns(QQ, _ref_transpose(a, len(a[0])), n), Matrix(QQ, x)
            X.ncols = m
            Y = A * X
            self._check(solve_in_span(A, Y), x, A.ncols, m)

    def test_rows_are_built_once(self):
        M = Matrix(QQ, [[1, 2], [3, 4]]) * Fraction(1, 2)
        assert M.rows is M.rows
        assert M.num == ((1, 2), (3, 4)) and M.den == 2


# ---------------------------------------------------------------------------
# the one stored form and product loop over the other fields, against a
# triple loop and cofactor expansion written here
# ---------------------------------------------------------------------------

def _other_fields():
    """Q(t), Q(sqrt 2) and the etale algebra Q[a]/(a^2-1), each with a few
    entries: zero, units, and over Q[a]/(a^2-1) the zero divisors a +- 1."""
    t = QT.gen()
    root2 = NumberField([-2, 0, 1])
    etale = NumberField([-1, 0, 1])
    a, b = root2.gen(), etale.gen()
    return [
        (QT, [QT.zero, QT.one, t, t * t - 2, (t - 1) / (t + 3), QT.coerce(Fraction(-2, 7))]),
        (root2, [root2.zero, root2.one, a, a * 3 - 1, root2.coerce(Fraction(5, 2))]),
        (etale, [etale.zero, etale.one, b, b + 1, b - 1, b * 2 - 3]),
    ]


def _ref_field_mul(field, a, b, ncols):
    out = []
    for row in a:
        out_row = []
        for j in range(ncols):
            acc = field.zero
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _ref_cofactor_det(field, rows):
    """Laplace expansion along the first row."""
    if not rows:
        return field.one
    acc = field.zero
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = x * _ref_cofactor_det(field, minor)
            acc = acc - term if j % 2 else acc + term
    return acc


class TestStoredFormOtherFields:
    def _check(self, M, field, ref, nrows, ncols):
        """M has the entries ref, stored as the scalars over den None."""
        assert (M.field, M.nrows, M.ncols, M.den) == (field, nrows, ncols, None)
        assert M.num == tuple(map(tuple, ref)) and M.rows is M.num
        expected = Matrix(field, ref)
        expected.ncols = ncols
        assert M == expected and hash(M) == hash(expected)

    @pytest.mark.parametrize("index", range(3))
    def test_product_det_trace_transpose_against_reference(self, index):
        field, entries = _other_fields()[index]
        rng = random.Random(1010 + index)
        shapes = [(0, 3), (3, 0), (0, 0), (1, 1)] + [
            (rng.randint(1, 4), rng.randint(1, 4)) for _ in range(20)]
        for nrows, ncols in shapes:
            a = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
            m = rng.randint(0, 3)
            c = [[rng.choice(entries) for _ in range(m)] for _ in range(ncols)]
            A, C = Matrix(field, a), Matrix(field, c)
            A.ncols, C.ncols = ncols, m
            self._check(A * C, field, _ref_field_mul(field, a, c, m), nrows, m)
            self._check(A.transpose(), field, _ref_transpose(a, ncols), ncols, nrows)
            s = rng.choice(entries)
            self._check(A * s, field, [[x * s for x in r] for r in a], nrows, ncols)
            if nrows == ncols:
                assert A.trace() == sum((a[i][i] for i in range(nrows)), field.zero)
                assert A.det() == _ref_cofactor_det(field, a)


class TestKeptCharpoly:
    @pytest.mark.parametrize("field", [QQ, QT, NumberField([-2, 0, 1])],
                             ids=["Q", "Qt", "Qsqrt2"])
    def test_det_then_charpoly_reduces_once(self, field, monkeypatch):
        """det reads the constant term of the charpoly it keeps on M, over
        every field; the later charpoly(M) returns that Poly and runs no
        second Berkowitz recurrence."""
        rng = random.Random(1111)
        gen = Fraction(1, 3) if field == QQ else field.gen()
        rows = [[gen * rng.randint(-3, 3) + rng.randint(1, 4) for _ in range(4)]
                for _ in range(4)]
        runs = []
        berkowitz = linalg._berkowitz
        monkeypatch.setattr(linalg, "_berkowitz",
                            lambda *args: runs.append(args[0]) or berkowitz(*args))
        reference = charpoly(Matrix(field, rows))
        assert len(runs) == 1
        M = Matrix(field, rows)
        det = M.det()
        assert len(runs) == 2 and runs[-1] is M.num
        p = charpoly(M)
        assert len(runs) == 2
        assert p is charpoly(M) and p == reference
        assert det == p[0]  # n = 4 is even


class TestOneInverse:
    """`Matrix.inverse` is the Cayley-Hamilton adjugate over every field;
    elimination on [M | I] (`inverse_by_elimination`) is its oracle."""

    @pytest.mark.parametrize("index", range(4))
    def test_against_elimination(self, index):
        field, entries = ([(QQ, [Fraction(x, y) for x in range(-3, 4) for y in (1, 2, 5)])]
                          + _other_fields())[index]
        rng = random.Random(2323 + index)
        sizes = [0, 1, 1] + [rng.randint(1, 3 if field == QT else 4) for _ in range(40)]
        counts = {"invertible": 0, "singular": 0, "divides zero": 0}
        for n in sizes:
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:  # a repeated row: det 0
                rows[-1] = list(rows[0])
            M = Matrix(field, rows)
            M.ncols = n
            det = _ref_cofactor_det(field, rows)
            try:
                oracle = inverse_by_elimination(M)
            except SingularMatrixError:
                oracle = "singular"
            except ZeroDivisorPivotError:
                oracle = None
            # over Q[a]/(a^2-1), the zero divisors are the multiples of a+1 and of a-1
            divides_zero = index == 3 and det and any(
                det * (field.gen() + c) == field.zero for c in (1, -1))
            if not det or divides_zero:
                assert oracle in ("singular", None)
                counts["singular" if not det else "divides zero"] += 1
                with pytest.raises(SingularMatrixError):
                    M.inverse()
                continue
            counts["invertible"] += 1
            inv = M.inverse()
            if oracle is not None:
                assert inv == oracle
            assert M * inv == Matrix.identity(field, n) == inv * M
        assert counts["invertible"] >= 10 and counts["singular"] >= 3
        assert (counts["divides zero"] > 0) == (index == 3)

    def test_messages_name_the_cause(self):
        K = NumberField([-1, 0, 1])
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            Matrix(QQ, [[1, 2], [2, 4]]).inverse()
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            Matrix(K, [["a+1", "a+1"], ["a+1", "a+1"]]).inverse()
        with pytest.raises(SingularMatrixError, match="^its determinant divides zero$"):
            Matrix(K, [["a+1", "0"], ["0", "1"]]).inverse()
        assert Matrix.identity(QQ, 0).inverse() == Matrix.identity(QQ, 0)


def test_matrix_scalar_products_promote_never_parse():
    """A scalar factor goes through `field.promote`: strings give
    TypeError from either side, while ints, Fractions and the field's own
    scalars scale."""
    M = Matrix(QQ, [[1, 2]])
    t = QT.gen()
    for case in (lambda: M * "3", lambda: "3" * Matrix(QQ, [[1]]),
                 lambda: Matrix(QT, [[1]]) * "t"):
        with pytest.raises(TypeError):
            case()
    assert M * Fraction(1, 2) == Matrix(QQ, [[Fraction(1, 2), 1]])
    assert 2 * M == Matrix(QQ, [[2, 4]])
    assert Matrix(QT, [[1, t]]) * (1 / (t + 1)) == Matrix(QT, [[1 / (t + 1), t / (t + 1)]])


def test_computed_polynomials_are_not_coerced_again(monkeypatch):
    """charpoly's Berkowitz recurrence over Q(t) and over Q[a]/(a^2-1)
    (where a+1 and a-1 divide zero), `specialize_signature` and `root_moduli_certified` after it splits
    off x^k build their polynomials from field scalars: no `coerce`."""
    t = QT.gen()
    A = Matrix(QT, [[t, 1, 0], [0, t + 1, 1], [1, 0, 2]])
    K = NumberField([-1, 0, 1])
    a = K.gen()
    B = Matrix(K, [[1, 0, 0], [a + 1, 1, 0], [a - 1, 0, 1]])
    generic = frss_signature(wd_schur(flagship_family(), Partition.of(2)))
    p = Poly(QQ, [0, 0, -2, 0, 1])
    calls, berkowitz = [], []
    coerce, reference = Field.coerce, linalg._berkowitz
    monkeypatch.setattr(Field, "coerce",
                        lambda self, value: calls.append(value) or coerce(self, value))
    monkeypatch.setattr(linalg, "_berkowitz",
                        lambda *args: berkowitz.append(args) or reference(*args))
    cp_A, cp_B = charpoly(A), charpoly(B)
    specialized = specialize_signature(generic, 7)
    moduli = root_moduli_certified(p, Fraction(1, 10 ** 30))
    assert calls == [] and len(berkowitz) == 2
    assert cp_A.coeffs == (-2 * t * t - 2 * t - 1, t * t + 5 * t + 2, -2 * t - 3, QT.one)
    assert cp_B.coeffs == tuple(map(K.coerce, (-1, 3, -3, 1)))
    assert specialized.entries[0].charpoly == Poly(QQ, [Fraction(-1, 25), 1])
    assert [iv.hi for iv in moduli[:2]] == [0, 0] and len(moduli) == 4
