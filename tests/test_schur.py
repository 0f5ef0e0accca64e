import itertools
import random
from fractions import Fraction
import math
from math import factorial
from pathlib import Path

import pytest

from wdreps import (Matrix, Poly, QQ, QT, ResourceCapExceeded, column_echelon,
                    hook_content_dim, schur_basis, schur_derivation,
                    schur_of_matrix, specht_dim, young_symmetrizer)
from wdreps import schur
from wdreps.cli import CommandRequest, run_command
from wdreps.fields import NumberField
from wdreps.schur import Partition, perm_identity, perm_mul, perm_sign

from support import (basis_matrix, from_columns, full_product_basis, partitions_of,
                     random_matrix, random_nilpotent, rank, schur_trace_oracle)


def prod_entries(A, w, u):
    """prod_k A[w_k, u_k]."""
    return math.prod((A[i, j] for i, j in zip(w, u)), start=Fraction(1))


def group_product(x, y):
    """x*y for group algebra elements {perm: coeff}, (p*q)(i) = p(q(i))."""
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            pq = tuple(p[q[i]] for i in range(len(q)))
            out[pq] = out.get(pq, 0) + a * b
    return {perm: v for perm, v in out.items() if v}


# every partition whose symmetrizer MAX_SYMMETRIZER_TERMS admits
ADMITTED = [mu for d in range(1, 7) for mu in partitions_of(d)] + [Partition(parts) for parts in (
    (5, 1, 1), (4, 2, 1), (4, 1, 1, 1), (3, 2, 1, 1), (3, 1, 1, 1, 1))]


def word_index(word, n):
    """Big-endian position of a tensor word among the n^d words."""
    return sum(x * n ** (len(word) - 1 - k) for k, x in enumerate(word))


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_roundtrip_and_conjugate(self):
        mu = Partition.from_string("3,2,2")
        assert str(mu) == "3,2,2"
        assert mu.conjugate() == Partition.of(3, 3, 1)
        assert mu.d == 7

    def test_partition_count(self):
        assert sum(len(partitions_of(d)) for d in range(1, 6)) == 18


class TestPermutations:
    def test_composition_order(self):
        # (p*q)(i) = p(q(i))
        p = (1, 0, 2)
        q = (0, 2, 1)
        assert perm_mul(p, q) == (1, 2, 0)

    def test_sign(self):
        assert perm_sign(perm_identity(4)) == 1
        assert perm_sign((1, 0, 2)) == -1
        assert perm_sign((1, 2, 0)) == 1


class TestYoungSymmetrizer:
    def test_row_partition(self):
        c, n = young_symmetrizer(Partition.of(2))
        assert c == {(0, 1): 1, (1, 0): 1}
        assert n == 2

    def test_column_partition(self):
        c, n = young_symmetrizer(Partition.of(1, 1))
        assert c == {(0, 1): 1, (1, 0): -1}
        assert n == 2

    def test_hook_partition(self):
        # canonical tableau rows {1,2},{3}: e + (1 2) - (1 3) - (1 3 2)
        c, n = young_symmetrizer(Partition.of(2, 1))
        assert c == {(0, 1, 2): 1, (1, 0, 2): 1, (2, 0, 1): -1, (2, 1, 0): -1}
        assert n == 3

    def test_symmetrizer_law_all_d_up_to_5(self):
        """c*c = n_mu*c, squared here for every partition the cap admits:
        `young_symmetrizer` does not square c, and the law depends on mu
        alone."""
        assert len(ADMITTED) == 34
        for mu in ADMITTED:
            c, n_mu = young_symmetrizer(mu)
            assert group_product(c, c) == {p: n_mu * v for p, v in c.items()}
            assert n_mu * specht_dim(mu) == factorial(mu.d)

    def test_forming_c_takes_one_product_per_term(self, monkeypatch):
        """c is formed in |R| |C| permutation products, one per term: 720
        for (6), where squaring c as well took 519,120."""
        calls = []

        def counted(p, q):
            calls.append(None)
            return perm_mul(p, q)

        monkeypatch.setattr(schur, "perm_mul", counted)
        for mu in ADMITTED:
            calls.clear()
            c, _ = young_symmetrizer(mu)
            terms = math.prod(factorial(k) for k in mu.parts + mu.conjugate().parts)
            assert len(calls) == len(c) == terms, mu


class TestDimensions:
    def test_examples(self):
        assert hook_content_dim(Partition.of(2), 2) == 3
        assert hook_content_dim(Partition.of(1, 1, 1), 2) == 0
        # (2+0)/3 * (2+1)/1 * (2-1)/1
        assert hook_content_dim(Partition.of(2, 1), 2) == 2

    def test_basis_dims_match_hook_content(self):
        for d in range(1, 6):
            for mu in partitions_of(d):
                for n in range(0, 5):
                    assert schur_basis(mu, n).dim == hook_content_dim(mu, n)

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(schur, "MAX_TENSOR_SIZE", 8)
        with pytest.raises(ResourceCapExceeded, match=r"3\^2 exceeds 8 \(MAX_TENSOR_SIZE\)"):
            schur_basis(Partition.of(2), 3)
        monkeypatch.undo()
        assert schur_basis(Partition.of(2), 3).dim == 6


class TestBasis:
    def test_sym2_plane(self):
        b = schur_basis(Partition.of(2), 2)
        # canonical columns span e1 x e1, e1 x e2 + e2 x e1, e2 x e2
        expected = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert basis_matrix(b) == expected
        assert [word_index(w, 2) for w in b.pivot_words] == [0, 1, 3]

    def test_wedge2_plane(self):
        b = schur_basis(Partition.of(1, 1), 2)
        assert basis_matrix(b) == Matrix(QQ, [[0], [1], [-1], [0]])

    def test_hook_dim2(self):
        assert schur_basis(Partition.of(2, 1), 2).dim == 2


class TestFunctor:
    def test_identity(self):
        for mu in (Partition.of(2), Partition.of(2, 1), Partition.of(1, 1)):
            n = 3
            dim = hook_content_dim(mu, n)
            assert schur_of_matrix(Matrix.identity(QQ, n), mu) == Matrix.identity(QQ, dim)

    def test_diagonal_sym2(self):
        A = Matrix.diagonal(QQ, [Fraction(2), Fraction(3)])
        assert schur_of_matrix(A, Partition.of(2)) == Matrix.diagonal(QQ, [4, 6, 9])

    def test_diagonal_wedge2_is_determinant(self):
        A = Matrix.diagonal(QQ, [Fraction(2), Fraction(3)])
        assert schur_of_matrix(A, Partition.of(1, 1)) == Matrix(QQ, [[6]])

    def test_functoriality_50_random_pairs(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 3)
            d = rng.randint(1, 4)
            mus = partitions_of(d)
            mu = mus[rng.randrange(len(mus))]
            A = random_matrix(rng, n)
            B = random_matrix(rng, n)
            assert schur_of_matrix(A * B, mu) == \
                schur_of_matrix(A, mu) * schur_of_matrix(B, mu)

    def test_partition_one_is_identity_functor(self):
        A = Matrix(QQ, [[1, 2], [3, 4]])
        assert schur_of_matrix(A, Partition.of(1)) == A


class TestDerivation:
    def test_zero(self):
        assert schur_derivation(Matrix.zeros(QQ, 2, 2), Partition.of(2)).is_zero()

    def test_sym2_chain(self):
        N = Matrix(QQ, [[0, 0], [1, 0]])
        D = schur_derivation(N, Partition.of(2))
        # single chain of length 3 through the canonical basis
        assert D == Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 2, 0]])
        assert not (D * D).is_zero() and (D * D * D).is_zero()

    def test_wedge2_kills_rank_one(self):
        N = Matrix(QQ, [[0, 0], [1, 0]])
        assert schur_derivation(N, Partition.of(1, 1)).is_zero()

    def test_leibniz_first_order_coefficient(self):
        # derivation = d/dt at 0 of the functor applied to 1 + t*N,
        # computed exactly in the auxiliary polynomial variable
        rng = random.Random(37)
        t = QT.gen()
        for _ in range(15):
            n = rng.randint(1, 3)
            d = rng.randint(1, 3)
            mus = partitions_of(d)
            mu = mus[rng.randrange(len(mus))]
            N = random_matrix(rng, n)
            A = Matrix.identity(QT, n) + Matrix(QT, N.rows) * t
            S = schur_of_matrix(A, mu)
            dim = hook_content_dim(mu, n)
            first_order = Matrix(QQ, [[_linear_coeff(S[i, j]) for j in range(dim)]
                                      for i in range(dim)])
            assert first_order == schur_derivation(N, mu)

    def test_nilpotent_stays_nilpotent(self):
        rng = random.Random(41)
        from support import random_nilpotent
        for _ in range(10):
            N = random_nilpotent(rng, rng.randint(1, 3))
            D = schur_derivation(N, Partition.of(2))
            assert (D ** D.nrows).is_zero() if D.nrows else True


class TestSparseFunctorOracle:
    """The sparse functor against the dense tensor power: the rows of
    A x ... x A (d factors) and of sum_k I x ... x N x ... x I at
    the pivot words, times the dense basis_matrix.  Row w of a Kronecker
    product is the Kronecker product of the factors' rows w_1, ..., w_d."""

    FIELDS = {
        "Q": (QQ, ["0", "1", "-1", "2", "1/3", "-5/2"]),
        "Qt": (QT, ["0", "1", "t", "-t", "t+1", "1/(t-2)", "t^2/3"]),
        "NF": (NumberField([-2, 0, 1]), ["0", "1", "a", "-a", "a+1", "1/2*a-3"]),
    }

    @staticmethod
    def _kron_row(rows, field):
        out = Matrix(field, [rows[0]])
        for row in rows[1:]:
            out = out.kron(Matrix(field, [row]))
        return out.rows[0]

    def _oracles(self, A, mu):
        field, n = A.field, A.nrows
        basis = schur_basis(mu, n)
        if not basis.dim:
            return Matrix(field, []), Matrix(field, [])
        eye = Matrix.identity(field, n)
        power, derivation = [], []
        for w in basis.pivot_words:
            power.append(self._kron_row([A.rows[k] for k in w], field))
            terms = [self._kron_row([(A if j == k else eye).rows[x] for j, x in enumerate(w)],
                                    field) for k in range(len(w))]
            derivation.append([sum(col, field.zero) for col in zip(*terms)])
        B = basis_matrix(basis, field)
        return Matrix(field, power) * B, Matrix(field, derivation) * B

    @staticmethod
    def _matrices(rng, field, scalars, n):
        # a dense, a sparse and a zero matrix
        dense = Matrix(field, [[rng.choice(scalars[1:]) for _ in range(n)] for _ in range(n)])
        sparse = Matrix(field, [[rng.choice(scalars[1:]) if rng.random() < 0.3 else "0"
                                 for _ in range(n)] for _ in range(n)])
        return [dense, sparse, Matrix.zeros(field, n, n)]

    @pytest.mark.parametrize("name", ["Q", "Qt", "NF"])
    def test_every_partition_up_to_d4_n4(self, name):
        field, scalars = self.FIELDS[name]
        rng = random.Random(71)
        for n in range(1, 5):
            matrices = self._matrices(rng, field, scalars, n)
            for kind, A in zip(("dense", "sparse", "zero"), matrices):
                for d in range(1, 5):
                    # the oracle's Q(t) and number-field arithmetic is slow at
                    # n = 4: there only the sparse matrix, and only up to d = 3
                    if field != QQ and n == 4 and (d == 4 or kind != "sparse"):
                        continue
                    for mu in partitions_of(d):
                        power, derivation = self._oracles(A, mu)
                        assert schur_of_matrix(A, mu) == power
                        assert schur_derivation(A, mu) == derivation

    def test_integer_path_equals_fraction_arithmetic(self):
        # over Q the functor runs on A's numerators and the basis's int
        # coefficients; here every entry is summed over Fractions from its definition
        rng = random.Random(72)
        for n in range(1, 5):
            for d in range(1, 4):
                for mu in partitions_of(d):
                    basis = schur_basis(mu, n)
                    A = Matrix(QQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                     if rng.random() < 0.7 else 0 for _ in range(n)]
                                    for _ in range(n)])
                    power = [[sum((c * prod_entries(A, w, u) for u, c in col), Fraction(0))
                              for col in basis.columns] for w in basis.pivot_words]
                    derivation = [[sum((c * A[w[k], u[k]] for u, c in col for k in range(d)
                                        if w[:k] + w[k + 1:] == u[:k] + u[k + 1:]), Fraction(0))
                                   for col in basis.columns] for w in basis.pivot_words]
                    for S, ref in ((schur_of_matrix(A, mu), power),
                                   (schur_derivation(A, mu), derivation)):
                        assert S.rows == tuple(map(tuple, ref))
                        assert math.gcd(S.den, *[x for row in S.num for x in row]) == 1

    def test_zero_dimensional_images(self):
        for field, _ in self.FIELDS.values():
            # three antisymmetric slots in a plane, and the empty space
            for mu, n in ((Partition.of(1, 1, 1), 2), (Partition.of(2), 0)):
                M = Matrix.identity(field, n)
                for S in (schur_of_matrix(M, mu), schur_derivation(M, mu)):
                    assert (S.nrows, S.ncols) == (0, 0)
                    assert (S, S) == self._oracles(M, mu)

    def test_basis_matrix_is_the_sparse_columns(self):
        b = schur_basis(Partition.of(2, 1), 3)
        B = basis_matrix(b, QT)
        assert B.field == QT
        assert (B.nrows, B.ncols) == (27, b.dim)
        for j, col in enumerate(b.columns):
            dense = B.column(j)
            assert sum(1 for x in dense if x) == len(col)
            assert dense[word_index(b.pivot_words[j], 3)] == QT.one
            assert not any(dense[:word_index(b.pivot_words[j], 3)])


def _linear_coeff(x) -> Fraction:
    assert x.den.degree == 0
    return x.num[1] / x.den[0]


class TestTraceOracle:
    def test_examples(self):
        assert schur_trace_oracle([2, 2], Partition.of(2)) == 3
        assert schur_trace_oracle([2, 2], Partition.of(1, 1)) == 1
        assert schur_trace_oracle([7], Partition.of(1)) == 7

    def test_against_functor_100_random(self):
        rng = random.Random(59)
        for _ in range(100):
            n = rng.randint(1, 3)
            d = rng.randint(1, 4)
            mus = partitions_of(d)
            mu = mus[rng.randrange(len(mus))]
            A = random_matrix(rng, n)
            power_sums = [(A ** k).trace() for k in range(1, d + 1)]
            assert schur_of_matrix(A, mu).trace() == schur_trace_oracle(power_sums, mu)

    def test_function_field_scalars(self):
        t = QT.gen()
        A = Matrix.diagonal(QT, [t, QT.one])
        ps = [(A ** k).trace() for k in range(1, 3)]
        assert schur_trace_oracle(ps, Partition.of(2), QT) == \
            schur_of_matrix(A, Partition.of(2)).trace()


class TestSplitting:
    def test_image_of_c_plus_image_of_n_minus_c_fills_tensor_space(self):
        # the tensor space splits as image(c) + image(n - c): ranks add up
        for mu, n in [(Partition.of(2), 2), (Partition.of(2, 1), 2),
                      (Partition.of(1, 1), 3), (Partition.of(3), 2)]:
            d = mu.d
            c, n_mu = young_symmetrizer(mu)
            size = n ** d
            rank_c = rank(_action_matrix(c, n, d))
            e = perm_identity(d)
            complement = {p: (n_mu if p == e else 0) - c.get(p, 0) for p in c.keys() | {e}}
            rank_rest = rank(_action_matrix(complement, n, d))
            assert rank_c + rank_rest == size
            assert rank_c == hook_content_dim(mu, n)


def _action_matrix(element, n, d):
    """The dense n^d x n^d matrix of e_w -> sum_p element[p] e_{w o p}."""
    size = n ** d
    cols = []
    for word in itertools.product(range(n), repeat=d):
        col = [Fraction(0)] * size
        for perm, coeff in element.items():
            col[word_index(tuple(word[perm[i]] for i in range(d)), n)] += coeff
        cols.append(col)
    return from_columns(QQ, cols, size)


def _cycle_sign(perm):
    """(-1)^(d - number of cycles)."""
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


def test_sparse_basis_is_the_dense_column_echelon_of_c():
    """For every partition with d <= 4 and n <= 4 the sparse build equals
    the linalg column echelon form of c acting on the words, with c = a*b
    formed here from the row and column stabilizers of the tableau.  Only
    (2, 2) at n = 4 makes a new pivot column reduce an earlier one."""
    for d in range(1, 5):
        for mu in partitions_of(d):
            rows = [list(range(sum(mu.parts[:i]), sum(mu.parts[:i + 1])))
                    for i in range(len(mu.parts))]
            block = {x: i for i, row in enumerate(rows) for x in row}
            column = {x: row.index(x) for row in rows for x in row}
            perms = list(itertools.permutations(range(d)))
            a = {p: 1 for p in perms if all(block[p[x]] == block[x] for x in range(d))}
            b = {p: _cycle_sign(p) for p in perms
                 if all(column[p[x]] == column[x] for x in range(d))}
            c = group_product(a, b)
            for n in range(1, 5):
                assert basis_matrix(schur_basis(mu, n)) == \
                    column_echelon(_action_matrix(c, n, d)), (mu, n)


def test_semistandard_words_first_give_the_full_product_basis(monkeypatch):
    """For every partition with d <= 5 and n <= 6 where n^d <= 4096, the
    build equals the full-product loop of `support`, c is applied to
    exactly `dim` words (the semistandard fillings of the canonical tableau,
    as many as the hook content formula counts, span the image) and every
    coefficient is an int."""
    applied = []
    candidates = schur._candidate_words

    def counted(mu, n):
        for word in candidates(mu, n):
            applied.append(word)
            yield word

    monkeypatch.setattr(schur, "_candidate_words", counted)
    cases = 0
    for d in range(1, 6):
        for mu in partitions_of(d):
            for n in range(1, 7):
                if n ** d > schur.MAX_TENSOR_SIZE:
                    continue
                applied.clear()
                built = schur._build_rational_basis(mu, n)
                assert built == full_product_basis(mu, n), (mu, n)
                dim = hook_content_dim(mu, n)
                assert len(applied) == dim, (mu, n)
                assert all(type(c) is int for col in built[1] for _, c in col), (mu, n)
                cases += 1
    assert cases == 101


def test_functor_commutes_with_specialization():
    """For seeded Q(t) matrices A (with poles) and nilpotent N of dimension
    2-4 and every partition with d <= 3, the functor and the derivation
    evaluated at five rational points a, where every entry is defined,
    equal the functor and the derivation of A(a) and N(a) over Q: the int
    basis times Q(t) scalars agrees with the Q path."""
    rng = random.Random(89)
    t = QT.gen()

    def at(M, a):
        return Matrix(QQ, [[x.eval(a) for x in row] for row in M.rows])

    for n in (2, 3, 4):
        Y = random_matrix(rng, n, field=QT) + Matrix.identity(QT, n) * t
        A = (random_matrix(rng, n, field=QT) + random_matrix(rng, n, field=QT) * t) * Y.inverse()
        N = random_nilpotent(rng, n, QT)
        assert any(len(x.Q) > 1 for row in A.rows for x in row)
        for d in range(1, 4):
            for mu in partitions_of(d):
                SA, DN = schur_of_matrix(A, mu), schur_derivation(N, mu)
                for a in (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(3)):
                    assert at(SA, a) == schur_of_matrix(at(A, a), mu), (n, mu, a)
                    assert at(DN, a) == schur_derivation(at(N, a), mu), (n, mu, a)


def test_one_basis_per_partition_and_dimension(monkeypatch):
    """A Q(t) rigidity scan applies the functor over Q(t) and over Q at
    every point, and both share one basis: one `SchurBasis` is constructed,
    so its support trie and slot index (cached properties) are each built
    once."""
    monkeypatch.setattr(schur, "_basis_cache", {})
    built = []
    init = schur.SchurBasis.__post_init__
    monkeypatch.setattr(schur.SchurBasis, "__post_init__", lambda b: built.append(b) or init(b))
    flagship = str(Path(__file__).resolve().parents[1] / "corpus" / "flagship.json")
    code, env = run_command(CommandRequest("rigidity", flagship, partition="2", points="-3..3"))
    assert code in (0, 1) and env["diagnostics"] == []
    assert len(built) == 1 and {"support_trie", "slot_index"} <= vars(built[0]).keys()
