"""Partitions, the symmetric-group group algebra, Young symmetrizers and
the induced functor on matrices and derivations.

Conventions, fixed once for reproducibility:

* the canonical tableau of a partition fills 1..d row-major;
* permutations are tuples of images on {0..d-1}, multiplied by
  composition (p*q)(i) = p(q(i));
* tensor words are big-endian (first factor most significant), and the
  symmetric group acts on the right by (e_w) . p = e_{w o p}.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from math import factorial, prod

from .fields import Record, ResourceCapExceeded
from .linalg import Matrix, _make, _units

MAX_TENSOR_SIZE = 4096
# 6!: every partition of d <= 6 passes, and five of d = 7; the cap bounds
# forming c, one product per term, and applying it to each candidate word
MAX_SYMMETRIZER_TERMS = 720


class Partition(Record):
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if not self.parts:
            raise ValueError("partition must be nonempty")
        if any(p < 1 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    @classmethod
    def of(cls, *parts) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition {text!r}") from exc
        return cls(parts)

    @property
    def d(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        cols = [sum(1 for p in self.parts if p > j) for j in range(self.parts[0])]
        return Partition(tuple(cols))

    def cells(self):
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield i, j

    def hook(self, i: int, j: int) -> int:
        conj = self.conjugate().parts
        return (self.parts[i] - j) + (conj[j] - i) - 1

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def hook_content_dim(mu: Partition, n: int) -> int:
    """Dimension of the image of the symmetrizer on (F^n)^(tensor d):
    the hook content formula prod (n + j - i) / hook(i, j)."""
    if n < 0:
        raise ValueError("negative dimension")
    if len(mu.parts) > n:
        return 0
    num = den = 1
    for i, j in mu.cells():
        num, den = num * (n + j - i), den * mu.hook(i, j)
    acc, rem = divmod(num, den)
    assert rem == 0
    return acc


def specht_dim(mu: Partition) -> int:
    """Hook length formula: d! / prod of hooks."""
    acc = factorial(mu.d)
    for i, j in mu.cells():
        acc, rem = divmod(acc, mu.hook(i, j))
        assert rem == 0
    return acc


# ---------------------------------------------------------------------------
# permutations and the group algebra
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]


def perm_identity(d: int) -> Perm:
    return tuple(range(d))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_sign(p: Perm) -> int:
    """(-1) to the number of inversions."""
    inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return -1 if inversions % 2 else 1


def _add_scaled(vec: dict, pairs, coeff) -> None:
    """vec += coeff * (the sparse vector of the (key, value) pairs), in
    place, dropping the entries that become zero."""
    for key, value in pairs:
        total = vec.get(key, 0) + coeff * value
        if total:
            vec[key] = total
        else:
            vec.pop(key, None)


def _canonical_tableau_rows(mu: Partition) -> list[list[int]]:
    rows = []
    offset = 0
    for p in mu.parts:
        rows.append(list(range(offset, offset + p)))
        offset += p
    return rows


def _block_preserving_perms(blocks: list[list[int]], d: int) -> list[Perm]:
    options = [list(itertools.permutations(b)) for b in blocks]
    out = []
    for combo in itertools.product(*options):
        p = list(range(d))
        for block, target in zip(blocks, combo):
            for src, dst in zip(block, target):
                p[src] = dst
        out.append(tuple(p))
    return out


def young_symmetrizer(mu: Partition) -> tuple[dict, int]:
    """The symmetrizer c = a*b of the canonical tableau (a = sum of the row
    group R, b = signed sum of the column group C) as a {perm: int} dict,
    together with n_mu, the product of the hook lengths, for which
    c*c = n_mu*c (Fulton and Harris, Lectures 4 and 6; the test suite squares
    c for every partition the cap admits).  R and C meet only in e, so the
    products r*s are distinct and c is {r*s: sign(s)}.  A symmetrizer of
    more than MAX_SYMMETRIZER_TERMS terms is refused first: it has |R| |C|
    terms, the product of the factorials of the row and column lengths, and
    the product stops at the bound, so no factorial beyond it is formed.
    The first column has len(mu.parts) cells; the others are counted only
    once it passed, when at most 6 rows remain."""
    columns = (sum(p > j for p in mu.parts) if j else len(mu.parts) for j in range(mu.parts[0]))
    terms = 1
    for length in itertools.chain(mu.parts, columns):
        for k in range(2, length + 1):
            terms *= k
            if terms > MAX_SYMMETRIZER_TERMS:
                raise ResourceCapExceeded(f"the symmetrizer of {mu} has more than "
                                          f"{MAX_SYMMETRIZER_TERMS} terms (MAX_SYMMETRIZER_TERMS)")
    rows = _canonical_tableau_rows(mu)
    cols = [[row[j] for row in rows if len(row) > j] for j in range(mu.parts[0])]
    signed = [(s, perm_sign(s)) for s in _block_preserving_perms(cols, mu.d)]
    c = {perm_mul(r, s): sign for r in _block_preserving_perms(rows, mu.d) for s, sign in signed}
    return c, prod(mu.hook(i, j) for i, j in mu.cells())


# ---------------------------------------------------------------------------
# the functor on matrices
# ---------------------------------------------------------------------------

class SchurBasis(Record):
    """Canonical basis of the symmetrizer image inside (F^n)^(tensor d),
    one for every field F: its coefficients are ints.

    Each column is sparse: the (word, coefficient) pairs of its support, a
    word being the tuple of its d digits.  The columns are in reduced column
    echelon form, so the coefficient of basis vector i in any vector of the
    image is read off at pivot_words[i]."""

    mu: Partition
    n: int
    dim: int
    columns: tuple
    pivot_words: tuple[tuple[int, ...], ...]

    @cached_property
    def support_trie(self) -> dict:
        """The support words of all columns as nested dicts keyed by digit;
        the leaf reached by word u lists the pairs (j, b_j[u])."""
        trie: dict = {}
        for j, col in enumerate(self.columns):
            for word, coeff in col:
                node = trie
                for x in word[:-1]:
                    node = node.setdefault(x, {})
                node.setdefault(word[-1], []).append((j, coeff))
        return trie

    @cached_property
    def slot_index(self) -> dict:
        """(slot k, pivot word without slot k) -> positions of such words."""
        index: dict = {}
        for i, w in enumerate(self.pivot_words):
            for k in range(len(w)):
                index.setdefault((k, w[:k] + w[k + 1:]), []).append(i)
        return index


_basis_cache: dict = {}


def _candidate_words(mu: Partition, n: int):
    """The words c is applied to: the semistandard fillings of the canonical
    tableau by digits < n (rows weakly, columns strictly increasing), in
    lexicographic order.  They index a basis of the image (Fulton, Young
    Tableaux, 8.1), so there are as many as the hook content formula counts."""
    words = [()]
    for k, (i, j) in enumerate(mu.cells()):
        words = [w + (x,) for w in words for x in range(
            max(w[k - 1] if j else 0, w[k - mu.parts[i - 1]] + 1 if i else 0), n)]
    return words


def _build_rational_basis(mu: Partition, n: int):
    """Pivot words and sparse int columns of the canonical basis: c is
    applied to each candidate word in turn, the result reduced against the
    pivot columns so far and, if nonzero, scaled to a new pivot column that
    the earlier columns are reduced against (the reduced echelon basis does
    not depend on the words' order).  With more rows than n the image is
    zero, and c is not formed."""
    if len(mu.parts) > n:
        return (), ()
    c, _ = young_symmetrizer(mu)
    expected = hook_content_dim(mu, n)
    terms = sorted(c.items())
    # pivot word -> sparse column, mutually reduced; words sort as their indices do
    pivot_cols: dict[tuple, dict[tuple, Fraction]] = {}
    for word in _candidate_words(mu, n):
        vec: dict = {}
        _add_scaled(vec, ((tuple(word[i] for i in perm), coeff) for perm, coeff in terms), 1)
        for prow in [r for r in vec if r in pivot_cols]:
            _add_scaled(vec, pivot_cols[prow].items(), -vec[prow])
        if not vec:
            continue
        prow = min(vec)
        inverse = Fraction(1, vec[prow])
        newcol = {r: v * inverse for r, v in vec.items()}
        for col in pivot_cols.values():
            if prow in col:
                _add_scaled(col, newcol.items(), -col[prow])
        pivot_cols[prow] = newcol
    if len(pivot_cols) != expected:
        raise AssertionError(
            f"symmetrizer image dimension {len(pivot_cols)} != hook content {expected}")
    if any(v.denominator != 1 for col in pivot_cols.values() for v in col.values()):
        raise AssertionError(f"the canonical basis of {mu} at n = {n} is not integral")
    pivot_words = tuple(sorted(pivot_cols))
    return pivot_words, tuple(tuple(sorted((u, int(v)) for u, v in pivot_cols[w].items()))
                              for w in pivot_words)


def schur_basis(mu: Partition, n: int) -> SchurBasis:
    """Basis of the symmetrizer image, cached per (mu, n)."""
    d = mu.d
    cap = MAX_TENSOR_SIZE
    # for n >= 2 every d past the cap's bit length exceeds it: n^d is not formed
    if n >= 2 and (d > cap.bit_length() or n ** d > cap):
        raise ResourceCapExceeded(f"tensor space {n}^{d} exceeds {cap} (MAX_TENSOR_SIZE)")
    key = (mu.parts, n)
    basis = _basis_cache.get(key)
    if basis is None:
        pivot_words, columns = _build_rational_basis(mu, n)
        basis = _basis_cache[key] = SchurBasis(mu=mu, n=n, dim=len(pivot_words),
                                               columns=columns, pivot_words=pivot_words)
    return basis


def schur_of_matrix(A: Matrix, mu: Partition) -> Matrix:
    """Matrix of the d-th tensor power of A restricted to the symmetrizer
    image, in the canonical basis.  Functorial in A.  Entry (i, j) sums
    b_j[u] * prod_k A[w_i[k]][u[k]] over the support words u of column j,
    taking each prefix product once down the support trie; a zero factor
    prunes its subtree.  The coefficients b_j[u] are ints; over Q the sums
    run on A's numerators, over A.den^d."""
    if not A.is_square():
        raise ValueError("schur_of_matrix needs a square matrix")
    basis, grid = schur_basis(mu, A.nrows), A.num
    zero = _units(A.field)[1]
    last = mu.d - 1
    out = []
    for w in basis.pivot_words:
        rows = [grid[k] for k in w]
        acc = [zero] * basis.dim
        stack = [(basis.support_trie, 0, None)]
        while stack:
            node, level, prod = stack.pop()
            row = rows[level]
            for x, child in node.items():
                f = row[x]
                if not f:
                    continue
                f = prod * f if level else f
                if level < last:
                    stack.append((child, level + 1, f))
                    continue
                for j, coeff in child:
                    acc[j] = acc[j] + coeff * f
        out.append(tuple(acc))
    return _make(A.field, tuple(out), basis.dim, A.den and A.den ** mu.d)


def schur_derivation(N: Matrix, mu: Partition) -> Matrix:
    """Matrix of sum_k 1 x ... x N x ... x 1 restricted to the
    symmetrizer image; the image of a nilpotent is nilpotent.

    Slot k sends a word u only to the words that differ from u at most in
    slot k, so each support word meets only the pivot words of its shape
    with slot k removed.  The coefficients are ints; over Q the sums run on
    N's numerators, over N.den."""
    if not N.is_square():
        raise ValueError("schur_derivation needs a square matrix")
    basis, grid = schur_basis(mu, N.nrows), N.num
    index, words = basis.slot_index, basis.pivot_words
    out = [[_units(N.field)[1]] * basis.dim for _ in range(basis.dim)]
    for j, col in enumerate(basis.columns):
        for u, coeff in col:
            for k in range(len(u)):
                for i in index.get((k, u[:k] + u[k + 1:]), ()):
                    f = grid[words[i][k]][u[k]]
                    if f:
                        out[i][j] = out[i][j] + coeff * f
    return _make(N.field, tuple(map(tuple, out)), basis.dim, N.den)

