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
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import factorial, lcm

from .fields import Field, QQ
from .linalg import Matrix, _make, _units


class ResourceCapExceeded(RuntimeError):
    """The tensor space n^d would exceed the configured cap."""


DEFAULT_TENSOR_CAP = 4096


def tensor_cap() -> int:
    value = os.environ.get("WDREPS_TENSOR_CAP")
    return int(value) if value else DEFAULT_TENSOR_CAP


@dataclass(frozen=True)
class Partition:
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


def partitions_of(d: int):
    """All partitions of d, largest first part first (deterministic)."""

    def rec(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in rec(d, d)]


def hook_content_dim(mu: Partition, n: int) -> int:
    """Dimension of the image of the symmetrizer on (F^n)^(tensor d):
    the hook content formula prod (n + j - i) / hook(i, j)."""
    if n < 0:
        raise ValueError("negative dimension")
    if len(mu.parts) > n:
        return 0
    acc = Fraction(1)
    for i, j in mu.cells():
        acc *= Fraction(n + j - i, mu.hook(i, j))
    assert acc.denominator == 1
    return int(acc)


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
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_cycles(p: Perm) -> str:
    """Cycle notation on {1..d}, for debug output: "(1 2)(3 4 5)"."""
    seen = [False] * len(p)
    pieces = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j + 1)
            j = p[j]
        if len(cycle) > 1:
            pieces.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(pieces) or "e"


class GroupAlgebraElement:
    """Finitely supported map from permutations of {1..d} to rationals."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms):
        self.d = d
        cleaned = {}
        for perm, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff:
                cleaned[perm] = coeff
        self.terms = cleaned

    def coefficient(self, perm: Perm) -> Fraction:
        return self.terms.get(perm, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            if self.d != other.d:
                raise ValueError("group algebra degrees differ")
            out: dict[Perm, Fraction] = {}
            for p, a in self.terms.items():
                for q, b in other.terms.items():
                    key = perm_mul(p, q)
                    val = out.get(key, Fraction(0)) + a * b
                    if val:
                        out[key] = val
                    elif key in out:
                        del out[key]
            return GroupAlgebraElement(self.d, out)
        scalar = Fraction(other)
        return GroupAlgebraElement(self.d, {p: scalar * a for p, a in self.terms.items()})

    __rmul__ = __mul__

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("group algebra degrees differ")
        out = dict(self.terms)
        for p, b in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + b
        return GroupAlgebraElement(self.d, out)

    def __sub__(self, other):
        return self + (-1) * other

    def support(self):
        return sorted(self.terms)

    def __repr__(self):
        body = " + ".join(f"{c}*{perm_cycles(p)}" for p, c in sorted(self.terms.items()))
        return f"GroupAlgebraElement({self.d}, {body or '0'})"


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


def young_symmetrizer(mu: Partition) -> tuple[GroupAlgebraElement, int]:
    """The symmetrizer c = a*b of the canonical tableau (a = row sum,
    b = signed column sum) together with the integer n_mu defined by
    c*c = n_mu*c, verified by direct multiplication and cross-checked
    against d!/dim of the irreducible labelled by mu."""
    d = mu.d
    rows = _canonical_tableau_rows(mu)
    cols: list[list[int]] = []
    for j in range(mu.parts[0]):
        cols.append([rows[i][j] for i in range(len(mu.parts)) if mu.parts[i] > j])
    a = GroupAlgebraElement(d, {p: 1 for p in _block_preserving_perms(rows, d)})
    b = GroupAlgebraElement(d, {p: perm_sign(p) for p in _block_preserving_perms(cols, d)})
    c = a * b
    cc = c * c
    n_mu = cc.coefficient(perm_identity(d))
    if n_mu.denominator != 1 or n_mu <= 0 or cc != n_mu * c:
        raise AssertionError(f"symmetrizer of {mu} is not essentially idempotent")
    n_mu = int(n_mu)
    if n_mu * specht_dim(mu) != factorial(d):
        raise AssertionError(f"n_mu cross-check failed for {mu}")
    return c, n_mu


# ---------------------------------------------------------------------------
# the functor on matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurBasis:
    """Canonical basis of the symmetrizer image inside (F^n)^(tensor d).

    Each column is sparse: the (word, coefficient) pairs of its support, a
    word being the tuple of its d digits.  The columns are in reduced column
    echelon form, so the coefficient of basis vector i in any vector of the
    image is read off at pivot_words[i] (big-endian row pivot_rows[i])."""

    mu: Partition
    n: int
    field: Field
    dim: int
    columns: tuple
    pivot_words: tuple[tuple[int, ...], ...]
    pivot_rows: tuple[int, ...]

    @cached_property
    def basis_matrix(self) -> Matrix:
        """The dense n^d x dim matrix of the columns."""
        den, columns = self.scaled_columns
        zero = _units(self.field)[1]
        cols = [dict(col) for col in columns]
        words = itertools.product(range(self.n), repeat=self.mu.d)  # big-endian order
        return _make(self.field, tuple(tuple(c.get(w, zero) for c in cols) for w in words),
                     self.dim, den)

    @cached_property
    def scaled_columns(self) -> tuple:
        """(den, columns): over Q the columns times the lcm den of their
        coefficient denominators, so on ints; otherwise (None, columns)."""
        if self.field != QQ:
            return None, self.columns
        den = lcm(*[c.denominator for col in self.columns for _, c in col])
        return den, tuple(tuple((w, int(c * den)) for w, c in col) for col in self.columns)

    @cached_property
    def support_trie(self) -> dict:
        """The support words of all columns as nested dicts keyed by digit;
        the leaf reached by word u lists the pairs (j, b_j[u]), with b_j the
        scaled columns."""
        trie: dict = {}
        for j, col in enumerate(self.scaled_columns[1]):
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


_rational_basis_cache: dict = {}
_field_basis_cache: dict = {}


def _word_index(word, n: int) -> int:
    idx = 0
    for w in word:
        idx = idx * n + w
    return idx


def _build_rational_basis(mu: Partition, n: int):
    """Pivot words and sparse columns of the canonical basis over Q."""
    d = mu.d
    c, _ = young_symmetrizer(mu)
    expected = hook_content_dim(mu, n)
    terms = sorted(c.terms.items())
    # pivot word -> sparse column, mutually reduced; words sort as their indices do
    pivot_cols: dict[tuple, dict[tuple, Fraction]] = {}
    if expected:
        for word in itertools.product(range(n), repeat=d):
            vec: dict[tuple, Fraction] = {}
            for perm, coeff in terms:
                key = tuple(word[perm[i]] for i in range(d))
                val = vec.get(key, Fraction(0)) + coeff
                if val:
                    vec[key] = val
                elif key in vec:
                    del vec[key]
            for prow in [r for r in vec if r in pivot_cols]:
                coeff = vec.get(prow)
                if not coeff:
                    continue
                for r, v in pivot_cols[prow].items():
                    val = vec.get(r, Fraction(0)) - coeff * v
                    if val:
                        vec[r] = val
                    elif r in vec:
                        del vec[r]
            if not vec:
                continue
            prow = min(vec)
            lead = vec[prow]
            newcol = {r: v / lead for r, v in vec.items()}
            for col in pivot_cols.values():
                if prow in col:
                    coeff = col[prow]
                    for r, v in newcol.items():
                        val = col.get(r, Fraction(0)) - coeff * v
                        if val:
                            col[r] = val
                        elif r in col:
                            del col[r]
            pivot_cols[prow] = newcol
            if len(pivot_cols) == expected:
                break
    if len(pivot_cols) != expected:
        raise AssertionError(
            f"symmetrizer image dimension {len(pivot_cols)} != hook content {expected}")
    pivot_words = tuple(sorted(pivot_cols))
    return pivot_words, tuple(tuple(sorted(pivot_cols[w].items())) for w in pivot_words)


def schur_basis(mu: Partition, n: int, field: Field = QQ) -> SchurBasis:
    """Basis of the symmetrizer image, cached per (mu, n, field)."""
    d = mu.d
    cap = tensor_cap()
    if n ** d > cap:
        raise ResourceCapExceeded(
            f"tensor space {n}^{d} exceeds the cap {cap}; "
            "set WDREPS_TENSOR_CAP to override")
    key = (mu.parts, n)
    cached = _rational_basis_cache.get(key)
    if cached is None:
        cached = _build_rational_basis(mu, n)
        _rational_basis_cache[key] = cached
    pivot_words, columns = cached
    fkey = (mu.parts, n, field)
    basis = _field_basis_cache.get(fkey)
    if basis is None:
        if field != QQ:
            columns = tuple(tuple((w, field.coerce(v)) for w, v in col) for col in columns)
        basis = SchurBasis(mu=mu, n=n, field=field, dim=len(pivot_words), columns=columns,
                           pivot_words=pivot_words,
                           pivot_rows=tuple(_word_index(w, n) for w in pivot_words))
        _field_basis_cache[fkey] = basis
    return basis


def schur_of_matrix(A: Matrix, mu: Partition) -> Matrix:
    """Matrix of the d-th tensor power of A restricted to the symmetrizer
    image, in the canonical basis.  Functorial in A.  Entry (i, j) sums
    b_j[u] * prod_k A[w_i[k]][u[k]] over the support words u of column j,
    taking each prefix product once down the support trie; a zero factor
    prunes its subtree.  Over Q the sums run on A's numerators and the
    scaled columns, over den * A.den^d."""
    if not A.is_square():
        raise ValueError("schur_of_matrix needs a square matrix")
    basis = schur_basis(mu, A.nrows, A.field)
    den, grid = basis.scaled_columns[0], A.num
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
    return _make(A.field, tuple(out), basis.dim, den and den * A.den ** mu.d)


def schur_derivation(N: Matrix, mu: Partition) -> Matrix:
    """Matrix of sum_k 1 x ... x N x ... x 1 restricted to the
    symmetrizer image; the image of a nilpotent is nilpotent.

    Slot k sends a word u only to the words that differ from u at most in
    slot k, so each support word meets only the pivot words of its shape
    with slot k removed.  Over Q the sums run on N's numerators and the
    scaled columns, over den * N.den."""
    if not N.is_square():
        raise ValueError("schur_derivation needs a square matrix")
    basis = schur_basis(mu, N.nrows, N.field)
    index = basis.slot_index
    words = basis.pivot_words
    (den, columns), grid = basis.scaled_columns, N.num
    out = [[_units(N.field)[1]] * basis.dim for _ in range(basis.dim)]
    for j, col in enumerate(columns):
        for u, coeff in col:
            for k in range(len(u)):
                for i in index.get((k, u[:k] + u[k + 1:]), ()):
                    f = grid[words[i][k]][u[k]]
                    if f:
                        out[i][j] = out[i][j] + coeff * f
    return _make(N.field, tuple(map(tuple, out)), basis.dim, den and den * N.den)


def schur_trace_oracle(power_sums, mu: Partition, field: Field = QQ):
    """Independent trace oracle: Newton's identities turn the power sums
    tr(A), tr(A^2), ... into complete homogeneous sums, then the
    Jacobi-Trudi determinant det(h_{mu_i - i + j}) evaluates the Schur
    polynomial at the (implicit) eigenvalues."""
    d = mu.d
    ps = [field.coerce(p) for p in power_sums]
    if len(ps) < d:
        raise ValueError(f"need {d} power sums, got {len(ps)}")
    h = [field.one]
    for k in range(1, d + 1):
        acc = field.zero
        for i in range(1, k + 1):
            acc = acc + ps[i - 1] * h[k - i]
        h.append(acc / k)
    ell = len(mu.parts)
    zero = field.zero
    rows = []
    for i in range(ell):
        row = []
        for j in range(ell):
            m = mu.parts[i] - i + j
            row.append(h[m] if 0 <= m <= d else zero)
        rows.append(row)
    return Matrix(field, rows).det()
