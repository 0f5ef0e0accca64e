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
from fractions import Fraction
from math import factorial

from .fields import Field, QQ
from .linalg import Matrix


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

    basis_matrix has n^d rows; its columns are in reduced column echelon
    form, so the coefficient of basis vector i in any vector of the image
    can be read off at pivot_rows[i].
    """

    mu: Partition
    n: int
    field: Field
    dim: int
    basis_matrix: Matrix
    pivot_rows: tuple[int, ...]


_rational_basis_cache: dict = {}
_field_basis_cache: dict = {}


def _word_index(word, n: int) -> int:
    idx = 0
    for w in word:
        idx = idx * n + w
    return idx


def _build_rational_basis(mu: Partition, n: int):
    d = mu.d
    c, _ = young_symmetrizer(mu)
    expected = hook_content_dim(mu, n)
    terms = sorted(c.terms.items())
    # pivot row -> sparse column, kept mutually reduced at all times
    pivot_cols: dict[int, dict[int, Fraction]] = {}
    if expected:
        for word in itertools.product(range(n), repeat=d):
            vec: dict[int, Fraction] = {}
            for perm, coeff in terms:
                idx = _word_index(tuple(word[perm[i]] for i in range(d)), n)
                val = vec.get(idx, Fraction(0)) + coeff
                if val:
                    vec[idx] = val
                elif idx in vec:
                    del vec[idx]
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
    pivot_rows = tuple(sorted(pivot_cols))
    size = n ** d
    cols = []
    for prow in pivot_rows:
        col = [Fraction(0)] * size
        for r, v in pivot_cols[prow].items():
            col[r] = v
        cols.append(col)
    return pivot_rows, Matrix.from_columns(QQ, cols, size)


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
    pivot_rows, rational_matrix = cached
    fkey = (mu.parts, n, field)
    basis = _field_basis_cache.get(fkey)
    if basis is None:
        matrix = rational_matrix if field == QQ else \
            rational_matrix.map_entries(field.coerce, field)
        basis = SchurBasis(mu=mu, n=n, field=field, dim=len(pivot_rows),
                           basis_matrix=matrix, pivot_rows=pivot_rows)
        _field_basis_cache[fkey] = basis
    return basis


def _apply_axis(vec, rows, axis: int, n: int, d: int, zero):
    """Apply a matrix to one tensor slot of a dense length-n^d vector."""
    stride = n ** (d - 1 - axis)
    block = stride * n
    out = [zero] * len(vec)
    for base in range(0, len(vec), block):
        for off in range(stride):
            idx = base + off
            vals = [vec[idx + s * stride] for s in range(n)]
            for r in range(n):
                acc = zero
                row = rows[r]
                for s in range(n):
                    v = vals[s]
                    if v and row[s]:
                        acc = acc + row[s] * v
                out[idx + r * stride] = acc
    return out


def _dense_basis_columns(basis: SchurBasis):
    return [basis.basis_matrix.column(j) for j in range(basis.dim)]


def schur_of_matrix(A: Matrix, mu: Partition) -> Matrix:
    """Matrix of the d-th tensor power of A restricted to the symmetrizer
    image, in the canonical basis.  Functorial in A."""
    if not A.is_square():
        raise ValueError("schur_of_matrix needs a square matrix")
    n = A.nrows
    d = mu.d
    basis = schur_basis(mu, n, A.field)
    if basis.dim == 0:
        return Matrix.zeros(A.field, 0, 0)
    rows = [list(r) for r in A.rows]
    zero = A.field.zero
    out_cols = []
    for col in _dense_basis_columns(basis):
        vec = list(col)
        for axis in range(d):
            vec = _apply_axis(vec, rows, axis, n, d, zero)
        out_cols.append([vec[r] for r in basis.pivot_rows])
    return Matrix.from_columns(A.field, out_cols, basis.dim)


def schur_derivation(N: Matrix, mu: Partition) -> Matrix:
    """Matrix of sum_i 1 x ... x N x ... x 1 restricted to the
    symmetrizer image; the image of a nilpotent is nilpotent."""
    if not N.is_square():
        raise ValueError("schur_derivation needs a square matrix")
    n = N.nrows
    d = mu.d
    basis = schur_basis(mu, n, N.field)
    if basis.dim == 0:
        return Matrix.zeros(N.field, 0, 0)
    rows = [list(r) for r in N.rows]
    zero = N.field.zero
    out_cols = []
    for col in _dense_basis_columns(basis):
        acc = [zero] * len(col)
        for axis in range(d):
            term = _apply_axis(list(col), rows, axis, n, d, zero)
            acc = [a + b for a, b in zip(acc, term)]
        out_cols.append([acc[r] for r in basis.pivot_rows])
    return Matrix.from_columns(N.field, out_cols, basis.dim)


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
