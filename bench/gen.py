"""Seeded input families for the generated workloads.

Stdlib only, and deliberately independent of `wdreps`: the code under
test must not be able to change its own input.  Entries are polynomials
in t, held as low-to-high lists of Fractions; a matrix is a list of rows
of such lists.  The bytes written depend only on the seed.

Both families are direct sums of the corpus blocks below, conjugated by
a constant integer matrix U with integer inverse.  Conjugation by a
constant matrix changes neither signatures nor purity, so every seed must
produce the same report as the default seed; only the input digest
differs.  The benchmark checks exactly that.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

Q = 5  # every block below has q = 5

# (phi, nilp) per block, entries as low-to-high coefficient lists in t.
CONJUGATED_IRRATIONAL = (
    [[[0, F(1, 5)], [1, 0, F(-1, 5)]],
     [[F(1, 5)], [0, F(-1, 5)]]],
    [[[], []], [[], []]],
)
FLAGSHIP = (
    [[[1], []], [[], [F(1, 5)]]],
    [[[], []], [[0, 1], []]],
)
FLAGSHIP_CONSTANT = (
    [[[1], []], [[], [F(1, 5)]]],
    [[[], []], [[1], []]],
)


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def matmul(A, B):
    """Product of two matrices of polynomials."""
    inner = len(B)
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = []
            for k in range(inner):
                acc = _padd(acc, _pmul(row[k], B[k][j]))
            new.append(acc)
        out.append(new)
    return out


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[[] for _ in range(n)] for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = _trim(x)
        at += len(b)
    return out


def _constant(M):
    return [[[F(x)] if x else [] for x in row] for row in M]


def unimodular(n, rng, ops=8, multipliers=(-2, -1, 1, 2)):
    """An integer matrix U with det 1 and its integer inverse, built from
    `ops` elementary row operations row_i += m * row_j."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        m = rng.choice(multipliers)
        U[i] = [a + m * b for a, b in zip(U[i], U[j])]
        # inverse: column operation col_j -= m * col_i, applied on the right
        for row in Uinv:
            row[j] -= m * row[i]
    return U, Uinv


def permutation(n, rng):
    """A permutation matrix P and its inverse P^T."""
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    return P, [list(col) for col in zip(*P)]


def signed(pair, rng):
    """D*U and U^-1*D for a random sign diagonal D (D = D^-1)."""
    U, Uinv = pair
    signs = [rng.choice((-1, 1)) for _ in U]
    return ([[s * x for x in row] for s, row in zip(signs, U)],
            [[x * s for x, s in zip(row, signs)] for row in Uinv])


def _format_coeff(c: F) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p) -> str:
    """High-to-low expression such as '-1/5*t^2+3*t+1', in the syntax of
    the corpus documents."""
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = _format_coeff(mag)
        else:
            power = "t" if k == 1 else f"t^{k}"
            body = power if mag == 1 else f"{_format_coeff(mag)}*{power}"
        terms.append(sign + body)
    if not terms:
        return "0"
    text = "".join(terms)
    return text[1:] if text[0] == "+" else text


def family_document(blocks, U, Uinv) -> dict:
    phi = block_diagonal([b[0] for b in blocks])
    nilp = block_diagonal([b[1] for b in blocks])
    U, Uinv = _constant(U), _constant(Uinv)

    def conj(M):
        return [[format_poly(x) for x in row] for row in matmul(matmul(U, M), Uinv)]

    return {"field": {"type": "Qt"}, "inertia": [], "nilp": conj(nilp),
            "phi": conj(phi), "q": Q}


# The conjugator's shape (which rows mix, by how much, or which
# permutation) is fixed and the seed picks only its signs.  Run time
# depends strongly on the shape: over 20 seeds, seeded unimodular shapes
# ran from 2.1 s to 13.7 s and seeded permutations from 7.1 s to 9.3 s,
# far beyond any usable regression bound.  Sign changes keep every
# entry's size and every zero in place, so the work is the same for
# every seed while the bytes and the digest differ.
DENSE_SHAPE_SEED = 10  # 24 of 32 entries nonzero, total t-degree 32
WEDGE_SHAPE_SEED = 3


def dense_qt(seed: int) -> dict:
    """q = 5, dim 4: conjugated_irrational + flagship, conjugated by a
    unimodular matrix from 8 row operations, so most entries are nonzero."""
    shape = unimodular(4, random.Random(DENSE_SHAPE_SEED))
    return family_document([CONJUGATED_IRRATIONAL, FLAGSHIP],
                           *signed(shape, random.Random(seed)))


def wedge_tight(seed: int) -> dict:
    """q = 5, dim 6: conjugated_irrational + flagship + flagship_constant,
    conjugated by a signed permutation, so it stays sparse."""
    shape = permutation(6, random.Random(WEDGE_SHAPE_SEED))
    return family_document([CONJUGATED_IRRATIONAL, FLAGSHIP, FLAGSHIP_CONSTANT],
                           *signed(shape, random.Random(seed)))


def document_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
