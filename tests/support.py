"""Shared generators and independent oracles for the test suite."""

import itertools
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from wdreps import (Matrix, Partition, Poly, QQ, QT, Signature, SingularMatrixError, WDRep,
                    block_diagonal, column_echelon, hook_content_dim, mat_subspaces,
                    sp_construct, wd_direct_sum, young_symmetrizer)
from wdreps.fields import format_poly
from wdreps.linalg import intersect_columns


@contextmanager
def fractions_built():
    """The argument tuples of every `Fraction` constructed inside the block."""
    built, new = [], vars(Fraction)["__new__"]
    Fraction.__new__ = staticmethod(lambda cls, *args, **kw:
                                    built.append(args) or new.__func__(cls, *args, **kw))
    try:
        yield built
    finally:
        Fraction.__new__ = new


class NonSplitSpectrum(RuntimeError):
    """An operation needed spectral data that is not available without
    polynomial factorization."""


def from_columns(field, cols, nrows: int) -> Matrix:
    """The matrix with the given columns, each a list of nrows scalars;
    without rows it keeps the column count."""
    cols = list(cols)
    if nrows == 0:
        return Matrix.zeros(field, 0, len(cols))
    return Matrix(field, [[col[i] for col in cols] for i in range(nrows)])


def inverse_by_elimination(M: Matrix) -> Matrix:
    """Independent inverse oracle: the reduced echelon form of [M | I].
    SingularMatrixError when M's columns are not all pivots; over an etale
    algebra, a column of zero divisors raises ZeroDivisorPivotError."""
    n = M.nrows
    red, pivots = M.hstack(Matrix.identity(M.field, n)).rref()
    if tuple(pivots[:n]) != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return red.select(cols=range(n, 2 * n))


def poly_xgcd(a: Poly, b: Poly):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = field.one / r0.leading()
    return r0.monic(), s0 * inv, t0 * inv


class FractionResidue:
    """Independent number-field oracle for `NFElem`: a residue mod the monic
    minimal polynomial m kept as deg m Fraction coefficients, a product
    formed as the product of two `Poly`s over Q reduced by `%`, an inverse
    by extended Euclid, which meets a zero divisor as a nonconstant gcd."""

    def __init__(self, m: Poly, coeffs):
        cs = list((Poly(QQ, [Fraction(c) for c in coeffs]) % m).coeffs)
        self.m, self.coeffs = m, tuple(cs + [Fraction(0)] * (m.degree - len(cs)))

    def poly(self) -> Poly:
        return Poly(QQ, self.coeffs)

    def __add__(self, other):
        return FractionResidue(self.m, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FractionResidue(self.m, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return FractionResidue(self.m, (self.poly() * other.poly() % self.m).coeffs)

    def inverse(self):
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = poly_xgcd(self.poly(), self.m)
        if g.degree != 0:
            raise ZeroDivisionError(f"zero divisor in Q[a]/({format_poly(self.m, 'a')})")
        return FractionResidue(self.m, (s * (1 / g[0])).coeffs)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def regular_matrix(self):
        """Rows of the multiplication-by-self matrix on 1, a, ..., a^(m-1)."""
        gen = FractionResidue(self.m, [0, 1])
        cols, acc = [], self
        for _ in range(self.m.degree):
            cols.append(acc.coeffs)
            acc = acc * gen
        return [list(row) for row in zip(*cols)]

    def __str__(self):
        return format_poly(self.poly(), "a")


class FractionPoly:
    """Independent oracle for `Poly` over Q: the arithmetic `Poly` ran on
    Fraction coefficients before it stored ints over one denominator,
    copied here.  Coefficients low degree first, no trailing zeros; school
    sum, product and long division over Q, Euclid's gcd, Yun's algorithm,
    and the squarefree part as the product of Yun's factors."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return self.coeffs == FractionPoly.lift(other).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @staticmethod
    def lift(other):
        return other if isinstance(other, FractionPoly) else FractionPoly([other])

    def __add__(self, other):
        a, b = self.coeffs, FractionPoly.lift(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -FractionPoly.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self.coeffs, FractionPoly.lift(other).coeffs
        if not a or not b:
            return FractionPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FractionPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        b = FractionPoly.lift(other).coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem, dd = list(self.coeffs), len(b) - 1
        quo = [Fraction(0)] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            q = quo[i - dd] = rem[i] / b[-1]
            for j, c in enumerate(b):
                rem[i - dd + j] -= q * c
        return FractionPoly(quo), FractionPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        return FractionPoly([c / self.coeffs[-1] for c in self.coeffs])

    def derivative(self):
        return FractionPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def squarefree_decomposition(self):
        if not self:
            raise ValueError("squarefree decomposition of the zero polynomial")
        p = self.monic()
        if p.degree == 0:
            return []
        dp = p.derivative()
        a = p.gcd(dp)
        b, c = p // a, dp // a
        d = c - b.derivative()
        factors, i = [], 1
        while b.degree > 0:
            f = b.gcd(d)
            if f.degree > 0:
                factors.append((f, i))
            b, c = b // f, d // f
            d = c - b.derivative()
            i += 1
        return factors

    def squarefree_part(self):
        out = FractionPoly([1])
        for f, _ in self.squarefree_decomposition():
            out = out * f
        return out

    def format(self, var: str = "x") -> str:
        pieces = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = str(abs(c))
            xpow = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            body = mag if not xpow else xpow if mag == "1" else f"{mag}*{xpow}"
            pieces.append(("-" if c < 0 else "+" if pieces else "") + body)
        return "".join(pieces) or "0"


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


def full_product_basis(mu, n: int):
    """The canonical Schur basis over Q as (pivot words, sparse columns),
    from c applied to every word of the full product in lexicographic
    order, each result reduced against the pivot columns so far: an oracle
    for `schur._build_rational_basis`, which takes only the semistandard
    words and shares no reduction code with this loop."""
    if len(mu.parts) > n:
        return (), ()
    terms = sorted(young_symmetrizer(mu)[0].items())
    expected = hook_content_dim(mu, n)
    pivots = {}
    for word in itertools.product(range(n), repeat=mu.d):
        vec = {}
        for perm, coeff in terms:
            key = tuple(word[i] for i in perm)
            vec[key] = vec.get(key, 0) + coeff
        for prow in [r for r in vec if r in pivots and vec[r]]:
            scale = vec[prow]
            for r, v in pivots[prow].items():
                vec[r] = vec.get(r, 0) - scale * v
        vec = {r: v for r, v in vec.items() if v}
        if not vec:
            continue
        prow = min(vec)
        new = {r: Fraction(v, vec[prow]) for r, v in vec.items()}
        for col in pivots.values():
            if col.get(prow):
                scale = col[prow]
                for r, v in new.items():
                    col[r] = col.get(r, 0) - scale * v
                    if not col[r]:
                        del col[r]
        pivots[prow] = new
        if len(pivots) == expected:
            break
    words = tuple(sorted(pivots))
    return words, tuple(tuple(sorted(pivots[w].items())) for w in words)


def basis_matrix(basis, field=QQ) -> Matrix:
    """The dense n^d x dim matrix over `field` of a Schur basis's sparse
    columns, rows in big-endian word order."""
    words = list(itertools.product(range(basis.n), repeat=basis.mu.d))
    return from_columns(field, [[field.coerce(col.get(w, 0)) for w in words]
                                for col in map(dict, basis.columns)], len(words))


def rank(M: Matrix) -> int:
    return len(M.rref()[1])


def signature_union(a, b):
    """The multiset union of two signatures."""
    return Signature(a.entries + b.entries)


def contains_half_power(iv, base: int, j: int) -> bool:
    """Does the modulus interval iv contain base**(j/2)?"""
    a, b = iv.half_power_range(base)
    return a <= j <= b


def sqrt_bounds(a: Fraction, tol: Fraction):
    """Rational (lo, hi) with lo^2 <= a <= hi^2 and hi - lo <= tol: consecutive
    multiples of 2^-shift for the least power of two 2^shift >= 2 above 2 / tol
    (so a tolerance 2^-(k-2) is resolved to 2^-k)."""
    if a < 0:
        raise ValueError("square root of a negative number")
    if a == 0:
        return Fraction(0), Fraction(0)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    shift = max(1, (tol.denominator // tol.numerator).bit_length() + 1)
    r = isqrt((a.numerator << 2 * shift) // a.denominator)
    return Fraction(r, 1 << shift), Fraction(r + 1, 1 << shift)


def graded_dim(filt, k: int) -> int:
    """Dimension of the graded piece M_k / M_(k-1) of a filtration."""
    return filt.step(k).ncols - filt.step(k - 1).ncols


def schur_trace_oracle(power_sums, mu, field=QQ):
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
    rows = [[h[m] if 0 <= m <= d else field.zero
             for m in (mu.parts[i] - i + j for j in range(ell))] for i in range(ell)]
    return Matrix(field, rows).det()


def companion(p) -> Matrix:
    if not p.is_monic() or p.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    g, field = p.degree, p.field
    return Matrix(field, [[-p[i] if j == g - 1 else field.one if i == j + 1 else field.zero
                           for j in range(g)] for i in range(g)])


def signature_reconstruct(sig, q: int, field=QQ) -> WDRep:
    """Rebuild a representation with the given signature: each entry
    (t, p) becomes the special representation of the unramified twist
    whose chain-bottom Frobenius is the companion matrix of p.  Inertia
    trace data cannot be rebuilt without splitting the spectrum."""
    if any(entry.inertia_traces for entry in sig.entries):
        raise NonSplitSpectrum("cannot reconstruct inertia actions from traces alone")
    total = None
    for entry in sig.entries:
        top = companion(entry.charpoly) * field.coerce(Fraction(q) ** (entry.t - 1))
        size = entry.charpoly.degree
        piece = sp_construct(entry.t, WDRep(q, field, top, Matrix.zeros(field, size, size)))
        total = piece if total is None else wd_direct_sum(total, piece)
    if total is None:
        raise ValueError("cannot reconstruct from an empty signature")
    return total


def random_fraction(rng, lo=-4, hi=4, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_matrix(rng, n, lo=-3, hi=3, field=QQ) -> Matrix:
    return Matrix(field, [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
                          for _ in range(n)])


def random_unimodular(rng, n, field=QQ) -> Matrix:
    """Product of a unit lower and a unit upper triangular matrix with
    small integer entries: always invertible, exact inverse."""
    lower = [[Fraction(1) if i == j else
              (Fraction(rng.randint(-2, 2)) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else
              (Fraction(rng.randint(-2, 2)) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    return Matrix(field, lower) * Matrix(field, upper)


def generator_shear(rng, n, field) -> Matrix:
    """Unit lower triangular matrix with entries in {-g, 0, g}, where g is
    the generator of Q(t) or of a number field: always invertible."""
    g = field.gen()
    return Matrix(field, [[field.one if i == j else
                           (field.coerce(rng.randint(-1, 1)) * g if i > j else field.zero)
                           for j in range(n)] for i in range(n)])


def random_nilpotent(rng, n, field=QQ) -> Matrix:
    """Random Jordan-type nilpotent conjugated by a random unimodular
    matrix: every Jordan profile of dimension n can occur.  Over Q(t) or a
    number field the conjugator also mixes in the field's generator."""
    sizes = []
    left = n
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    rows = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for s in sizes:
        for i in range(s - 1):
            rows[off + i + 1][off + i] = Fraction(1)
        off += s
    J = Matrix(field, rows)
    P = random_unimodular(rng, n, field)
    if field != QQ:
        P = P * generator_shear(rng, n, field)
    return P * J * P.inverse()


def random_pure_rep(rng, q, weight, max_dim=3) -> WDRep:
    """Random representation over Q that is pure of the given weight:
    a direct sum of special representations of unramified characters
    +-q^m with 2m - (t - 1) = weight."""
    pieces = []
    total = 0
    while not pieces or (total < max_dim and rng.random() < 0.5):
        t_max = max_dim - total
        choices = [t for t in range(1, t_max + 1) if (weight + t - 1) % 2 == 0]
        if not choices:
            break
        t = rng.choice(choices)
        m = (weight + t - 1) // 2
        sign = rng.choice([1, -1])
        char = WDRep(q, QQ, Matrix(QQ, [[Fraction(sign) * Fraction(q) ** m]]),
                     Matrix.zeros(QQ, 1, 1))
        pieces.append(sp_construct(t, char))
        total += t
    rep = pieces[0]
    for piece in pieces[1:]:
        rep = wd_direct_sum(rep, piece)
    return rep


def random_valid_wdrep(rng, q, max_dim=4, with_inertia=False) -> WDRep:
    """Random valid representation: a sum of special representations of
    unramified characters, conjugated by a random unimodular matrix;
    optional order-2 inertia acting by a sign on each block."""
    blocks = []
    signs = []
    total = 0
    while not blocks or (total < max_dim and rng.random() < 0.6):
        t = rng.randint(1, max_dim - total)
        c = Fraction(rng.choice([1, -1])) * Fraction(q) ** rng.randint(-1, 1)
        char = WDRep(q, QQ, Matrix(QQ, [[c]]), Matrix.zeros(QQ, 1, 1))
        blocks.append(sp_construct(t, char))
        signs.append(rng.choice([1, -1]))
        total += t
    phi = block_diagonal(QQ, [b.phi for b in blocks])
    nilp = block_diagonal(QQ, [b.nilp for b in blocks])
    inertia = ()
    if with_inertia:
        g = block_diagonal(QQ, [Matrix.identity(QQ, b.dim) * Fraction(s)
                                for b, s in zip(blocks, signs)])
        inertia = (("g", g),)
    P = random_unimodular(rng, total)
    Pinv = P.inverse()
    return WDRep(q, QQ, P * phi * Pinv, P * nilp * Pinv,
                 tuple((label, P * g * Pinv) for label, g in inertia))


def lift_to_field(rng, rho: WDRep, field) -> WDRep:
    """A representation over Q carried to `field`: over Q(t) or a number
    field every matrix is also conjugated by the same `generator_shear`,
    so the entries mix in the field's generator."""
    if field == QQ:
        return rho
    P = generator_shear(rng, rho.dim, field)
    P_inv = P.inverse()

    def conj(M):
        return P * Matrix(field, M.rows) * P_inv

    return WDRep(rho.q, field, conj(rho.phi), conj(rho.nilp),
                 tuple((label, conj(g)) for label, g in rho.inertia))


def kernel_sum_filtration_step(N: Matrix, k: int) -> Matrix:
    """Independent filtration oracle: M_k = sum_j (ker N^(k+j+1) & im N^j),
    assembled directly from the formula."""
    n = N.nrows
    field = N.field
    pieces = []
    power_j = Matrix.identity(field, n)
    for j in range(0, n + 1):
        exp = k + j + 1
        if exp >= 0:
            _, ker, _ = mat_subspaces(N ** exp if exp <= n else N ** n)
            _, _, image = mat_subspaces(power_j)
            part = intersect_columns(ker, image)
            if part.ncols:
                pieces.append(part)
        power_j = power_j * N
    if not pieces:
        return Matrix.zeros(field, n, 0)
    stacked = pieces[0]
    for part in pieces[1:]:
        stacked = stacked.hstack(part)
    return column_echelon(stacked)


def subspaces_equal(A: Matrix, B: Matrix) -> bool:
    return column_echelon(A) == column_echelon(B) if A.ncols or B.ncols else True


def flagship_family() -> WDRep:
    return WDRep(5, QT,
                 Matrix(QT, [["1", "0"], ["0", "1/5"]]),
                 Matrix(QT, [["0", "0"], ["t", "0"]]))


def flagship_constant_partner() -> WDRep:
    return WDRep(5, QT,
                 Matrix(QT, [["1", "0"], ["0", "1/5"]]),
                 Matrix(QT, [["0", "0"], ["1", "0"]]))


def trivial_onedim(q=5) -> WDRep:
    return WDRep(q, QQ, Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1))
