"""Certified enclosures for the absolute values of complex polynomial
roots.

For a monic squarefree f of degree m and pairwise distinct approximations
z_1..z_m, f is the characteristic polynomial of the generalized companion
matrix diag(z_i) - e * w^T with the Weierstrass corrections
w_i = f(z_i) / prod_{j!=i}(z_i - z_j); column Gershgorin disks D(z_i, m*|w_i|)
therefore cover all roots, and pairwise disjoint disks isolate exactly one
root each.  The one correction w_i seeds the approximations in floats
(Durand-Kerner), then refines them (z_i - w_i) and bounds the disks exactly,
on Gaussian integers over one denominator 2^e (kept as e, so scaling is a
shift) shared by a round's approximations: the intervals are guaranteed.
A round passes when each radius, rounded up to the output's 2^-shift, is at
most 3 eps / 8 (bit lengths refute most failing rounds before any root is
taken) and the disks are disjoint at 2^-shift, or else at 2^-bits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, inf, isqrt, log2, prod

from .fields import Poly, QQ, Record, _poly, squarefree_decomposition


class CertificationFailed(ArithmeticError):
    """The requested enclosure width could not be certified within the
    configured iteration budget."""


class ModulusInterval(Record):
    """Certified enclosure lo <= |root| <= hi for one root (counted with
    multiplicity)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("modulus interval needs 0 <= lo <= hi")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def half_power_range(self, q: int):
        """(a, b) with q**(j/2) in [lo, hi] exactly when a <= j <= b: one
        exact bracket of powers of q per nonzero endpoint, -inf for a zero.
        The square of a reduced fraction is reduced, so it is taken on ints."""
        lo, hi, a, b = self.lo, self.hi, -inf, -inf
        if lo:
            i, exact = _q_log(lo.numerator ** 2, lo.denominator ** 2, q)
            a = i + (not exact)
        if hi:
            b = _q_log(hi.numerator ** 2, hi.denominator ** 2, q)[0]
        return a, b


def _q_log(n: int, d: int, q: int):
    """(i, n/d == q**i) for the i with q**i <= n/d < q**(i+1), for ints n, d > 0
    and q >= 2.  Bit lengths guess i, and exact steps by q move it until
    n q^max(-i,0) and d q^max(i,0) bracket it; the guess affects only the cost."""
    i = floor((n.bit_length() - d.bit_length()) / log2(q))
    n, d = n * q ** max(-i, 0), d * q ** max(i, 0)
    while n < d:
        n, i = n * q, i - 1
    while n >= d * q:
        d, i = d * q, i + 1
    return i, n == d


def _shift(tol: Fraction) -> int:
    """Bits of the resolution 2^-shift < tol / 2 of radii and moduli for tol."""
    return max(1, (tol.denominator // tol.numerator).bit_length() + 1)


def _floor_sqrt(n: int, d: int, e: int, shift: int) -> int:
    """floor(sqrt(n / (d 4^e)) * 2^shift) for ints n >= 0, d > 0: isqrt of
    floor(n 4^(shift-e) / d), shifting first, as floor(floor(x/2^k)/d) = floor(x/(2^k d))."""
    k = 2 * (shift - e)
    return isqrt((n << k if k >= 0 else n >> -k) // d)


def _disjoint(zs, radii, e: int, shift: int) -> bool:
    """Are the disks D(Z_i / 2^e, r_i / 2^shift) pairwise disjoint?"""
    return all(((x - u) ** 2 + (y - v) ** 2 << 2 * shift) > ((r + s) ** 2 << 2 * e)
               for ((x, y), r), ((u, v), s) in combinations(zip(zs, radii), 2))


# Gaussian integers as (re, im) pairs of ints; a point z is Z / 2^e for a
# denominator 2^e shared by all points of a round, kept as e.

def _homogeneous(coeffs, e: int):
    """[c_k * 2^(e(m-k))]: Horner on these at Z gives 2^(em) * p(Z / 2^e)."""
    m = len(coeffs) - 1
    return [c << e * (m - k) for k, c in enumerate(coeffs)]


def _horner(scaled, z):
    """sum scaled[k] * z^k for a Gaussian integer z."""
    x, y = z
    re, im = scaled[-1], 0
    for c in reversed(scaled[:-1]):
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


def _rescale(e: int, zs, unit: int):
    """The same points over 2^max(e, unit), the lcm of 2^e and 2^unit."""
    k = max(unit - e, 0)
    return e + k, [(x << k, y << k) for x, y in zs]


def _round_div(n: int, d: int) -> int:
    """round(n / d) for d > 0, ties to even: round(Fraction(n, d))."""
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def _durand_kerner(coeffs):
    """Float approximations to the roots of a monic squarefree polynomial
    given by exact rational coefficients (low to high), refined by
    Weierstrass corrections until each is below 1e-14 of its root."""
    m = len(coeffs) - 1
    fc = [float(c) for c in coeffs]

    def ev(z):
        acc = 0j
        for c in reversed(fc):
            acc = acc * z + c
        return acc

    zs = [(0.4 + 0.9j) ** k for k in range(1, m + 1)]
    for _ in range(600):
        done = True
        for i in range(m):
            den = prod((zs[i] - zs[j] for j in range(m) if j != i), start=1 + 0j)
            w = ev(zs[i]) / (den or 1e-40)
            zs[i] -= w
            done = done and abs(w) <= 1e-14 * abs(zs[i])
        if done:
            break
    # a near-conjugate pair z, w (|Im z| < 1e-6 |Re z|, |w - conj z| <= |Im z|)
    # hides two close real roots when f changes sign, exactly, between
    # Re z - |Im z| and Re z; Weierstrass steps on a real polynomial keep
    # conjugate symmetry, so such a pair gets the real seeds Re z - |Im z|
    # and Re w + |Im z|, and a true conjugate pair keeps its complex seeds
    def exact(x):
        return sum(c * Fraction(x) ** k for k, c in enumerate(coeffs))

    for i, z in enumerate(zs):
        y = abs(z.imag)
        if not 0 < y < 1e-6 * abs(z.real):
            continue
        pair = [j for j, w in enumerate(zs) if j != i and w.imag and abs(w - z.conjugate()) <= y]
        if pair and exact(z.real) * exact(z.real - y) <= 0:
            zs[i], zs[pair[0]] = complex(z.real - y), complex(zs[pair[0]].real + y)
    return zs


_MAX_REFINE_ROUNDS = 24
# Weierstrass steps double the bits of the approximations up to _MAX_BITS, so
# no width much below 2^-16300 certifies (x^2 - 2 fails at 10^-5000); callers
# refuse a width under MIN_EPS at once, before any refinement round, and
# every width purity_check tries down to MIN_EPS / 16 is within reach.
_MAX_BITS = 1 << 14
MIN_EPS = Fraction(1, 1 << 16000)


def _certify_squarefree(f: Poly, eps: Fraction):
    """Certified modulus intervals for all roots of a monic squarefree
    rational polynomial, one per root, each of width <= eps."""
    m = f.degree
    if m == 0:
        return []
    if m == 1:
        return [ModulusInterval(abs(f[0]), abs(f[0]))]

    try:
        # floats are dyadic rationals, so the seeds convert exactly, over 2^e
        zs = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio())
              for z in _durand_kerner(list(f.coeffs))]
    except OverflowError as exc:
        raise CertificationFailed(f"coefficients too large for seeding: {exc}") from exc
    e = max(d.bit_length() for z in zs for _, d in z) - 1
    zs = [tuple(n << e + 1 - d.bit_length() for n, d in z) for z in zs]
    fa, D = f.num, f.den
    shift = _shift(eps / 8)
    # radii are integers R meaning R / 2^shift; R <= cap iff R / 2^shift <= 3 eps / 8
    cap = (3 * eps.numerator << shift) // (8 * eps.denominator)
    slack = (2 * cap * cap).bit_length() - (m * m).bit_length()
    bits = 128

    def radii(fps, e, res):  # the radii rounded up to 2^-res, 0 where F_i = 0
        return [any(F) and 1 + _floor_sqrt(m * m * (F[0] ** 2 + F[1] ** 2),
                                           D * D * (P[0] ** 2 + P[1] ** 2), e, res)
                for F, P in fps]

    for _ in range(_MAX_REFINE_ROUNDS):
        # nudge equal approximations apart by 2^-8 i, so the corrections exist
        if len(set(zs)) < m:
            e, zs = _rescale(e, zs, 8)
            seen = set()
            for i, (x, y) in enumerate(zs):
                while (x, y) in seen:
                    y += 1 << e - 8
                seen.add((x, y))
                zs[i] = (x, y)

        # F_i = 2^(em) D f(z_i), P_i = 2^(e(m-1)) prod_{j!=i} (z_i - z_j), so the
        # Weierstrass correction is w_i = F_i / (D 2^e P_i)
        scaled = _homogeneous(fa, e)
        fps = []
        for i, (x, y) in enumerate(zs):
            fr, fi = _horner(scaled, (x, y))
            pr, pi = 1, 0
            for j, (u, v) in enumerate(zs):
                if j != i:
                    pr, pi = pr * (x - u) - pi * (y - v), pr * (y - v) + pi * (x - u)
            fps.append(((fr, fi), (pr, pi)))
        # m|w_i| = sqrt(n_i / d_i), n_i = m^2 |F_i|^2, d_i = (D 2^e)^2 |P_i|^2, rounds up
        # past cap once n_i 4^shift >= cap^2 d_i.  If F_i != 0, the bit lengths a, b, g of
        # F_i, P_i, D 2^e give n_i >= m^2 4^(a-1) and d_i < 2 4^(b+g): the round fails if
        # 2(a - 1 + shift - b - g) > slack, and else n_i 4^shift / d_i < 512 cap^2
        g = D.bit_length() + e
        if not any(any(F) and 2 * (max(map(int.bit_length, F)) - max(map(int.bit_length, P))
                                   + shift - g - 1) > slack for F, P in fps):
            # a coarse disk contains the fine one: close roots need fine radii
            coarse, fine = radii(fps, e, shift), max(shift, bits)
            if all(r <= cap for r in coarse) and (_disjoint(zs, coarse, e, shift) or (
                    fine > shift and _disjoint(zs, radii(fps, e, fine), e, fine))):
                intervals = []
                for (x, y), r in zip(zs, coarse):
                    n = x * x + y * y
                    c = _floor_sqrt(n, 1, e, shift)
                    intervals.append(ModulusInterval(Fraction(max(c - r, 0), 1 << shift),
                                                     Fraction(c + (n != 0) + r, 1 << shift)))
                return intervals

        # Weierstrass step z - w = (Z G - F) / (2^e G) with G = D P, times
        # conj(G)/conj(G), rounded to 1/2^bits with ties to even
        new_zs = []
        for (x, y), ((fr, fi), (pr, pi)) in zip(zs, fps):
            gr, gi = D * pr, D * pi
            nr, ni = x * gr - y * gi - fr, x * gi + y * gr - fi
            q = gr * gr + gi * gi << e
            new_zs.append((_round_div(nr * gr + ni * gi << bits, q),
                           _round_div(ni * gr - nr * gi << bits, q)))
        zs, e = new_zs, bits
        bits = min(bits * 2, _MAX_BITS)

    raise CertificationFailed(
        f"could not certify enclosures of the requested width within "
        f"{_MAX_REFINE_ROUNDS} refinement rounds")


def root_moduli_certified(p, eps) -> list[ModulusInterval]:
    """One certified modulus interval per complex root of p (with
    multiplicity), each of width <= eps.

    p may be a Poly over Q or a low-to-high coefficient sequence of
    rationals.  Multiple roots are split off exactly beforehand (Yun), so
    only squarefree factors reach the numeric seeding stage.
    """
    if not isinstance(p, Poly):
        p = Poly(QQ, [Fraction(c) for c in p])
    if p.field != QQ:
        raise ValueError("certified root moduli are computed over Q")
    if p.is_zero():
        raise ValueError("root moduli of the zero polynomial")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")

    intervals: list[ModulusInterval] = []
    # split off the exact power of x
    nzero = next(i for i, c in enumerate(p.num) if c)
    intervals.extend(ModulusInterval(Fraction(0), Fraction(0)) for _ in range(nzero))
    if nzero:
        p = _poly(QQ, p.num[nzero:], p.den)
    if p.degree >= 1:
        for factor, mult in squarefree_decomposition(p):
            per_factor = _certify_squarefree(factor, eps)
            for iv in per_factor:
                intervals.extend([iv] * mult)
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    return intervals


DEFAULT_EPS = Fraction(1, 10 ** 30)
