"""Certified enclosures for the absolute values of complex polynomial
roots.

For a monic squarefree f of degree m and pairwise distinct approximations
z_1..z_m, f is the characteristic polynomial of the generalized companion
matrix diag(z_i) - e * w^T with the Weierstrass corrections
w_i = f(z_i) / prod_{j!=i}(z_i - z_j); column Gershgorin disks D(z_i, m*|w_i|)
therefore cover all roots, and pairwise disjoint disks isolate exactly one
root each (Petkovic, LNM 1387).  The one correction w_i seeds the
approximations in floats (Durand-Kerner), then refines them (z_i - w_i), on
Gaussian integers over one denominator 2^e shared by a round's
approximations.  A round passes when each radius, rounded up to the output's
2^-shift, is at most 3 eps / 8 and the disks are disjoint at 2^-shift, or
else at 2^-bits.  Each round evaluates f(z_i) and the products in fixed point
at the precision its decisions need, with integer error bounds (Higham,
5.1), and each decision read off a bound is the exact one: the intervals are
guaranteed.  Exact evaluation runs only where a bound leaves one open.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, inf, isqrt, log2, prod

from .fields import (DEFAULT_EPS, MIN_EPS, CertificationFailed, Poly, QQ, Record, _poly,
                     squarefree_decomposition)


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

def _evaluate(ga, zs, s: int, t: int):
    """[(2^u g(z_i), 2^u prod_{j!=i} (z_i - z_j))] at z_i = Z_i / 2^s for g's
    int coefficients ga, each Gaussian product floored by t bits: exact for t = 0
    (u = ms); at 2^-s for t = s, within 2 sum_{k<m-1} R^k and 2 sum_{k<m-2} (2R)^k
    units for R >= |z_i|, as each floor is off by < sqrt 2 and later factors grow it."""
    out = []
    for i, (x, y) in enumerate(zs):
        gr, gi, u = ga[-1] << t, 0, t
        for c in reversed(ga[:-1]):
            u += s - t
            gr, gi = (gr * x - gi * y >> t) + (c << u), gr * y + gi * x >> t
        pr, pi = 1 << t, 0
        for j, (a, b) in enumerate(zs):
            if j != i:
                a, b = x - a, y - b
                pr, pi = pr * a - pi * b >> t, pr * b + pi * a >> t
        out.append(((gr, gi), (pr << s - t, pi << s - t)))
    return out


def _abs2_bounds(a, err: int, t):
    """(lo, hi, k) with lo <= |v / 2^k|^2 <= hi for v within err of the Gaussian
    integer a, cut to about t bits: (|a| -+ err)^2, |a| <= |re a| + |im a| in 2|a|err."""
    k = max(max(a[0].bit_length(), a[1].bit_length()) - t, 0)
    x, y, err = a[0] >> k, a[1] >> k, (err >> k) + 3 if k else err
    n, c = x * x + y * y, 2 * err * (abs(x) + abs(y))
    return n - c, n + c + err * err, k


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
    bits = 128

    def radius(n, d, k, res):
        """1 + floor(sqrt(n / (d 4^k)) 2^res) for n > 0, else 0; cap + 1 stands
        for one that bit lengths show past cap at res = shift."""
        b = n.bit_length() - d.bit_length() + 2 * (res - k)
        if n <= 0 or b < 0:  # below 1 when n 4^(res-k) < d
            return int(n > 0)
        if res == shift and b > 2 * cap.bit_length():
            return cap + 1
        return 1 + _floor_sqrt(n, d, k, res)

    def radii(fps, al, be, res):
        """The radii 1 + floor(m |w_i| 2^res), w_i = G_i / (D P_i), 0 where G_i = 0:
        [r] for a lower bound r past cap, None where the bounds leave one open."""
        t, out = cap.bit_length() + 64 if al else inf, []
        for G, P in fps:
            (gl, gu, kg), (pl, pu, kp) = _abs2_bounds(G, al, t), _abs2_bounds(P, be, t)
            lo = radius(m * m * gl, D * D * pu, kp - kg, res)
            if lo > cap and res == shift:
                return [lo]
            out.append(lo if pl > 0 and radius(m * m * gu, D * D * pl, kp - kg, res) == lo
                       else None)
        return None if None in out else out

    def outcome(fps, al, be):
        """(intervals, None) if the round passes, else (None, the next z_i), from
        G_i and P_i within al and be units; None where a bound leaves it open."""
        coarse = radii(fps, al, be, shift)
        if coarse is None:
            return None
        if all(r <= cap for r in coarse):
            # a coarse disk contains the fine one: close roots need fine radii
            passed, fine = _disjoint(zs, coarse, e, shift), max(shift, bits)
            if not passed and fine > shift:
                if al:
                    return None
                passed = _disjoint(zs, radii(fps, 0, 0, fine), e, fine)
            if passed:
                intervals = []
                for (x, y), r in zip(zs, coarse):
                    n = x * x + y * y
                    c = _floor_sqrt(n, 1, e, shift)
                    intervals.append(ModulusInterval(Fraction(max(c - r, 0), 1 << shift),
                                                     Fraction(c + (n != 0) + r, 1 << shift)))
                return intervals, None

        # z - w to 2^-bits, ties to even, w = G conj(Q) / |Q|^2 for Q = D P: exactly,
        # or from W = floor(w 2^s) if no half-integer is within delta: P' = P / 2^k
        # within bk, cut to the bits of W and 64 more, has |P'| >= 2^(b-1) > 2 bk, so
        # |w 2^s - W| <= (2^(s-k) al / D + |W| bk) / (|P'| - bk) + 1
        new_zs, s = [], bits + 40
        for (x, y), ((fr, fi), (pr, pi)) in zip(zs, fps):
            b, bg = max(pr.bit_length(), pi.bit_length()), max(fr.bit_length(), fi.bit_length())
            k = al and min(max(min(2 * b - s - bg, b) - 64, 0), s)
            pr, pi, bk = pr >> k, pi >> k, (be >> k) + 3 if k else be
            gr, gi = D * pr, D * pi
            q, num = gr * gr + gi * gi, (fr * gr + fi * gi, fi * gr - fr * gi)
            if not al:
                new_zs.append(tuple(_round_div(c * q - (n << e) << bits, q << e)
                                    for c, n in zip((x, y), num)))
                continue
            b = max(pr.bit_length(), pi.bit_length())
            if 4 * bk + 3 >= 1 << b:
                return None
            w = [(n << s - k) // q for n in num]
            delta = ((al << s - k) // D + 1 + (abs(w[0]) + abs(w[1]) + 2) * bk >> b - 2) + 3
            z = [(c << s >> e) - wc + (1 << 39) for c, wc in zip((x, y), w)]
            if any(c + delta >> 40 != c - delta - 1 >> 40 for c in z):
                return None
            new_zs.append(tuple(c + delta >> 40 for c in z))
        return None, new_zs

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

        # g = D f at 2^-p, the z_i exact: for the step while e < shift, then the
        # radii, with room for the bounds al and be of R = 2^rb >= |z_i|
        rb = max(max(v.bit_length() for z in zs for v in z) + 1 - e, 0)
        p = max(e, shift if e >= shift else bits) + 64 + m * (rb + 1) + m.bit_length()
        al = 2 * sum(1 << rb * k for k in range(m - 1))
        be = 2 * sum(1 << (rb + 1) * k for k in range(m - 2))
        decided = outcome(_evaluate(fa, [(x << p - e, y << p - e) for x, y in zs], p, p), al, be)
        intervals, new_zs = decided or outcome(_evaluate(fa, zs, e, 0), 0, 0)
        if intervals:
            return intervals
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

