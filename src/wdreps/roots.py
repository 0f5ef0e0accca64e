"""Certified enclosures for the absolute values of complex polynomial
roots.

Floating point is used only to seed approximations (Durand-Kerner); the
certificates are exact.  For a monic squarefree f of degree m and pairwise
distinct approximations z_1..z_m, f is the characteristic polynomial of
the generalized companion matrix diag(z_i) - e * w^T with the Weierstrass
corrections w_i = f(z_i) / prod_{j!=i}(z_i - z_j); column Gershgorin disks
D(z_i, m*|w_i|) therefore cover all roots, and pairwise disjoint disks
isolate exactly one root each.  All disk data is computed in exact
Gaussian-rational arithmetic, so the resulting modulus intervals are
mathematically guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .fields import Poly, QQ, squarefree_decomposition


class CertificationFailed(ArithmeticError):
    """The requested enclosure width could not be certified within the
    configured iteration budget."""


@dataclass(frozen=True)
class ModulusInterval:
    """Certified enclosure lo <= |root| <= hi for one root (counted with
    multiplicity)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("modulus interval needs 0 <= lo <= hi")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains_half_power(self, base: int, j: int) -> bool:
        """Does the interval contain base**(j/2)?  Exact: compares squares."""
        target = Fraction(base) ** j
        return self.lo * self.lo <= target <= self.hi * self.hi

    def excludes_half_power(self, base: int, j: int) -> bool:
        target = Fraction(base) ** j
        return self.hi * self.hi < target or target < self.lo * self.lo


def sqrt_bounds(a: Fraction, tol: Fraction):
    """Rational (lo, hi) with lo^2 <= a <= hi^2 and hi - lo <= tol."""
    if a < 0:
        raise ValueError("square root of a negative number")
    if a == 0:
        return Fraction(0), Fraction(0)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    shift = max(1, (tol.denominator // tol.numerator).bit_length() + 1)
    scaled = a.numerator * (1 << (2 * shift)) // a.denominator
    r = isqrt(scaled)
    lo = Fraction(r, 1 << shift)
    hi = Fraction(r + 1, 1 << shift)
    return lo, hi


# Gaussian rationals as (re, im) pairs of Fractions.

def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    if d == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _cabs2(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _ceval(coeffs, z):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = _cmul(acc, z)
        acc = (acc[0] + c, acc[1])
    return acc


def _cround(z, bits: int):
    scale = 1 << bits
    return (Fraction(round(z[0] * scale), scale), Fraction(round(z[1] * scale), scale))


def _durand_kerner(coeffs):
    """Float approximations to the roots of a monic squarefree polynomial
    given by exact rational coefficients (low to high)."""
    m = len(coeffs) - 1
    fc = [float(c) for c in coeffs]

    def ev(z):
        acc = 0j
        for c in reversed(fc):
            acc = acc * z + c
        return acc

    zs = [(0.4 + 0.9j) ** k for k in range(1, m + 1)]
    for _ in range(600):
        shift = 0.0
        for i in range(m):
            den = 1.0 + 0j
            for j in range(m):
                if j != i:
                    den *= zs[i] - zs[j]
            if den == 0:
                den = 1e-40 + 0j
            w = ev(zs[i]) / den
            zs[i] -= w
            shift = max(shift, abs(w))
        if shift < 1e-14:
            break
    return zs


_MAX_REFINE_ROUNDS = 24


def _certify_squarefree(f: Poly, eps: Fraction):
    """Certified modulus intervals for all roots of a monic squarefree
    rational polynomial, one per root, each of width <= eps."""
    m = f.degree
    if m == 0:
        return []
    coeffs = list(f.coeffs)
    if m == 1:
        root = -coeffs[0]
        modulus = abs(root)
        return [ModulusInterval(modulus, modulus)]

    try:
        seeds = _durand_kerner(coeffs)
    except OverflowError as exc:
        raise CertificationFailed(f"coefficients too large for seeding: {exc}") from exc
    zs = [(Fraction(z.real).limit_denominator(1 << 64),
           Fraction(z.imag).limit_denominator(1 << 64)) for z in seeds]
    fprime = f.derivative()
    sqrt_tol = eps / 8
    radius_cap = eps * Fraction(3, 8)
    bits = 128

    for _ in range(_MAX_REFINE_ROUNDS):
        # keep approximations pairwise distinct so the corrections exist
        seen = {}
        for i, z in enumerate(zs):
            while z in seen:
                z = (z[0] + Fraction(1, 1 << bits), z[1])
            seen[z] = i
            zs[i] = z

        ws = []
        for i, z in enumerate(zs):
            den = (Fraction(1), Fraction(0))
            for j, other in enumerate(zs):
                if j != i:
                    den = _cmul(den, _csub(z, other))
            ws.append(_cdiv(_ceval(coeffs, z), den))

        radii = []
        for w in ws:
            _, wub = sqrt_bounds(_cabs2(w), sqrt_tol)
            radii.append(m * wub)

        ok = all(r <= radius_cap for r in radii)
        if ok:
            for i in range(m):
                for j in range(i + 1, m):
                    gap2 = _cabs2(_csub(zs[i], zs[j]))
                    lim = radii[i] + radii[j]
                    if gap2 <= lim * lim:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            intervals = []
            for z, r in zip(zs, radii):
                clo, chi = sqrt_bounds(_cabs2(z), sqrt_tol)
                lo = clo - r
                intervals.append(ModulusInterval(lo if lo > 0 else Fraction(0), chi + r))
            return intervals

        # Newton step in exact arithmetic, then round to keep sizes tame
        new_zs = []
        for z in zs:
            fp = _ceval(fprime.coeffs, z)
            if fp == (Fraction(0), Fraction(0)):
                z = (z[0] + Fraction(1, 1 << (bits // 2)), z[1])
                fp = _ceval(fprime.coeffs, z)
            step = _cdiv(_ceval(coeffs, z), fp)
            new_zs.append(_cround(_csub(z, step), bits))
        zs = new_zs
        bits = min(bits * 2, 1 << 14)

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
    nzero = 0
    while p[nzero] == 0 and nzero <= p.degree:
        nzero += 1
    intervals.extend(ModulusInterval(Fraction(0), Fraction(0)) for _ in range(nzero))
    if nzero:
        p = Poly(QQ, p.coeffs[nzero:])
    if p.degree >= 1:
        for factor, mult in squarefree_decomposition(p):
            per_factor = _certify_squarefree(factor, eps)
            for iv in per_factor:
                intervals.extend([iv] * mult)
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    return intervals


DEFAULT_EPS = Fraction(1, 10 ** 30)
