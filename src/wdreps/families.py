"""Families of Weil-Deligne representations with Q(t) coefficients:
specialization at rational points, purity-and-signature scans over point
grids, rigidity verdicts, and trace linkage between families.

Specialization points are rational numbers; impure and undefined points
never fail a scan (they are recorded and exempted, since the rigidity
statement quantifies only over pure specializations).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .fields import (DEFAULT_EPS, QQ, QT, CertificationFailed, DenominatorVanishes, Record,
                     SingularFrobenius, _poly)
from .linalg import Matrix, block_diagonal
from .wd import (INERTIA_CLOSURE_CAP, NonIntegralWeight, PurityReport, Signature,
                 SignatureEntry, WDRep, _line, _require_valid, frss_signature,
                 inertia_closure, purity_check, wd_schur)


def default_scan_points() -> list[Fraction]:
    """The default grid: the integers -25..25."""
    return [Fraction(a) for a in range(-25, 26)]


def _evaluate_matrix(M: Matrix, a: Fraction) -> Matrix:
    try:
        return Matrix(QQ, [[x.eval(a) for x in row] for row in M.num])
    except ZeroDivisionError as exc:
        raise DenominatorVanishes(a) from exc


def specialize(fam: WDRep, point) -> WDRep:
    """Evaluate every coefficient at t = a; evaluation commutes with every
    constructor.  The family is validated (once per object; an invalid one
    raises ValueError) and the point inherits its verdict unchecked.
    Evaluation at a is a ring homomorphism on the entries without a pole
    at a, so det(phi(a)) is det(phi)(a), kept on the family: it is checked
    once phi(a) is defined (it has no pole where the entries have none)
    and phi(a) is not reduced here.  So phi^-1 = adj(phi)/det(phi)
    evaluates to phi(a)^-1 and every invariant carries over: N(a)^n = 0,
    phi(a) N(a) phi(a)^-1 = q^-1 N(a), each g(a) commutes with N(a), g^m = I
    gives g(a)^m = I, and the point's inertia group is a quotient of the
    family's, so its closure stays under the cap and Frobenius still
    normalizes it."""
    if fam.field != QT:
        raise ValueError("specialize expects a family with Q(t) coefficients")
    _require_valid(fam)
    a = Fraction(point)
    phi = _evaluate_matrix(fam.phi, a)
    if not fam.phi.det().eval(a):
        raise SingularFrobenius(a)
    nilp = _evaluate_matrix(fam.nilp, a)
    inertia = tuple((label, _evaluate_matrix(g, a)) for label, g in fam.inertia)
    rho = WDRep(fam.q, QQ, phi, nilp, inertia)
    object.__setattr__(rho, "_verdict", None)
    return rho


def specialize_signature(sig: Signature, point) -> Signature:
    """Entrywise evaluation of a Q(t) signature at a rational t: each charpoly
    coefficient on ints, as `RatFunc.eval` takes it, and the charpoly built
    on them over one denominator."""
    entries = []
    for entry in sig.entries:
        terms = [c._at(point.numerator, point.denominator) for c in entry.charpoly.coeffs]
        den = lcm(*[d for _, d in terms])
        traces = tuple((label, v.eval(point)) for label, v in entry.inertia_traces)
        entries.append(SignatureEntry(t=entry.t, inertia_traces=traces, charpoly=_poly(
            QQ, [n * (den // d) for n, d in terms], den)))
    return Signature(tuple(entries))


class PointResult(Record):
    a: Fraction
    defined: bool
    error: str | None
    purity: PurityReport | None
    signature: Signature | None


class RigidityReport(Record):
    mu: Partition
    generic_signature: Signature
    points: tuple[PointResult, ...]
    verdict: str | None = None  # pass | fail | vacuous, None before rigidity_check
    failures: tuple[Fraction, ...] = ()


def _analyze_point(rho: WDRep, mu: Partition, weight, eps):
    """(error, purity report, signature) of the image of one specialization."""
    image = wd_schur(rho, mu)
    signature = frss_signature(image)
    try:
        return None, purity_check(image, weight, eps), signature
    except CertificationFailed as exc:
        report = PurityReport(weight=None, verdict="uncertifiable", per_graded=())
        return f"CertificationFailed: {exc}", report, signature
    except NonIntegralWeight as exc:
        return f"NonIntegralWeight: {exc}", None, signature


def purity_scan(fam: WDRep, mu: Partition, points, weight="infer",
                eps=DEFAULT_EPS) -> RigidityReport:
    """Generic signature over Q(t) plus, per point: specialize, apply the
    partition functor, certify purity, take the signature.  Per-point
    errors are recorded, never raised; the verdict is left unset.

    Points whose specializations share phi, inertia and the line of N
    (`wd._line`) share one analysis: for c != 0, d(cN) = c dN has the
    kernels, layers and filtration steps of dN, the signature reads only
    S_mu(phi), the layers and the inertia traces, purity only phi and the
    filtration, and no error message names the point."""
    generic = frss_signature(wd_schur(fam, mu))
    grid = sorted({Fraction(p) for p in points})
    analyzed = {}
    results = []
    for a in grid:
        try:
            rho = specialize(fam, a)
        except (DenominatorVanishes, SingularFrobenius) as exc:
            results.append(PointResult(a, False, f"{type(exc).__name__}: {exc}",
                                       None, None))
            continue
        key = (rho.phi, _line(rho.nilp), rho.inertia)
        if key not in analyzed:
            analyzed[key] = _analyze_point(rho, mu, weight, eps)
        results.append(PointResult(a, True, *analyzed[key]))
    return RigidityReport(mu=mu, generic_signature=generic, points=tuple(results))


def rigidity_check(report: RigidityReport) -> RigidityReport:
    """Verdict: pass when at every pure point the specialized generic
    signature equals the point signature, entry for entry: chain length,
    charpoly and inertia traces; vacuous when there is no pure point;
    impure and undefined points are exempt.  A fail is a signature
    mismatch: at a pure point a, the entries of phi, N and the inertia
    have no pole (`specialize` took them); each generic charpoly, a monic
    factor over Q(t) of charpoly(S_mu(phi)), has none since Q[t]_(t-a) is
    integrally closed; inertia traces, sums of roots of unity, are
    constants."""
    pure = [pr for pr in report.points
            if pr.defined and pr.purity is not None and pr.purity.verdict == "pure"]
    failures = tuple(pr.a for pr in pure
                     if specialize_signature(report.generic_signature, pr.a) != pr.signature)
    verdict = "fail" if failures else "pass" if pure else "vacuous"
    return report.replace(verdict=verdict, failures=failures)


class TraceLinkResult(Record):
    equal: bool
    first_difference: str | None


# the joint group of two valid families is a subgroup of the product of two
# closures within the cap, so this bound on its enumeration is never reached
_PAIR_CLOSURE_CAP = INERTIA_CLOSURE_CAP ** 2


def trace_link_check(fam1: WDRep, fam2: WDRep) -> TraceLinkResult:
    """Decide whether tr(phi1^k * g1) = tr(phi2^k * g2) for every k in Z
    and every element g = (g1, g2) of the joint inertia closure, matched
    through words in the shared generator labels.  Equality of these
    traces is the desk surrogate for sharing a pseudorepresentation.

    Comparing 1 <= k <= n = d1 + d2 decides it: with Phi = phi1 + phi2,
    H = g1 + g2 and J = I + (-I), s_k = tr(Phi^k H J) obeys the linear
    recurrence of charpoly(Phi) (Cayley-Hamilton), of order n, whose
    constant term +-det Phi is nonzero, so it also runs backwards: zeros
    at k = 1..n are zeros at every k.

    Both families are validated first (an invalid one raises ValueError).
    The joint closure is `inertia_closure` of the block-diagonal
    generators g1 + g2, and each element m is compared through the two
    diagonal blocks of Phi^k * m, in BFS order."""
    _require_valid(fam1)
    _require_valid(fam2)
    if fam1.q != fam2.q:
        raise ValueError("trace link requires matching q")
    if fam1.field != fam2.field:
        raise ValueError("trace link requires the same coefficient field")
    labels = sorted(label for label, _ in fam1.inertia)
    if labels != sorted(label for label, _ in fam2.inertia):
        raise ValueError("trace link requires matching inertia labels")
    field, d1 = fam1.field, fam1.dim
    gens1, gens2 = dict(fam1.inertia), dict(fam2.inertia)
    gens = [(label, block_diagonal(field, [gens1[label], gens2[label]])) for label in labels]
    size = d1 + fam2.dim
    closure = inertia_closure(gens, field, size, _PAIR_CLOSURE_CAP)
    phi = block_diagonal(field, [fam1.phi, fam2.phi])
    powers = list(accumulate([phi] * size, Matrix.__mul__))
    blocks = (range(d1), range(d1, size))
    for word, m in closure:
        for k, power in enumerate(powers, 1):
            product = power * m
            t1, t2 = (product.select(rows=b, cols=b).trace() for b in blocks)
            if t1 != t2:
                suffix = f"*{word}" if word else ""
                return TraceLinkResult(False, f"phi^{k}{suffix}")
    return TraceLinkResult(True, None)
