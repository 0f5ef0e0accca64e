import math
import random
from fractions import Fraction

import pytest

from wdreps import (DEFAULT_EPS, CertificationFailed, ModulusInterval, Poly,
                    QQ, root_moduli_certified)
from wdreps import roots, wd
from wdreps.fields import poly_gcd

from support import contains_half_power, sqrt_bounds


def assert_enclosure(intervals, true_moduli, eps):
    assert len(intervals) == len(true_moduli)
    for iv, true_sq in zip(intervals, sorted(true_moduli)):
        # true_sq is the square of the true modulus: compare exactly
        assert iv.lo * iv.lo <= true_sq <= iv.hi * iv.hi
        assert iv.width() <= eps


class TestSqrtBounds:
    def test_exact_square(self):
        lo, hi = sqrt_bounds(Fraction(4), Fraction(1, 10 ** 12))
        assert lo <= 2 <= hi and hi - lo <= Fraction(1, 10 ** 12)

    def test_zero(self):
        assert sqrt_bounds(Fraction(0), Fraction(1, 10)) == (0, 0)

    def test_irrational(self):
        lo, hi = sqrt_bounds(Fraction(2), Fraction(1, 10 ** 30))
        assert lo * lo <= 2 <= hi * hi


def test_integer_round_matches_fraction_round():
    # ties go to the even neighbour, as in round(Fraction)
    for n in range(-40, 41):
        for d in (1, 2, 4, 6, 7, 8):
            assert roots._round_div(n, d) == round(Fraction(n, d))


class TestExamples:
    def test_x2_minus_4(self):
        intervals = root_moduli_certified([-4, 0, 1], DEFAULT_EPS)
        assert_enclosure(intervals, [Fraction(4), Fraction(4)], DEFAULT_EPS)

    def test_x2_plus_1(self):
        intervals = root_moduli_certified([1, 0, 1], DEFAULT_EPS)
        assert_enclosure(intervals, [Fraction(1), Fraction(1)], DEFAULT_EPS)

    def test_complex_pair_sqrt5(self):
        # x^2 - 3x + 5: negative discriminant, root product 5, so both
        # complex roots have modulus sqrt(5)
        intervals = root_moduli_certified([5, -3, 1], DEFAULT_EPS)
        assert_enclosure(intervals, [Fraction(5), Fraction(5)], DEFAULT_EPS)

    def test_multiplicities_and_origin(self):
        # x^3 (x - 2)^2 (x^2 + x + 1)
        p = Poly(QQ, [0, 0, 0, 1]) * Poly(QQ, [-2, 1]) ** 2 * Poly(QQ, [1, 1, 1])
        intervals = root_moduli_certified(p, DEFAULT_EPS)
        truths = [Fraction(0)] * 3 + [Fraction(1)] * 2 + [Fraction(4)] * 2
        assert_enclosure(intervals, truths, DEFAULT_EPS)

    def test_errors(self):
        with pytest.raises(ValueError):
            root_moduli_certified([], DEFAULT_EPS)
        with pytest.raises(ValueError):
            root_moduli_certified([1, 1], Fraction(0))

    def test_unreachable_eps_fails_loudly(self):
        with pytest.raises(CertificationFailed):
            root_moduli_certified([-2, 0, 1], Fraction(1, 10 ** 6000))


class TestProperties:
    def test_known_rational_moduli(self):
        rng = random.Random(5)
        for _ in range(30):
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            p = Poly.one(QQ)
            for r in roots:
                p = p * Poly(QQ, [-r, 1])
            intervals = root_moduli_certified(p, DEFAULT_EPS)
            expected = sorted(r * r for r in roots)
            got_sq_sorted = sorted(zip([iv.lo for iv in intervals], intervals))
            for (_, iv), true_sq in zip(got_sq_sorted, expected):
                assert iv.lo * iv.lo <= true_sq <= iv.hi * iv.hi
                assert iv.width() <= DEFAULT_EPS

    def test_constant_term_product_consistency(self):
        # |p(0)/lead| = product of all root moduli, so the interval
        # product must bracket it
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(1, 5)
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(n)] + [Fraction(1)]
            p = Poly(QQ, coeffs)
            intervals = root_moduli_certified(p, Fraction(1, 10 ** 12))
            target = abs(Fraction(p[0])) / abs(p.leading())
            lo = math.prod((iv.lo for iv in intervals), start=Fraction(1))
            hi = math.prod((iv.hi for iv in intervals), start=Fraction(1))
            assert lo <= target <= hi

    def test_half_power_membership(self):
        iv = root_moduli_certified([5, -3, 1], DEFAULT_EPS)[0]
        assert contains_half_power(iv, 5, 1)
        assert not contains_half_power(iv, 5, 0)
        assert not contains_half_power(iv, 5, 2)

    def test_half_power_tests_against_the_direct_comparison(self):
        """`_q_log` brackets x between consecutive powers of the base, and
        `half_power_range` holds exactly the j with lo^2 <= base**j <= hi^2,
        against squares and powers formed directly: on intervals whose
        squares straddle, touch or miss base**j by a little or by far, with
        lo = 0 and with exact powers at either end or both, and on bases
        that are powers of two (where base**j is exactly 2^(j(b-1)))."""
        rng = random.Random(4242)
        brackets = 0
        for _ in range(3000):
            base = rng.choice((2, 3, 4, 5, 7, 8, 25, 49, 1024, 3 ** 20))
            j = rng.randint(-300, 300)
            target = Fraction(base) ** j
            bits = j * math.log2(base) / 2  # log2 of base**(j/2)
            ends = []
            for _ in range(2):
                kind = rng.randrange(4)
                if kind == 0 and j % 2 == 0:  # exactly base**(j/2)
                    x = Fraction(base) ** (j // 2)
                elif kind == 1:  # a random rational of about the same size
                    den = rng.randint(1, 2 ** rng.randint(1, 60))
                    scale = int(bits + rng.randint(-3, 3) + den.bit_length())
                    x = Fraction(rng.randint(0, 2 ** max(scale, 0)), den)
                elif kind == 2:  # far off
                    x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                else:
                    x = Fraction(0)
                ends.append(x)
            lo, hi = sorted(ends)
            iv = ModulusInterval(lo, hi)
            a, b = iv.half_power_range(base)
            for k in (j - 1, j, j + 1):
                power = Fraction(base) ** k
                assert (a <= k <= b) == (lo * lo <= power <= hi * hi)
            assert contains_half_power(iv, base, j) == (lo * lo <= target <= hi * hi)
            for x in (lo * lo, hi * hi, target, target * (1 + Fraction(1, 2 ** 400)),
                      target * (1 - Fraction(1, 2 ** 400))):
                if x:
                    i, exact = roots._q_log(x.numerator, x.denominator, base)
                    assert Fraction(base) ** i <= x < Fraction(base) ** (i + 1)
                    assert exact == (x == Fraction(base) ** i)
                    brackets += 1
        assert brackets == 12369

    def test_exact_interval_for_rational_roots(self):
        iv = root_moduli_certified([-3, 1], DEFAULT_EPS)[0]
        assert iv == ModulusInterval(Fraction(3), Fraction(3))


# ---------------------------------------------------------------------------
# reference oracle: the certifier on Gaussian rationals (Fractions), with the
# radius taken as an upper bound of m|w|
# ---------------------------------------------------------------------------

def _reference_certify(f, eps):
    """(intervals, Weierstrass steps, whether some radius is 0) from the same
    seeds, rounds and certificate as `_certify_squarefree`, in Fraction
    arithmetic throughout."""
    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        d = b[0] * b[0] + b[1] * b[1]
        return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)

    def abs2(a):
        return a[0] * a[0] + a[1] * a[1]

    def ev(coeffs, z):
        acc = (Fraction(0), Fraction(0))
        for c in reversed(coeffs):
            acc = mul(acc, z)
            acc = (acc[0] + c, acc[1])
        return acc

    m, coeffs = f.degree, list(f.coeffs)
    zs = [(Fraction(z.real), Fraction(z.imag)) for z in roots._durand_kerner(coeffs)]
    tol, cap, bits = eps / 8, eps * Fraction(3, 8), 128
    for steps in range(roots._MAX_REFINE_ROUNDS):
        seen = set()
        for i, z in enumerate(zs):
            while z in seen:
                z = (z[0], z[1] + Fraction(1, 1 << 8))
            seen.add(z)
            zs[i] = z
        # disjointness is tested at resolution 2^-fine (sqrt_bounds resolves
        # a tolerance 2^-(k-2) to 2^-k), the cap and intervals at tol
        fine = max(roots._shift(tol), bits)
        ws, radii, fine_radii = [], [], []
        for i, z in enumerate(zs):
            den = (Fraction(1), Fraction(0))
            for j, other in enumerate(zs):
                if j != i:
                    den = mul(den, sub(z, other))
            ws.append(div(ev(coeffs, z), den))
            radii.append(sqrt_bounds(m * m * abs2(ws[-1]), tol)[1])
            fine_radii.append(sqrt_bounds(m * m * abs2(ws[-1]), Fraction(1, 1 << fine - 2))[1])
        if all(r <= cap for r in radii) and all(
                abs2(sub(zs[i], zs[j])) > (fine_radii[i] + fine_radii[j]) ** 2
                for i in range(m) for j in range(i + 1, m)):
            intervals = []
            for z, r in zip(zs, radii):
                clo, chi = sqrt_bounds(abs2(z), tol)
                intervals.append(ModulusInterval(max(clo - r, Fraction(0)), chi + r))
            return intervals, steps, 0 in radii
        zs = [tuple(Fraction(round(c * (1 << bits)), 1 << bits) for c in sub(z, w))
              for z, w in zip(zs, ws)]
        bits = min(bits * 2, 1 << 14)
    raise CertificationFailed("reference did not certify")


def _evaluations(monkeypatch):
    """The truncation t of each `_evaluate` call from now on (0 = exact)."""
    calls = []
    evaluate = roots._evaluate
    monkeypatch.setattr(roots, "_evaluate", lambda ga, zs, s, t: calls.append(t) or
                        evaluate(ga, zs, s, t))
    return calls


def _rounds(truncations):
    """Refinement rounds: each starts with one fixed-point evaluation."""
    return sum(t > 0 for t in truncations)


# the benchmark's non-linear certifier inputs on wedge-tight (q = 5, eps = 10^-2000)
WEDGE_TIGHT_INPUTS = [
    [Fraction(-1, 3125), 0, 1],
    [Fraction(-1, 125), 0, 1],
    [Fraction(-1, 15625), Fraction(-6, 3125), 0, Fraction(6, 25), 1],
    [Fraction(-1, 9765625), Fraction(-6, 390625), 0, Fraction(6, 125), 1],
    [Fraction(-1, 9765625), Fraction(1, 390625), Fraction(26, 78125),
     Fraction(-26, 3125), Fraction(-1, 25), 1],
]


def _random_squarefree(rng, degree):
    while True:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
        f = Poly(QQ, coeffs + [Fraction(1)])
        if f[0] != 0 and poly_gcd(f, f.derivative()).degree == 0:
            return f


class TestReferenceOracle:
    def test_equal_to_fraction_reference(self):
        rng = random.Random(8)
        cases = [Poly(QQ, [-2, 1]) * Poly(QQ, [1, 1, 1]),  # exact rational root 2
                 Poly(QQ, [Fraction(-1, 4), 0, 1])]        # roots +-1/2 exactly
        cases += [_random_squarefree(rng, rng.randint(2, 9)) for _ in range(58)]
        exact_radius = no_step = 0
        for n, f in enumerate(cases):
            eps = Fraction(1, 10 ** (12, 30, 200)[n % 3])
            expected, steps, zero_radius = _reference_certify(f, eps)
            assert roots._certify_squarefree(f, eps) == expected, (f, eps)
            exact_radius += zero_radius
            no_step += steps == 0
        assert exact_radius and no_step

    def test_resolution_of_each_decision_against_reference(self, monkeypatch):
        """Rounds are decided as the reference decides them, with square roots
        only at the output's resolution 2^-shift where the disks there are
        disjoint: always at eps = 10^-2000, where the approximations are finer
        than 2^-shift.  Close roots at a wide eps overlap at 2^-shift and fall
        back to the radii at the approximations' finer resolution."""
        shifts = []
        floor_sqrt = roots._floor_sqrt
        monkeypatch.setattr(roots, "_floor_sqrt",
                            lambda n, d, e, s: shifts.append(s) or floor_sqrt(n, d, e, s))
        rng = random.Random(26)
        narrow = Fraction(1, 10 ** 2000)
        close = Poly(QQ, [Fraction(-1, 10 ** 6), 0, 1])   # roots +-10^-3
        cases = [(_random_squarefree(rng, d), narrow) for d in (2, 3, 4, 5, 2, 3)]
        cases += [(close, Fraction(1)), (close, Fraction(1000))]
        for f, eps in cases:
            shifts.clear()
            assert roots._certify_squarefree(f, eps) == _reference_certify(f, eps)[0], (f, eps)
            assert bool(set(shifts) - {roots._shift(eps / 8)}) == (eps != narrow), (f, eps)

    @pytest.mark.parametrize("eps", [Fraction(1, 10 ** 30), Fraction(1, 10 ** 2000)])
    def test_exact_roots_against_reference(self, monkeypatch, eps):
        """An approximation on an exact root has f(z_i) = 0 and radius 0, and
        no error bound of the fixed-point round shows F_i != 0 or F_i = 0 for
        it: its last round is evaluated exactly, and gets the reference's
        intervals and round count."""
        for f in (Poly(QQ, [-2, 1]) * Poly(QQ, [1, 1, 1]), Poly(QQ, [Fraction(-1, 4), 0, 1])):
            expected, steps, zero_radius = _reference_certify(f, eps)
            truncations = _evaluations(monkeypatch)
            assert roots._certify_squarefree(f, eps) == expected, f
            assert zero_radius and _rounds(truncations) == steps + 1, f
            assert truncations[-1] == 0, f

    def test_narrow_widths_exact_roots_and_wedge_inputs_against_reference(self, monkeypatch):
        """The fixed-point rounds decide as the reference decides, with equal
        round counts: at eps = 10^-2000 for degrees 2-6 (the Fraction reference
        takes 5-10 s per polynomial of degree 7-9 there), on exact dyadic roots
        at 10^-30 and 10^-2000, and on the benchmark's wedge-tight inputs."""
        rng = random.Random(33)
        narrow = Fraction(1, 10 ** 2000)
        dyadic = Poly(QQ, [Fraction(-3, 4), 1]) * Poly(QQ, [Fraction(-1, 4), 0, 1])
        cases = [(_random_squarefree(rng, d), narrow) for d in range(2, 7)]
        cases += [(f, eps) for eps in (Fraction(1, 10 ** 30), narrow)
                  for f in (dyadic * Poly(QQ, [-2, 1]), dyadic * Poly(QQ, [1, 1, 1]))]
        cases += [(Poly(QQ, p), narrow) for p in WEDGE_TIGHT_INPUTS]
        for f, eps in cases:
            expected, steps, _ = _reference_certify(f, eps)
            truncations = _evaluations(monkeypatch)
            assert roots._certify_squarefree(f, eps) == expected, (f, eps)
            assert _rounds(truncations) == steps + 1, (f, eps)

    def test_exact_evaluation_only_where_a_bound_leaves_a_decision_open(self, monkeypatch):
        """Every round evaluates in fixed point first.  The five wedge-tight
        inputs are decided in fixed point throughout, over rounds of up to
        2^-8300; an exact root takes one exact evaluation, in its last round."""
        narrow = Fraction(1, 10 ** 2000)
        for p in WEDGE_TIGHT_INPUTS:
            truncations = _evaluations(monkeypatch)
            roots._certify_squarefree(Poly(QQ, p), narrow)
            assert 0 not in truncations and max(truncations) < 8300, p
        f = Poly(QQ, [-2, 1]) * Poly(QQ, [1, 1, 1])
        truncations = _evaluations(monkeypatch)
        roots._certify_squarefree(f, narrow)
        assert truncations.count(0) == 1 and truncations[-1] == 0

    def test_rare_paths_against_reference(self, monkeypatch):
        """Two equal seeds: the imaginary distinctness nudge of 2^-8 keeps
        the corrections defined and lets them push the two approximations
        apart, onto sqrt(2) and -sqrt(2).  `_rescale` takes the exponent of
        its unit."""
        units = []
        rescale = roots._rescale
        monkeypatch.setattr(roots, "_rescale",
                            lambda *a: units.append(1 << a[2]) or rescale(*a))
        f = Poly(QQ, [-2, 0, 1])
        for seed in (1.5, -1.5):
            monkeypatch.setattr(roots, "_durand_kerner", lambda c, s=seed: [s + 0j, s + 0j])
            intervals = roots._certify_squarefree(f, DEFAULT_EPS)
            assert intervals == _reference_certify(f, DEFAULT_EPS)[0]
            assert_enclosure(intervals, [2, 2], DEFAULT_EPS)
        assert units == [1 << 8, 1 << 8]   # one nudge per pair of equal seeds


class TestWideEps:
    """Disjointness is tested at the approximations' own resolution, so an
    eps wider than the gap between two roots still separates them."""

    @pytest.mark.parametrize("c", [Fraction(-1, 10000), Fraction(-1, 5), Fraction(1, 10 ** 6)])
    def test_close_roots_certify_at_wide_eps(self, c):
        for eps in (Fraction(1), Fraction(10), Fraction(1000)):
            assert_enclosure(root_moduli_certified([c, 0, 1], eps), [abs(c)] * 2, eps)

    @pytest.mark.parametrize("k", [28, 30, 40])
    def test_close_real_roots(self, k):
        # (x - 1)(x - 1 - 2^-k): the float seeds are a near-conjugate pair
        r = 1 + Fraction(1, 2 ** k)
        assert_enclosure(root_moduli_certified([r, -(1 + r), 1], DEFAULT_EPS),
                         [1, r * r], DEFAULT_EPS)

    @pytest.mark.parametrize("k", [20, 28, 30, 40])
    def test_close_conjugate_roots_keep_complex_seeds(self, k):
        # (x - 1)^2 + 2^-2k: roots 1 +- 2^-k i, no real root to split into
        y2 = Fraction(1, 2 ** (2 * k))
        assert_enclosure(root_moduli_certified([1 + y2, -2, 1], DEFAULT_EPS),
                         [1 + y2] * 2, DEFAULT_EPS)

    def test_wider_eps_never_fails_where_narrower_certifies(self):
        rng = random.Random(13)
        widths = [Fraction(1, 10 ** 30), Fraction(1, 100), Fraction(1), Fraction(10)]
        for _ in range(40):
            f = _random_squarefree(rng, rng.randint(2, 8))
            certified = []
            for eps in widths:
                try:
                    roots._certify_squarefree(f, eps)
                    certified.append(True)
                except CertificationFailed:
                    certified.append(False)
            assert certified == sorted(certified), f


class TestHighDegree:
    """The radius is an upper bound of m|w| at resolution 2^-shift <= eps/16,
    so it can fall below the cap 3 eps / 8 at any degree."""

    @pytest.mark.parametrize("p", [
        [625] + [0] * 7 + [1],         # x^8 + 625: every |root| is sqrt(5)
        [5 ** 6] + [0] * 11 + [1],     # x^12 + 5^6: every |root| is sqrt(5)
        [-2] + [0] * 8 + [1],          # x^9 - 2: every |root| is 2^(1/9)
    ])
    def test_x_power_plus_constant(self, p):
        m = len(p) - 1
        intervals = root_moduli_certified(p, DEFAULT_EPS)
        assert len(intervals) == m
        for iv in intervals:
            # |root|^m = |p(0)|: compare exactly
            assert iv.lo ** m <= abs(p[0]) <= iv.hi ** m
            assert iv.width() <= DEFAULT_EPS


@pytest.mark.parametrize("p", [
    [-2, 0, 1],                 # x^2 - 2
    [5, 0, 0, 0, 0, 0, 1],      # x^6 + 5: every |root|^6 is 5
    [3, -1, 2, 0, 1],           # x^4 + 2x^2 - x + 3
])
def test_certifies_down_to_the_reach_of_the_bit_cap(p):
    """Weierstrass steps stop at 2^-16384, yet widths down to 2^-16300
    certify, so every width purity_check tries, down to its last halving
    MIN_EPS / 16, is within reach."""
    eps = Fraction(1, 1 << 16300)
    assert eps < roots.MIN_EPS / 16
    intervals = root_moduli_certified(p, eps)
    m = len(p) - 1
    assert len(intervals) == m
    for iv in intervals:
        assert iv.width() <= eps
        assert p[0] != 5 or iv.lo ** m <= 5 <= iv.hi ** m


@pytest.mark.parametrize("p", [
    [-2, 0, 0, 0, 0, 1],        # x^5 - 2
    [3, -1, 2, 0, 1],           # x^4 + 2x^2 - x + 3
])
def test_square_roots_only_at_the_output_resolution(monkeypatch, p):
    """At eps = 10^-2000 bit lengths refute every failing round before any
    square root, and bound every radius of the last round to 1 from above:
    it takes m, one modulus per root, at the resolution 2^-shift of the
    intervals."""
    eps = Fraction(1, 10 ** 2000)
    shifts = []
    floor_sqrt = roots._floor_sqrt
    monkeypatch.setattr(roots, "_floor_sqrt",
                        lambda n, d, e, s: shifts.append(s) or floor_sqrt(n, d, e, s))
    assert len(roots._certify_squarefree(Poly(QQ, p), eps)) == len(p) - 1
    assert shifts == [roots._shift(eps / 8)] * (len(p) - 1)


def test_refinement_loop_runs_without_gcd(monkeypatch):
    """Every approximation of a round lives on Gaussian integers over one
    denominator, so no Fraction is normalized inside the refinement loop:
    the deterministic count of math.gcd calls is the same at eps 10^-12
    (no Weierstrass step) as at eps 10^-2000 (seven), and small."""
    gcd = math.gcd
    for f in (Poly(QQ, [5, -3, 1]), Poly(QQ, [5, -3, 1]) * Poly(QQ, [5, 1, 1])):
        counts = []
        for eps in (Fraction(1, 10 ** 12), Fraction(1, 10 ** 2000)):
            calls = []
            monkeypatch.setattr(math, "gcd", lambda *a: calls.append(a) or gcd(*a))
            intervals = roots._certify_squarefree(f, eps)
            monkeypatch.setattr(math, "gcd", gcd)
            assert all(contains_half_power(iv, 5, 1) for iv in intervals)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 20 * f.degree


def test_half_power_brackets_run_without_gcd(monkeypatch):
    """`half_power_range` and `wd._matches` decide on the squares of the
    endpoints' reduced numerators and denominators, which are reduced, so at
    eps 10^-2000 (endpoints over 2^6644) they normalize no Fraction: no
    math.gcd call, counted as in `test_refinement_loop_runs_without_gcd`."""
    gcd = math.gcd
    eps = Fraction(1, 10 ** 2000)
    cases = [(5, Poly(QQ, [5, -3, 1]) * Poly(QQ, [5, 1, 1])),
             (5, Poly(QQ, [Fraction(-1, 15625), Fraction(-6, 3125), 0, Fraction(6, 25), 1])),
             (3, Poly(QQ, [3, 0, 1]) * Poly(QQ, [-3, 0, 1]))]
    for q, f in cases:
        intervals = roots._certify_squarefree(f, eps)
        calls = []
        monkeypatch.setattr(math, "gcd", lambda *a: calls.append(a) or gcd(*a))
        ranges = [iv.half_power_range(q) for iv in intervals]
        wd._matches.cache_clear()  # decide afresh, not from an earlier test's memo
        decided = [wd._matches(iv, q, j) for iv in intervals for j in range(-6, 3)]
        monkeypatch.setattr(math, "gcd", gcd)
        assert calls == [], f
        # every |root|^2 here is a power of q, so each bracket is one exponent
        assert all(a == b for a, b in ranges) and None not in decided, f


_fails = pytest.mark.xfail(raises=CertificationFailed, strict=True)


class TestKnownFailures:
    """Inputs the certifier cannot yet certify at DEFAULT_EPS.  Each is a
    strict expected failure, so a fix that certifies one shows as a pass."""

    @_fails
    @pytest.mark.parametrize("p", [
        [1 + Fraction(1, 2 ** 60), -2 - Fraction(1, 2 ** 60), 1],  # (x-1)(x-1-2^-60)
        [25 + Fraction(1, 2 ** 56), -10, 1],                       # (x-5)^2 + 2^-56
        [-Fraction(1, 2 ** 259), 0, 1],                             # x^2 - 2^-259
    ])
    def test_close_roots_and_tiny_moduli(self, p):
        root_moduli_certified(p, DEFAULT_EPS)

    @_fails
    @pytest.mark.parametrize("p, seed", [
        ([-2, 0, 1], 0.5),          # x^2 - 2
        ([-3, 1, 1], 0.3),          # x^2 + x - 3
        ([-6, 11, -6, 1], 2.5),     # (x-1)(x-2)(x-3)
    ])
    def test_equal_seeds(self, monkeypatch, p, seed):
        monkeypatch.setattr(roots, "_durand_kerner", lambda c: [seed + 0j] * (len(p) - 1))
        root_moduli_certified(p, DEFAULT_EPS)


class TestMpmathOracle:
    """An independent check: mpmath's polyroots at 100 digits, and at 2,100
    digits for eps = 10^-2000."""

    def _check(self, p, eps, dps=100, q=None):
        mpmath = pytest.importorskip("mpmath")
        intervals = root_moduli_certified(p, eps)
        with mpmath.workdps(dps):
            found = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                      for c in reversed(p.coeffs)],
                                     maxsteps=400, extraprec=400)
            slack = mpmath.mpf(10) ** (20 - dps)
            assert len(intervals) == len(found)
            for iv, modulus in zip(intervals, sorted(abs(r) for r in found)):
                lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
                hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
                assert lo - slack <= modulus <= hi + slack
                assert iv.width() <= eps
                if q is None:
                    continue
                # `_matches` decides each j near log_q |root|^2, and says True
                # exactly where |root|^2 = q^j to the working precision
                near = int(mpmath.nint(2 * mpmath.log(modulus, q)))
                for j in range(near - 2, near + 3):
                    power = mpmath.mpf(q) ** j
                    assert wd._matches(iv, q, j) == (abs(modulus ** 2 - power) <= slack * power)

    def test_random_polynomials(self):
        rng = random.Random(11)
        for _ in range(12):
            self._check(_random_squarefree(rng, rng.randint(2, 8)), Fraction(1, 10 ** 30))

    @staticmethod
    def _weil_type_product(rng):
        # x^2 - a x + q with |a| < 2 sqrt(q) has both roots on |z| = sqrt(q)
        q = rng.choice([2, 3, 5, 7])
        bound = math.isqrt(4 * q - 1)
        traces = rng.sample(range(-bound, bound + 1), rng.randint(1, 3))
        p = Poly.one(QQ)
        for a in traces:
            p = p * Poly(QQ, [q, -a, 1])
        return q, p * Poly(QQ, [-q, 0, 1])

    def test_weil_type_products(self):
        rng = random.Random(12)
        for _ in range(8):
            self._check(self._weil_type_product(rng)[1], Fraction(1, 10 ** 30))

    @pytest.mark.parametrize("p", WEDGE_TIGHT_INPUTS)
    def test_wedge_tight_inputs_at_2000_digits(self, p):
        """The benchmark's non-linear certifier inputs (q = 5, eps = 10^-2000),
        with mixed weights: some |root|^2 are q^j, the others miss every q^j."""
        self._check(Poly(QQ, p), Fraction(1, 10 ** 2000), 2100, q=5)

    def test_weil_type_products_at_2000_digits(self):
        rng = random.Random(2000)
        for _ in range(2):
            q, p = self._weil_type_product(rng)
            self._check(p, Fraction(1, 10 ** 2000), 2100, q=q)
