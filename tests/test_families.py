import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wdreps import (CertificationFailed, DenominatorVanishes, Matrix, NonIntegralWeight,
                    Poly, PointResult, PurityReport, QQ, QT, RigidityReport, Signature,
                    SignatureEntry, SingularFrobenius, WDRep, purity_check,
                    default_scan_points, frss_signature, hook_content_dim, mult_jordan_chevalley,
                    purity_scan, rigidity_check, sp_construct, specialize,
                    specialize_signature, trace_link_check, wd_direct_sum,
                    wd_schur, wd_tensor, wd_validate)
from wdreps import families, fields, linalg, wd
from wdreps.families import TraceLinkResult
from wdreps.jsonio import load_wdrep
from wdreps.schur import Partition

from support import (flagship_family, flagship_constant_partner, fractions_built, lift_to_field,
                     random_unimodular, random_valid_wdrep, signature_union, trivial_onedim)


CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def sig_pairs(sig):
    return [(e.t, tuple(str(c) for c in e.charpoly.coeffs)) for e in sig.entries]


def point(report, a):
    matches = [pr for pr in report.points if pr.a == Fraction(a)]
    assert len(matches) == 1
    return matches[0]


class TestSpecialize:
    def test_substitution(self):
        fam = WDRep(5, QT, Matrix(QT, [["t", "0"], ["0", "1"]]),
                    Matrix.zeros(QT, 2, 2))
        assert specialize(fam, 2).phi == Matrix.diagonal(QQ, [2, 1])

    def test_denominator_vanishes(self):
        fam = WDRep(5, QT, Matrix(QT, [["1/(t-1)", "0"], ["0", "1"]]),
                    Matrix.zeros(QT, 2, 2))
        with pytest.raises(DenominatorVanishes):
            specialize(fam, 1)
        assert specialize(fam, 2).phi[0, 0] == 1

    def test_singular_frobenius(self):
        fam = WDRep(5, QT, Matrix(QT, [["t", "0"], ["0", "1"]]),
                    Matrix.zeros(QT, 2, 2))
        with pytest.raises(SingularFrobenius):
            specialize(fam, 0)

    def test_flagship_point(self):
        rho = specialize(flagship_family(), 3)
        assert rho.nilp == Matrix(QQ, [[0, 0], [3, 0]])
        assert wd._check_invariants(rho) is None

    def test_requires_function_field(self):
        with pytest.raises(ValueError):
            specialize(trivial_onedim(), 1)

    def test_commutes_with_constructors(self):
        rng = random.Random(7)
        t = QT.gen()
        P = Matrix(QT, [["1", "t"], ["0", "1"]])
        base = flagship_family()
        conj = WDRep(5, QT, P * base.phi * P.inverse(), P * base.nilp * P.inverse())
        other = WDRep(5, QT, Matrix(QT, [["-1", "0"], ["0", "-1/5"]]),
                      Matrix(QT, [["0", "0"], ["t^2", "0"]]))
        for a in (Fraction(1), Fraction(-2), Fraction(1, 2)):
            lhs = specialize(wd_tensor(conj, other), a)
            rhs = wd_tensor(specialize(conj, a), specialize(other, a))
            assert lhs.phi == rhs.phi and lhs.nilp == rhs.nilp
            lhs = specialize(wd_direct_sum(conj, other), a)
            rhs = wd_direct_sum(specialize(conj, a), specialize(other, a))
            assert lhs.phi == rhs.phi and lhs.nilp == rhs.nilp
            for mu in (Partition.of(2), Partition.of(1, 1), Partition.of(2, 1)):
                lhs = specialize(wd_schur(conj, mu), a)
                rhs = wd_schur(specialize(conj, a), mu)
                assert lhs.phi == rhs.phi and lhs.nilp == rhs.nilp

    def test_commutes_with_sp_construct(self):
        t = QT.gen()
        char = WDRep(5, QT, Matrix(QT, [["(t^2+1)/(t^2+2)"]]), Matrix.zeros(QT, 1, 1))
        for a in (Fraction(0), Fraction(3)):
            lhs = specialize(sp_construct(3, char), a)
            rhs = sp_construct(3, specialize(char, a))
            assert lhs.phi == rhs.phi and lhs.nilp == rhs.nilp


class TestSpecializeDeterminant:
    """`specialize` decides a singular Frobenius by det(phi)(a), the
    determinant kept on the family, after phi(a) is defined."""

    def test_singular_at_a_non_integer_point(self):
        fam = WDRep(5, QT, Matrix(QT, [["2*t+1", "1"], ["0", "t^2+1"]]),
                    Matrix.zeros(QT, 2, 2))
        with pytest.raises(SingularFrobenius, match="singular matrix at t = -1/2"):
            specialize(fam, Fraction(-1, 2))
        assert specialize(fam, Fraction(1, 2)).phi.det() == Fraction(5, 2)

    def test_pole_comes_before_a_vanishing_det(self):
        # det phi = t is 0 at t = 0, where the entry 1/t has a pole
        fam = WDRep(5, QT, Matrix(QT, [["1/t", "1"], ["0", "t^2"]]), Matrix.zeros(QT, 2, 2))
        with pytest.raises(DenominatorVanishes, match="vanishes at t = 0"):
            specialize(fam, 0)

    def test_singular_phi_comes_before_a_pole_of_nilp(self):
        # phi N = q^-1 N phi with phi = diag(t/5, t), singular at 0, where N has a pole
        fam = WDRep(5, QT, Matrix(QT, [["t/5", "0"], ["0", "t"]]),
                    Matrix(QT, [["0", "1/t"], ["0", "0"]]))
        with pytest.raises(SingularFrobenius):
            specialize(fam, 0)
        with pytest.raises(DenominatorVanishes):  # a regular phi: the pole of N decides
            specialize(WDRep(5, QT, Matrix(QT, [["1/5", "0"], ["0", "1"]]), fam.nilp), 0)

    def test_point_det_is_the_family_det_at_the_point(self):
        """On the corpus families and bench/gen.py's seed-1 families, at
        random rationals, det of the specialized phi (a fresh Berkowitz run
        over Q) equals det(phi) of the family evaluated there."""
        spec = importlib.util.spec_from_file_location("bench_gen", CORPUS.parent / "bench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        fams = [load_wdrep(str(path)) for path in sorted(CORPUS.glob("*.json"))]
        fams = [f for f in fams if f.field == QT]
        fams += [load_wdrep(name, gen.document_bytes(getattr(gen, name)(1)))
                 for name in ("dense_qt", "wedge_tight")]
        rng = random.Random(35)
        checked = 0
        for fam in fams:
            for _ in range(6):
                a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                try:
                    rho = specialize(fam, a)
                except DenominatorVanishes:
                    continue
                except SingularFrobenius:
                    assert not fam.phi.det().eval(a)
                    continue
                assert rho.phi.det() == fam.phi.det().eval(a)
                checked += 1
        assert len(fams) == 7 and checked >= 40


def _random_qt_family(rng):
    """A valid Q(t) family with poles and singular points: a random valid
    representation over Q carried to Q(t), conjugated by diag(t - c, 1, ...)
    and with Frobenius scaled by (t - c')/(t^2 + 1)."""
    rho = lift_to_field(rng, random_valid_wdrep(rng, 5, max_dim=3,
                                                with_inertia=rng.random() < 0.5), QT)
    t = QT.gen()
    P = Matrix.diagonal(QT, [t - rng.randint(-5, 5)] + [QT.one] * (rho.dim - 1))
    P_inv = P.inverse()
    scale = (t - rng.randint(-5, 5)) / (t * t + 1)
    return WDRep(rho.q, QT, P * rho.phi * P_inv * scale, P * rho.nilp * P_inv,
                 tuple((label, P * g * P_inv) for label, g in rho.inertia))


def _defined_points(fam):
    for a in range(-5, 6):
        try:
            yield specialize(fam, a)
        except (DenominatorVanishes, SingularFrobenius):
            continue


class TestSpecializeVerdict:
    """A specialization inherits the family's verdict: evaluation at a point
    is a ring homomorphism on the entries without a pole there, so every
    invariant carries over.  The full check runs here instead."""

    def test_points_satisfy_every_invariant(self):
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        families = [load_wdrep(str(path)) for path in sorted(corpus.glob("*.json"))]
        rng = random.Random(61)
        families = [f for f in families if f.field == QT]
        families += [_random_qt_family(rng) for _ in range(12)]
        skipped = 0
        for fam in families:
            points = list(_defined_points(fam))
            skipped += 11 - len(points)
            for rho in points:
                assert wd._check_invariants(rho) is None
        assert skipped  # the random families do have poles and singular points

    def test_points_are_never_checked(self, monkeypatch):
        fam = _random_qt_family(random.Random(5))
        checked = []
        check = wd._check_invariants

        def counting_check(rep):
            checked.append(rep)
            return check(rep)

        monkeypatch.setattr(wd, "_check_invariants", counting_check)
        points = list(_defined_points(fam))
        assert points and all(wd_validate(rho) is None for rho in points)
        # the family is checked once, its points never
        assert checked == [fam]

    def test_invalid_family_raises(self):
        bad = WDRep(5, QT, Matrix.identity(QT, 2), Matrix(QT, [["0", "0"], ["t", "0"]]))
        with pytest.raises(ValueError, match="invalid representation: conjugation"):
            specialize(bad, 1)


class TestPurityScan:
    def test_flagship_generic_signature(self):
        report = purity_scan(flagship_family(), Partition.of(1), range(-5, 6))
        assert sig_pairs(report.generic_signature) == [(2, ("-1/5", "1"))]

    def test_flagship_point_zero_impure(self):
        report = purity_scan(flagship_family(), Partition.of(1), [0])
        pr = point(report, 0)
        assert pr.defined and pr.purity.verdict == "impure"
        # N vanishes at 0: a single t=1 entry carrying (x-1)(x-1/5)
        assert sig_pairs(pr.signature) == [(1, ("1/5", "-6/5", "1"))]

    def test_flagship_point_one_pure(self):
        report = purity_scan(flagship_family(), Partition.of(1), [1])
        pr = point(report, 1)
        assert pr.purity.verdict == "pure" and pr.purity.weight == -1
        assert sig_pairs(pr.signature) == [(2, ("-1/5", "1"))]

    def test_undefined_points_recorded(self):
        fam = WDRep(5, QT, Matrix(QT, [["1/(t-1)", "0"], ["0", "1"]]),
                    Matrix.zeros(QT, 2, 2))
        report = purity_scan(fam, Partition.of(1), [0, 1])
        assert not point(report, 1).defined
        assert "DenominatorVanishes" in point(report, 1).error
        assert point(report, 0).defined

    def test_signature_dimension_identity(self):
        fam = flagship_family()
        for mu in (Partition.of(1), Partition.of(2), Partition.of(1, 1), Partition.of(2, 1)):
            report = purity_scan(fam, mu, range(-3, 4))
            expected = hook_content_dim(mu, 2)
            assert report.generic_signature.total_dim() == expected
            for pr in report.points:
                if pr.signature is not None:
                    assert pr.signature.total_dim() == expected

    def test_default_grid(self):
        points = default_scan_points()
        assert points[0] == -25 and points[-1] == 25 and len(points) == 51


def _qt_families():
    """The Q(t) documents of the corpus and bench/gen.py's seed-1 families."""
    spec = importlib.util.spec_from_file_location("bench_gen", CORPUS.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    fams = [load_wdrep(str(path)) for path in sorted(CORPUS.glob("*.json"))]
    return [f for f in fams if f.field == QT] + [
        load_wdrep(name, gen.document_bytes(getattr(gen, name)(1)))
        for name in ("dense_qt", "wedge_tight")]


class TestRigidity:
    def test_flagship_pass_mu1(self):
        report = rigidity_check(purity_scan(flagship_family(), Partition.of(1), range(-5, 6)))
        assert report.verdict == "pass" and report.failures == ()
        zero = point(report, 0)
        assert zero.purity.verdict == "impure"
        assert sig_pairs(zero.signature) != sig_pairs(report.generic_signature)

    def test_flagship_pass_sym2(self):
        report = rigidity_check(purity_scan(flagship_family(), Partition.of(2), range(-5, 6)))
        assert report.verdict == "pass"
        assert sig_pairs(report.generic_signature) == [(3, ("-1/25", "1"))]
        assert sig_pairs(point(report, 2).signature) == [(3, ("-1/25", "1"))]
        assert point(report, 0).purity.verdict == "impure"

    def test_doctored_report_fails(self):
        report = purity_scan(flagship_family(), Partition.of(1), range(-2, 3))
        doctored_points = []
        for pr in report.points:
            if pr.a == 1:
                fake = Signature((SignatureEntry(1, Poly(QQ, [-1, 1])),
                                  SignatureEntry(1, Poly(QQ, [Fraction(-1, 5), 1]))))
                pr = pr.replace(signature=fake)
            doctored_points.append(pr)
        verdict = rigidity_check(report.replace(points=tuple(doctored_points)))
        assert verdict.verdict == "fail"
        assert verdict.failures == (Fraction(1),)

    def test_an_inertia_trace_mismatch_fails(self):
        """A rigidity fail is a mismatch of the whole signature: a pure point
        whose charpolys agree with the specialized generic signature and
        whose inertia traces do not, in one trace, fails."""
        fam = load_wdrep(str(CORPUS / "inertia_pair.json"))
        report = purity_scan(fam, Partition.of(2, 1), range(1, 4))
        assert rigidity_check(report).verdict == "pass"
        pr = point(report, 2)
        assert pr.purity.verdict == "pure"
        first, *rest = pr.signature.entries
        (label, trace), *others = first.inertia_traces
        doctored = Signature((first.replace(inertia_traces=((label, trace + 1), *others)),
                              *rest))
        expected = specialize_signature(report.generic_signature, pr.a)
        assert ([(e.t, e.charpoly) for e in doctored.entries] ==
                [(e.t, e.charpoly) for e in expected.entries]) and doctored != expected
        points = tuple(p.replace(signature=doctored) if p is pr else p for p in report.points)
        checked = rigidity_check(report.replace(points=points))
        assert checked.verdict == "fail" and checked.failures == (Fraction(2),)

    def test_vacuous_when_no_pure_points(self):
        report = rigidity_check(purity_scan(flagship_family(), Partition.of(1), [0]))
        assert report.verdict == "vacuous"

    def test_specialize_signature(self):
        fam = flagship_family()
        generic = purity_scan(fam, Partition.of(1), [1]).generic_signature
        spec = specialize_signature(generic, 7)
        assert sig_pairs(spec) == [(2, ("-1/5", "1"))]

    def test_pure_points_carry_the_whole_specialized_signature(self):
        """Oracle for the rigidity statement: on the corpus families and
        bench/gen.py's seed-1 families, for partitions 1, 2, (1,1), (2,1)
        and 3, at -4..4, 1/2 and -3/7, every pure point's signature equals
        the specialized generic one entry for entry, inertia traces
        included, so no checked case fails."""
        points = [Fraction(a) for a in range(-4, 5)] + [Fraction(1, 2), Fraction(-3, 7)]
        cases, pure, traced = 0, 0, 0
        for fam in _qt_families():
            for parts in ((1,), (2,), (1, 1), (2, 1), (3,)):
                report = purity_scan(fam, Partition.of(*parts), points)
                for pr in report.points:
                    if pr.defined and pr.purity is not None and pr.purity.verdict == "pure":
                        assert specialize_signature(report.generic_signature, pr.a) == \
                            pr.signature, (parts, pr.a)
                        pure += 1
                        traced += any(e.inertia_traces for e in pr.signature.entries)
                cases += 1
        assert (cases, pure, traced) == (35, 361, 50)


    @pytest.mark.parametrize("name, parts", [("flagship", (2,)), ("inertia_pair", (2, 1)),
                                             ("conjugated_irrational", (2,))])
    def test_specialize_signature_on_ints(self, name, parts):
        """Each charpoly coefficient is evaluated on `RatFunc`'s ints and the
        charpoly is built on ints over one denominator: equal to `RatFunc.eval`
        of each coefficient at random rationals, poles included, and without
        a `Fraction` where the entries carry no inertia traces."""
        generic = purity_scan(load_wdrep(CORPUS / f"{name}.json"), Partition.of(*parts),
                              [1]).generic_signature
        rng = random.Random(35)
        points = [Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(30)]
        for a in points + list(range(-3, 4)):
            try:
                expected = [(e.t, Poly(QQ, [c.eval(a) for c in e.charpoly.coeffs]),
                             tuple((label, v.eval(a)) for label, v in e.inertia_traces))
                            for e in generic.entries]
            except ZeroDivisionError as exc:
                with pytest.raises(ZeroDivisionError, match=str(exc)):
                    specialize_signature(generic, a)
                continue
            got = specialize_signature(generic, a)
            assert [(e.t, e.charpoly, e.inertia_traces) for e in got.entries] == expected
        with fractions_built() as built:
            specialize_signature(generic, points[0])
        assert bool(built) == any(e.inertia_traces for e in generic.entries)

    def test_generic_signature_specializes_wherever_the_family_does(self):
        """Why `rigidity_check` has no exception path: on the corpus
        families and bench/gen.py's seed-1 families, at the integers -3..3
        and random rationals where `specialize` succeeds, the generic
        signature of each small partition specializes without error, to
        pieces whose dimensions add up to dim S_mu."""
        fams = _qt_families()
        rng = random.Random(36)
        checked = 0
        for fam in fams:
            points = list(range(-3, 4)) + [Fraction(rng.randint(-40, 40), rng.randint(2, 9))
                                           for _ in range(6)]
            defined = []
            for a in points:
                try:
                    specialize(fam, a)
                except (DenominatorVanishes, SingularFrobenius):
                    continue
                defined.append(Fraction(a))
            for parts in ((1,), (2,), (1, 1), (2, 1)):
                mu = Partition.of(*parts)
                generic = frss_signature(wd_schur(fam, mu))
                for a in defined:
                    entries = specialize_signature(generic, a).entries
                    assert sum(e.t * e.charpoly.degree for e in entries) == hook_content_dim(
                        mu, fam.dim)
                    checked += 1
        assert len(fams) == 7 and checked >= 150


class TestTraceLink:
    def test_flagship_pair_equal_and_rigid(self):
        fam1, fam2 = flagship_family(), flagship_constant_partner()
        assert trace_link_check(fam1, fam2).equal
        r1 = rigidity_check(purity_scan(fam1, Partition.of(1), range(-5, 6)))
        r2 = rigidity_check(purity_scan(fam2, Partition.of(1), range(-5, 6)))
        assert r1.verdict == r2.verdict == "pass"
        for a in range(-5, 6):
            p1, p2 = point(r1, a), point(r2, a)
            if p1.purity and p1.purity.verdict == "pure":
                assert sig_pairs(p1.signature) == sig_pairs(p2.signature)

    def test_first_differing_word(self):
        fam2 = WDRep(5, QT, Matrix(QT, [["1", "0"], ["0", "1/25"]]),
                     Matrix.zeros(QT, 2, 2))
        res = trace_link_check(flagship_family(), fam2)
        assert not res.equal and res.first_difference == "phi^1"

    def test_self_link(self):
        res = trace_link_check(flagship_family(), flagship_family())
        assert res.equal and res.first_difference is None

    def test_inertia_words_compared(self):
        g_plus = Matrix(QT, [["1", "0"], ["0", "1"]])
        g_minus = Matrix(QT, [["-1", "0"], ["0", "-1"]])
        fam1 = WDRep(5, QT, flagship_family().phi, flagship_family().nilp,
                     (("g", g_minus),))
        fam2 = WDRep(5, QT, flagship_family().phi, flagship_family().nilp,
                     (("g", g_plus),))
        res = trace_link_check(fam1, fam2)
        assert not res.equal and res.first_difference == "phi^1*g"

    def test_a_label_that_begins_with_a_star_keeps_it(self):
        """The first difference names the closure element by its word, and a
        word keeps each label whole: g = -1 against g = 1 under the label
        `*s` first differs at phi^1 * (*s)."""
        fams = [WDRep(5, QQ, Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1),
                      (("*s", Matrix(QQ, [[sign]])),)) for sign in (-1, 1)]
        assert trace_link_check(*fams) == TraceLinkResult(False, "phi^1**s")

    def test_two_labels_in_bfs_word_order(self):
        """The joint closure is {1, g, h, g*h}, walked breadth first with
        labels in sorted order; the traces first differ at g*h, which is
        -1 in the first family and 1 in the second."""
        swap = Matrix(QQ, [[0, 1], [1, 0]])
        fam1 = WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2),
                     (("h", Matrix.diagonal(QQ, [-1, 1])), ("g", Matrix.diagonal(QQ, [1, -1]))))
        fam2 = WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2),
                     (("g", swap), ("h", swap)))
        res = trace_link_check(fam1, fam2)
        assert not res.equal and res.first_difference == "phi^1*g*h"

    def test_agrees_with_a_pair_bfs(self):
        """Against a breadth-first walk over pairs (m1, m2) that compares
        the traces of each pair as it is reached: random signed-permutation
        inertia, the second family a conjugate of the first with, half the
        time, one generator replaced.  Frobenius is a scalar times 1 or the
        shared generator g, so it normalizes both inertia groups and both
        families are valid."""
        rng = random.Random(2024)

        def signed_permutation(n):
            perm = rng.sample(range(n), n)
            return Matrix(QQ, [[rng.choice((-1, 1)) if perm[j] == i else 0 for j in range(n)]
                               for i in range(n)])

        outcomes = set()
        for case in range(12):
            n = 2 if case % 3 else 3
            inertia = [(label, signed_permutation(n)) for label in ("g", "h")]
            phi = rng.choice((Matrix.identity(QQ, n), inertia[0][1])) * \
                rng.choice((1, -1, 2, Fraction(1, 5)))
            P = random_unimodular(rng, n)
            Pinv = P.inverse()
            if case % 2:
                inertia2 = [(label, P * g * Pinv) for label, g in inertia]
            else:
                inertia2 = [inertia[0], ("h", signed_permutation(n))]
                inertia2 = [(label, P * g * Pinv) for label, g in inertia2]
            fam1 = WDRep(5, QQ, phi, Matrix.zeros(QQ, n, n), tuple(inertia))
            fam2 = WDRep(5, QQ, P * phi * Pinv, Matrix.zeros(QQ, n, n), tuple(inertia2))
            got = trace_link_check(fam1, fam2)
            assert got == _pair_bfs_trace_link(fam1, fam2, range(1, 2 * n + 1))
            outcomes.add(got.first_difference)
        assert None in outcomes and len(outcomes) > 2

    def test_equal_traces_unequal_squares(self):
        """diag(1, 4) and diag(2, 3) have equal traces and unequal squares
        (17 against 13): a sample at k = 1 alone would call them linked."""
        fam1 = WDRep(5, QQ, Matrix.diagonal(QQ, [1, 4]), Matrix.zeros(QQ, 2, 2))
        fam2 = WDRep(5, QQ, Matrix.diagonal(QQ, [2, 3]), Matrix.zeros(QQ, 2, 2))
        assert trace_link_check(fam1, fam2) == TraceLinkResult(False, "phi^2")

    def test_first_n_powers_decide_every_power(self):
        """Equality at k = 1..n, n = d1 + d2, agrees with equality at
        k = -2n..3n.  Up to conjugation Frobenius is diagonal and inertia a
        diagonal sign matrix, so the two commute.  The second family takes
        a joint permutation of the first's eigenvalues and signs, that with
        one eigenvalue moved by +1 and another by -1 (equal traces), or a
        Prouhet-Tarry-Escott pair of spectra, whose power sums agree up to
        k = d - 1, under trivial inertia."""
        rng = random.Random(2026)
        pte = [([1, 4], [2, 3]), ([1, 5, 6], [2, 3, 7]), ([1, 5, 8, 12], [2, 3, 10, 11])]
        equal, late = 0, set()
        for case in range(60):
            if case % 3 == 2:
                eigen, eigen2 = rng.choice(pte)
                signs, signs2 = [1] * len(eigen), [1] * len(eigen)
            else:
                d = rng.randint(1, 3)
                eigen = [rng.choice((-3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(d)]
                signs = [rng.choice((1, -1)) for _ in range(d)]
                order = rng.sample(range(d), d)
                eigen2, signs2 = [eigen[i] for i in order], [signs[i] for i in order]
                if d > 1 and case % 3:
                    i, j = rng.sample(range(d), 2)
                    eigen2[i] += 1
                    eigen2[j] -= 1
                    if not all(eigen2):
                        continue
            fams = []
            for values, sign in ((eigen, signs), (eigen2, signs2)):
                d = len(values)
                P = random_unimodular(rng, d)
                Pinv = P.inverse()
                fams.append(WDRep(5, QQ, P * Matrix.diagonal(QQ, values) * Pinv,
                                  Matrix.zeros(QQ, d, d),
                                  (("g", P * Matrix.diagonal(QQ, sign) * Pinv),)))
            n = 2 * len(eigen)
            got = trace_link_check(*fams)
            assert got.equal == _pair_bfs_trace_link(*fams, range(-2 * n, 3 * n + 1)).equal
            equal += got.equal
            if not got.equal:
                late.add(got.first_difference.split("*")[0])
        assert equal >= 10 and {"phi^2", "phi^3", "phi^4"} <= late

    def test_invalid_family_is_named(self):
        """A unipotent inertia generator has infinite order: validation
        names it before any joint element is enumerated."""
        fam = WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2),
                    (("g", Matrix(QQ, [[1, 1], [0, 1]])),))
        with pytest.raises(ValueError,
                           match="^invalid representation: inertia closure exceeds cap 64$"):
            trace_link_check(fam, fam)
        with pytest.raises(ValueError, match="inertia closure exceeds cap 64"):
            trace_link_check(flagship_family(), fam)

    def test_errors(self):
        fam_q7 = WDRep(7, QT, Matrix(QT, [["1"]]), Matrix.zeros(QT, 1, 1))
        with pytest.raises(ValueError):
            trace_link_check(flagship_family(), fam_q7)
        labeled = WDRep(5, QT, Matrix(QT, [["1", "0"], ["0", "1/5"]]),
                        Matrix.zeros(QT, 2, 2), (("h", Matrix.identity(QT, 2)),))
        with pytest.raises(ValueError):
            trace_link_check(flagship_family(), labeled)
        over_q = WDRep(5, QQ, Matrix.diagonal(QQ, [1, Fraction(1, 5)]), Matrix.zeros(QQ, 2, 2))
        with pytest.raises(ValueError, match="same coefficient field"):
            trace_link_check(flagship_family(), over_q)


def _pair_bfs_trace_link(fam1, fam2, powers):
    """Reference: breadth-first over pairs of inertia elements, labels in
    sorted order, comparing tr(phi1^k m1) with tr(phi2^k m2) for each pair
    and each k in `powers`."""
    labels = sorted(label for label, _ in fam1.inertia)
    gens1, gens2 = dict(fam1.inertia), dict(fam2.inertia)
    start = (Matrix.identity(fam1.field, fam1.dim), Matrix.identity(fam2.field, fam2.dim))
    seen, queue = {start: ""}, [start]
    while queue:
        m1, m2 = pair = queue.pop(0)
        word = seen[pair]
        for k in powers:
            if ((fam1.phi ** k) * m1).trace() != ((fam2.phi ** k) * m2).trace():
                return TraceLinkResult(False, f"phi^{k}" + (f"*{word}" if word else ""))
        for label in labels:
            nxt = (m1 * gens1[label], m2 * gens2[label])
            if nxt not in seen:
                seen[nxt] = f"{word}*{label}".lstrip("*")
                queue.append(nxt)
    return TraceLinkResult(True, None)


class TestRigidityCorpus:
    def test_curated_families_pass_50_point_scans(self):
        # the bundled corpus: five Q(t) families (dims 2..4, one with
        # nontrivial inertia, one with irrational Frobenius moduli) all
        # rigidity-pass over 50-point scans
        import json
        from pathlib import Path
        from wdreps.jsonio import wdrep_from_json
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        names = ["flagship", "flagship_constant", "sp3_chain",
                 "inertia_pair", "conjugated_irrational"]
        points = range(-25, 25)
        for name in names:
            fam = wdrep_from_json(json.loads((corpus / f"{name}.json").read_bytes()))
            assert fam.field == QT
            report = rigidity_check(purity_scan(fam, Partition.of(1), points))
            assert report.verdict == "pass", (name, report.failures)
            pure = sum(1 for pr in report.points
                       if pr.purity is not None and pr.purity.verdict == "pure")
            assert pure >= 40, name


class TestDirectSumScan:
    def test_pointwise_union(self):
        fam1 = flagship_family()
        fam2 = WDRep(5, QT,
                     Matrix(QT, [["1/5*t", "-1/25*t^2+1"], ["1/5", "-1/5*t"]]),
                     Matrix.zeros(QT, 2, 2))
        total = wd_direct_sum(fam1, fam2)
        mu = Partition.of(1)
        r_total = purity_scan(total, mu, range(-3, 4))
        r1 = purity_scan(fam1, mu, range(-3, 4))
        r2 = purity_scan(fam2, mu, range(-3, 4))
        assert r_total.generic_signature == \
            signature_union(r1.generic_signature, r2.generic_signature)
        for a in range(-3, 4):
            st, s1, s2 = point(r_total, a), point(r1, a), point(r2, a)
            assert st.signature == signature_union(s1.signature, s2.signature)


def test_scan_reads_fraction_rows_only_for_charpolys(monkeypatch):
    """Over Q a Matrix stores ints over one denominator and builds its
    Fraction rows only when they are read.  The scan reads none: `charpoly`
    runs on the numerators, and so does every other kernel.  A reader
    means a Fraction round trip crept back into the scan."""
    rows = Matrix.rows
    readers = []

    def counting(M):
        if M._rows is None:
            readers.append(sys._getframe(1).f_code.co_name)
        return rows.fget(M)

    fam = load_wdrep(str(Path(__file__).resolve().parents[1] / "corpus" / "inertia_pair.json"))
    monkeypatch.setattr(Matrix, "rows", property(counting))
    report = purity_scan(fam, Partition.of(2, 1), range(5))
    assert [pr.purity.verdict for pr in report.points] == ["impure"] + ["pure"] * 4
    assert readers == []


# every Q(t) corpus family with each partition its golden cases use
GOLDEN_SCANS = [("flagship", (2,)), ("flagship", (3,)), ("flagship", (4,)),
                ("flagship_constant", (2,)), ("conjugated_irrational", (2,)),
                ("inertia_pair", (2,)), ("inertia_pair", (2, 1)),
                ("sp3_chain", (2,)), ("sp3_chain", (3,)), ("sp3_chain", (2, 1))]


def _reference_point(fam, mu, a):
    """One point analyzed on its own, without the scan's point memo."""
    try:
        rho = specialize(fam, a)
    except (DenominatorVanishes, SingularFrobenius) as exc:
        return PointResult(a, False, f"{type(exc).__name__}: {exc}", None, None)
    image = wd_schur(rho, mu)
    signature = frss_signature(image)
    try:
        report, error = purity_check(image), None
    except CertificationFailed as exc:
        report = PurityReport(weight=None, verdict="uncertifiable", per_graded=())
        error = f"CertificationFailed: {exc}"
    except NonIntegralWeight as exc:
        report, error = None, f"NonIntegralWeight: {exc}"
    return PointResult(a, True, error, report, signature)


@pytest.mark.parametrize("name, parts", GOLDEN_SCANS)
def test_scan_equals_a_pointwise_reference(name, parts):
    """Points that share phi, inertia and the line of N share one analysis;
    the scan must still equal the point-by-point analysis at every point,
    negative multiples of N included."""
    fam = load_wdrep(str(CORPUS / f"{name}.json"))
    mu = Partition.of(*parts)
    grid = [Fraction(a) for a in range(-6, 7)]
    expected = RigidityReport(mu=mu, generic_signature=frss_signature(wd_schur(fam, mu)),
                              points=tuple(_reference_point(fam, mu, a) for a in grid))
    assert purity_scan(fam, mu, grid) == expected


def test_scan_analyzes_each_distinct_input_once(monkeypatch):
    """inertia_pair has constant phi and inertia and N(t) = t * N0: over
    -25..25 the functor runs for the generic Q(t) signature, at t = 0 and
    at one t != 0, and the points t < 0, where N's scalar is negative,
    share the analysis of the points t > 0."""
    images = []
    schur_ = families.wd_schur
    monkeypatch.setattr(families, "wd_schur",
                        lambda rho, mu: images.append(rho) or schur_(rho, mu))
    fam = load_wdrep(str(CORPUS / "inertia_pair.json"))
    report = purity_scan(fam, Partition.of(2, 1), default_scan_points())
    assert len(report.points) == 51
    assert images[0] is fam and images[1:] == [specialize(fam, -25), specialize(fam, 0)]
    shared = [(pr.error, pr.purity, pr.signature) for pr in report.points if pr.a]
    assert all(analysis == shared[0] for analysis in shared)


def test_scan_builds_one_flag_per_line_of_n(monkeypatch):
    """inertia_pair's monodromy is t * N0, so every point with t != 0 reads
    the one flag of N0's line: a longer scan eliminates no more kernels.
    The Q(t) family is a line of its own, and so is t = 0, where N
    vanishes."""
    fam = load_wdrep(str(Path(__file__).resolve().parents[1] / "corpus" / "inertia_pair.json"))
    kernels = []
    kernel = wd.kernel_basis
    monkeypatch.setattr(wd, "kernel_basis", lambda M: kernels.append(M) or kernel(M))
    counts, lines = [], []
    for points in (range(1, 3), range(1, 8), range(0, 3)):
        wd._line_flag.cache_clear()
        kernels.clear()
        purity_scan(fam, Partition.of(2, 1), points)
        counts.append(len(kernels))
        lines.append(wd._line_flag.cache_info().currsize)
    assert counts[0] == counts[1] < counts[2]
    assert lines == [2, 2, 3]


def test_scan_reduces_only_the_analysed_phi(monkeypatch):
    """`specialize` reads its singularity test off the determinant kept on
    the family and reduces no phi; Jordan-Chevalley's `det` and squarefree
    part share one Berkowitz run on each analysed phi.  inertia_pair's phi
    is constant and N(t) = t * N0, so t = 2 and 3 reuse the analysis of
    t = 1, and their phi is reduced by nothing."""
    specialized, dets, reductions = [], [], []
    specialize_, det, charpoly_ = families.specialize, Matrix.det, linalg.charpoly

    def keep(fam, a):
        rho = specialize_(fam, a)
        assert getattr(rho.phi, "_charpoly", None) is None
        specialized.append(rho.phi)
        return rho

    def counting_charpoly(M):
        if getattr(M, "_charpoly", None) is None:
            reductions.append(M)
        return charpoly_(M)

    fam = load_wdrep(str(Path(__file__).resolve().parents[1] / "corpus" / "inertia_pair.json"))
    monkeypatch.setattr(families, "specialize", keep)
    monkeypatch.setattr(linalg, "charpoly", counting_charpoly)
    monkeypatch.setattr(Matrix, "det", lambda M: dets.append(M) or det(M))
    purity_scan(fam, Partition.of(2, 1), range(1, 4))
    assert len(specialized) == 3
    assert [sum(M is phi for M in dets) for phi in specialized] == [1, 0, 0]
    assert [sum(M is phi for M in reductions) for phi in specialized] == [1, 0, 0]


def test_jordan_chevalley_reduces_the_qt_schur_image_once(monkeypatch):
    """Over Q(t) det is read off the charpoly kept on the matrix, so
    Jordan-Chevalley's invertibility check and its charpoly share one
    Berkowitz run on the image's stored scalars."""
    fam = load_wdrep(str(Path(__file__).resolve().parents[1] / "corpus" / "inertia_pair.json"))
    S = wd_schur(fam, Partition.of(2, 1)).phi
    assert S.field == QT and S.nrows == 20
    runs = []
    berkowitz = linalg._berkowitz
    monkeypatch.setattr(linalg, "_berkowitz",
                        lambda *args: runs.append(args[0]) or berkowitz(*args))
    semisimple, unipotent = mult_jordan_chevalley(S)
    assert sum(A is S.num for A in runs) == 1
    assert semisimple * unipotent == S


def test_scan_builds_no_polynomial_view(monkeypatch, tmp_path):
    """Loading, validating and scanning a Q(t) family read each scalar's
    integer form alone: neither `RatFunc.num` nor `RatFunc.den` builds a
    `Poly` view before the report is emitted, on the flagship family, on
    the family with an inertia generator and on bench/gen.py's dense
    family."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", CORPUS.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    dense = tmp_path / "dense.json"
    dense.write_bytes(gen.document_bytes(gen.dense_qt(1)))
    views = []
    for name in ("num", "den"):
        view = getattr(fields.RatFunc, name).fget
        monkeypatch.setattr(fields.RatFunc, name,
                            property(lambda x, view=view: views.append(x) or view(x)))
    for path, mu, points in ((CORPUS / "flagship.json", Partition.of(2, 1), range(-25, 26)),
                             (CORPUS / "inertia_pair.json", Partition.of(2, 1), range(-25, 26)),
                             (dense, Partition.of(2), range(-3, 4))):
        report = rigidity_check(purity_scan(load_wdrep(str(path)), mu, points))
        assert report.verdict == "pass" and views == [], path
    assert str(QT.gen() / 2) == "1/2*t" and len(views) == 1
