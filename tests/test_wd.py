import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from wdreps import (DEFAULT_EPS, Matrix, ModulusInterval, NonIntegralWeight,
                    NumberField, Poly, QQ, QT, Signature, SignatureEntry, WDRep,
                    charpoly, column_echelon, frobenius_semisimplify, frss_signature,
                    mat_subspaces, monodromy_filtration, mult_jordan_chevalley, purity_check,
                    sp_construct, wd_direct_sum, wd_schur, wd_tensor, wd_validate)
from wdreps import cli, roots, wd
from wdreps.families import purity_scan, specialize
from wdreps.jsonio import load_wdrep
from wdreps import linalg
from wdreps.linalg import intersect_columns, scalar_restriction, solve_in_span
from wdreps.schur import Partition

from support import (NonSplitSpectrum, companion, flagship_family, from_columns,
                     graded_dim, kernel_sum_filtration_step, lift_to_field, partitions_of, rank,
                     signature_reconstruct, signature_union, random_nilpotent,
                     random_pure_rep, random_unimodular, random_valid_wdrep,
                     subspaces_equal, trivial_onedim)


def sig_pairs(sig):
    return [(e.t, tuple(str(c) for c in e.charpoly.coeffs)) for e in sig.entries]


def qpoly(*coeffs):
    return Poly(QQ, [Fraction(c) for c in coeffs])


class TestValidate:
    def test_sp2_data_ok(self):
        rho = WDRep(5, QQ, Matrix.diagonal(QQ, [1, Fraction(1, 5)]),
                    Matrix(QQ, [[0, 0], [1, 0]]))
        assert wd_validate(rho) is None

    def test_each_object_validated_once(self, monkeypatch):
        import wdreps.wd as wd
        calls = []
        closure = wd.inertia_closure

        def counting_closure(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(wd, "inertia_closure", counting_closure)

        def sp2():
            return WDRep(5, QQ, Matrix.diagonal(QQ, [1, Fraction(1, 5)]),
                         Matrix(QQ, [[0, 0], [1, 0]]))

        rho = sp2()
        assert wd_validate(rho) is None
        frss_signature(rho)
        assert purity_check(rho).verdict == "pure"
        assert len(calls) == 1
        # the cached verdict is invisible to equality, hashing and repr
        fresh = sp2()
        assert rho == fresh and hash(rho) == hash(fresh) and repr(rho) == repr(fresh)

        bad = WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix(QQ, [[0, 0], [1, 0]]))
        messages = set()
        for check in (frss_signature, frss_signature, purity_check, purity_check):
            with pytest.raises(ValueError) as info:
                check(bad)
            messages.add(str(info.value))
        assert messages == {"invalid representation: " + wd_validate(bad)}

    def test_relation_violation(self):
        rho = WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix(QQ, [[0, 0], [1, 0]]))
        assert "relation" in wd_validate(rho)

    def test_repeated_inertia_label(self):
        """A signature keeps one inertia trace per label, so each label names
        one generator."""
        eye = Matrix.identity(QQ, 2)
        with pytest.raises(ValueError, match="^inertia label 'g' is repeated$"):
            WDRep(5, QQ, eye, Matrix.zeros(QQ, 2, 2),
                  (("g", eye), ("h", eye), ("g", Matrix(QQ, [[-1, 0], [0, -1]]))))

    def test_infinite_order_inertia(self):
        # no order test of its own: the closure cap bounds every generator's order
        rho = WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2),
                    (("u", Matrix(QQ, [[1, 1], [0, 1]])),))
        assert "closure exceeds cap" in wd_validate(rho)

    def test_inertia_order_over_qt(self):
        t = QT.gen()
        conj = Matrix(QT, [[1, t], [0, 1]])
        swap = conj * Matrix(QT, [[0, 1], [1, 0]]) * conj.inverse()

        def rep(g):
            return WDRep(5, QT, Matrix.identity(QT, 2), Matrix.zeros(QT, 2, 2), (("g", g),))

        assert wd_validate(rep(swap)) is None
        # constant charpoly (x - 1)^2 but infinite order: the closure cap refuses it
        assert "closure exceeds cap" in wd_validate(rep(conj))
        # a non-constant charpoly rules out finite order before any power:
        # the 64 powers of this generator grow to degree ~64 in t
        gen = Matrix(QT, [[(t * t + 1) / (t + 2), -5], [4, -5]])
        products = []
        mul = Matrix.__mul__
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Matrix, "__mul__", lambda a, b: products.append(1) or mul(a, b))
            assert "order exceeds bound 64" in wd_validate(rep(gen))
        assert len(products) < 10

    @pytest.mark.parametrize("cycles", [(2,), (64,), (3, 4, 5), (7, 9), (5, 13), (2, 5, 7),
                                        (65,), (2, 3, 11), (1, 1, 8, 16)])
    def test_order_oracle_on_permutation_matrices(self, cycles):
        """A permutation matrix has order lcm(cycle lengths), and its closure
        is the cyclic group of that order: the representation validates
        exactly when the order is at most the cap."""
        dim, perm = sum(cycles), []
        for length in cycles:
            start = len(perm)
            perm.extend(start + (i + 1) % length for i in range(length))
        g = Matrix(QQ, [[int(perm[j] == i) for j in range(dim)] for i in range(dim)])
        rho = WDRep(5, QQ, Matrix.identity(QQ, dim), Matrix.zeros(QQ, dim, dim), (("p", g),))
        order = math.lcm(*cycles)
        closure = wd.inertia_closure(rho.inertia, QQ, dim)
        if order <= wd.INERTIA_CLOSURE_CAP:
            assert wd_validate(rho) is None and len(closure) == order
            assert [word for word, _ in closure] == ["*".join("p" * m) for m in range(order)]
        else:
            assert closure is None
            assert wd_validate(rho) == f"inertia closure exceeds cap {wd.INERTIA_CLOSURE_CAP}"

    def test_words_keep_each_label_whole(self):
        """A word joins its labels with `*`, so a label that begins with `*`
        keeps it: the powers of an order-4 generator `*s` are named `*s`,
        `*s**s` and `*s**s**s`."""
        g = Matrix(QQ, [[0, -1], [1, 0]])
        closure = wd.inertia_closure([("*s", g)], QQ, 2)
        assert [word for word, _ in closure] == ["*".join(["*s"] * m) for m in range(4)]
        assert [m for _, m in closure] == [g ** m for m in range(4)]

    def test_singular_phi(self):
        rho = WDRep(5, QQ, Matrix.zeros(QQ, 1, 1), Matrix.zeros(QQ, 1, 1))
        assert wd_validate(rho) == "phi is singular"

    def test_non_nilpotent(self):
        rho = WDRep(5, QQ, Matrix.identity(QQ, 1), Matrix.identity(QQ, 1))
        assert "not nilpotent" in wd_validate(rho)

    @pytest.mark.parametrize("field", [QQ, QT, NumberField([-2, 0, 1]),
                                       NumberField([-1, 0, 1])],
                             ids=["Q", "Qt", "Qsqrt2", "etale"])
    def test_nilpotency_read_off_the_charpoly(self, field):
        """nilp passes exactly when nilp^n = 0: a representation lifted to
        the field passes, and trace and det 0 are not enough (x^3 - x)."""
        rng = random.Random(77)
        for _ in range(5):
            rho = lift_to_field(rng, random_valid_wdrep(rng, 5, max_dim=4), field)
            assert (rho.nilp ** rho.dim).is_zero() and wd._check_invariants(rho) is None
        eye = Matrix.identity(field, 3)
        M = Matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert charpoly(M) == Poly(field, [0, -1, 0, 1])
        assert wd_validate(WDRep(5, field, eye, M)) == "nilp is not nilpotent (nilp^3 != 0)"

    def test_validation_shares_the_charpoly_of_phi(self, monkeypatch):
        """Validation computes phi's charpoly once, for its det, and keeps
        it: Jordan-Chevalley's invertibility check, squarefree part and
        inverse of phi's semisimple part read it again.  Nilpotency takes
        no power of nilp."""
        runs, powers = [], []
        berkowitz, power = linalg._berkowitz, Matrix.__pow__
        monkeypatch.setattr(linalg, "_berkowitz",
                            lambda *args: runs.append(args[0]) or berkowitz(*args))
        monkeypatch.setattr(Matrix, "__pow__", lambda M, n: powers.append(n) or power(M, n))
        # loading validates
        fam = load_wdrep(str(Path(__file__).resolve().parent.parent / "corpus" / "flagship.json"))
        assert fam.field == QT and not fam.inertia
        assert wd_validate(fam) is None
        assert powers == []
        assert len(runs) == 2 and runs[0] is fam.phi.num and runs[1] is fam.nilp.num
        S, U = mult_jordan_chevalley(fam.phi)
        assert S is fam.phi and U == Matrix.identity(QT, 2)  # S.inverse() reads it too
        assert sum(A is fam.phi.num for A in runs) == 1

    def test_inertia_must_commute_with_nilp(self):
        rho = WDRep(5, QQ, Matrix.diagonal(QQ, [1, Fraction(1, 5)]),
                    Matrix(QQ, [[0, 0], [1, 0]]),
                    (("g", Matrix.diagonal(QQ, [1, -1])),))
        assert "commute" in wd_validate(rho)

    def test_frobenius_must_normalize_inertia(self):
        # swap matrix has order 2 and commutes with N = 0, but conjugation
        # by phi = diag(1, 2) leaves the closure
        swap = Matrix(QQ, [[0, 1], [1, 0]])
        rho = WDRep(5, QQ, Matrix.diagonal(QQ, [1, 2]), Matrix.zeros(QQ, 2, 2),
                    (("s", swap),))
        assert "normalize" in wd_validate(rho)

    def test_structural_errors_raise(self):
        with pytest.raises(ValueError):
            WDRep(1, QQ, Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1))
        with pytest.raises(ValueError):
            WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix.zeros(QQ, 1, 1))


class TestSpConstruct:
    def test_t1_is_r(self):
        r = trivial_onedim()
        sp1 = sp_construct(1, r)
        assert sp1.phi == r.phi and sp1.nilp == r.nilp

    def test_t2_trivial(self):
        sp2 = sp_construct(2, trivial_onedim())
        assert sp2.phi == Matrix.diagonal(QQ, [1, Fraction(1, 5)])
        assert sp2.nilp == Matrix(QQ, [[0, 0], [1, 0]])

    def test_t3_trivial(self):
        sp3 = sp_construct(3, trivial_onedim())
        assert sp3.phi == Matrix.diagonal(QQ, [1, Fraction(1, 5), Fraction(1, 25)])
        assert sp3.nilp == Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_rejects_nonzero_monodromy(self):
        with pytest.raises(ValueError):
            sp_construct(2, sp_construct(2, trivial_onedim()))

    def test_inertia_acts_diagonally(self):
        r = WDRep(5, QQ, Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1),
                  (("g", Matrix(QQ, [[-1]])),))
        sp2 = sp_construct(2, r)
        assert dict(sp2.inertia)["g"] == Matrix.diagonal(QQ, [-1, -1])
        assert wd_validate(sp2) is None


class TestTensor:
    def test_unit(self):
        a = random_valid_wdrep(random.Random(3), 5)
        unit = trivial_onedim()
        out = wd_tensor(a, unit)
        assert out.phi == a.phi and out.nilp == a.nilp

    def test_sp2_tensor_sp2_clebsch_gordan(self):
        sp2 = sp_construct(2, trivial_onedim())
        four = wd_tensor(sp2, sp2)
        assert four.dim == 4
        # Sp_3(1) + Sp_1(unr(1/5)): chain bottoms carry 1/25 and 1/5
        assert sig_pairs(frss_signature(four)) == [
            (1, ("-1/5", "1")), (3, ("-1/25", "1"))]

    def test_zero_monodromy_tensor(self):
        a = WDRep(5, QQ, Matrix.diagonal(QQ, [2, 3]), Matrix.zeros(QQ, 2, 2))
        b = WDRep(5, QQ, Matrix.diagonal(QQ, [1, 7]), Matrix.zeros(QQ, 2, 2))
        assert wd_tensor(a, b).nilp.is_zero()

    def test_mismatched_q(self):
        with pytest.raises(ValueError):
            wd_tensor(trivial_onedim(5), trivial_onedim(7))

    def test_outputs_validate_with_inertia(self):
        rng = random.Random(17)
        for _ in range(10):
            a = random_valid_wdrep(rng, 3, max_dim=3, with_inertia=True)
            b = random_valid_wdrep(rng, 3, max_dim=2, with_inertia=True)
            out = wd_tensor(a, b)
            assert wd_validate(out) is None


class TestDirectSum:
    def test_zero_dim_unit(self):
        a = sp_construct(2, trivial_onedim())
        empty = WDRep(5, QQ, Matrix.zeros(QQ, 0, 0), Matrix.zeros(QQ, 0, 0))
        out = wd_direct_sum(a, empty)
        assert out.phi == a.phi and out.nilp == a.nilp

    def test_signature_union(self):
        sp2 = sp_construct(2, trivial_onedim())
        sp1 = sp_construct(1, trivial_onedim())
        assert sig_pairs(frss_signature(wd_direct_sum(sp2, sp1))) == [
            (1, ("-1", "1")), (2, ("-1/5", "1"))]

    def test_multiplicity(self):
        # two copies of the same constituent merge canonically into one
        # entry whose charpoly is the square
        sp2 = sp_construct(2, trivial_onedim())
        assert sig_pairs(frss_signature(wd_direct_sum(sp2, sp2))) == [
            (2, ("1/25", "-2/5", "1"))]
        split_form = Signature((
            SignatureEntry(2, qpoly(Fraction(-1, 5), 1)),
            SignatureEntry(2, qpoly(Fraction(-1, 5), 1))))
        assert frss_signature(wd_direct_sum(sp2, sp2)) == split_form

    def test_union_property_random(self):
        rng = random.Random(71)
        for _ in range(15):
            a = random_valid_wdrep(rng, 5, max_dim=3)
            b = random_valid_wdrep(rng, 5, max_dim=3)
            merged = frss_signature(wd_direct_sum(a, b))
            assert merged == signature_union(frss_signature(a), frss_signature(b))


class TestSchurOfRep:
    def test_partition_one_is_identity(self):
        rho = sp_construct(2, trivial_onedim())
        out = wd_schur(rho, Partition.of(1))
        assert out.phi == rho.phi and out.nilp == rho.nilp

    def test_sym2_of_sp2(self):
        rho = wd_schur(sp_construct(2, trivial_onedim()), Partition.of(2))
        assert sig_pairs(frss_signature(rho)) == [(3, ("-1/25", "1"))]

    def test_wedge2_of_sp2(self):
        rho = wd_schur(sp_construct(2, trivial_onedim()), Partition.of(1, 1))
        assert rho.dim == 1
        assert rho.phi == Matrix(QQ, [[Fraction(1, 5)]])
        assert rho.nilp.is_zero()

    def test_zero_dimensional_result(self):
        rho = wd_schur(sp_construct(2, trivial_onedim()), Partition.of(1, 1, 1))
        assert rho.dim == 0
        assert frss_signature(rho).entries == ()
        back = wd_direct_sum(rho, sp_construct(1, trivial_onedim()))
        assert back.dim == 1

    def test_outputs_validate_random(self):
        # an image inherits its input's verdict, so the full check runs here:
        # every partition with d <= 3, with and without inertia, over Q, Q(t)
        # and Q(sqrt 2)
        rng = random.Random(53)
        for field in (QQ, QT, NumberField([-2, 0, 1])):
            for d in (1, 2, 3):
                for mu in partitions_of(d):
                    for with_inertia in (False, True):
                        rho = lift_to_field(rng, random_valid_wdrep(
                            rng, 5, max_dim=3, with_inertia=with_inertia), field)
                        image = wd_schur(rho, mu)
                        assert image.field == field
                        assert wd._check_invariants(image) is None

    def test_invalid_input_raises(self):
        bad = WDRep(5, QQ, Matrix.identity(QQ, 2), Matrix(QQ, [[0, 0], [1, 0]]))
        with pytest.raises(ValueError, match="invalid representation: conjugation"):
            wd_schur(bad, Partition.of(2))

    def test_image_is_never_checked(self, monkeypatch):
        rho = random_valid_wdrep(random.Random(7), 5, max_dim=3, with_inertia=True)
        checked = []
        check = wd._check_invariants

        def counting_check(rep):
            checked.append(rep)
            return check(rep)

        monkeypatch.setattr(wd, "_check_invariants", counting_check)
        # an input whose verdict is not yet known is checked, the image is not
        image = wd_schur(rho, Partition.of(2, 1))
        assert len(checked) == 1 and checked[0] is rho
        assert wd_validate(image) is None and len(checked) == 1
        # a validated input is not checked again either
        wd_schur(rho, Partition.of(3))
        assert len(checked) == 1


class TestMetamorphicIdentities:
    """Identities of Schur functors (Fulton and Harris, Lecture 6) read on
    signatures: both sides are built with `wd_tensor`, `wd_direct_sum` and
    `wd_schur`, and their `frss_signature`s agree.  A = corpus sp2, B =
    corpus inertia_pair at t = 3, both with q = 5."""

    @pytest.fixture(scope="class")
    def reps(self):
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        return (load_wdrep(str(corpus / "sp2.json")),
                specialize(load_wdrep(str(corpus / "inertia_pair.json")), 3))

    @staticmethod
    def _sum(*reps):
        out = reps[0]
        for rep in reps[1:]:
            out = wd_direct_sum(out, rep)
        return out

    def _assert_same(self, lhs, rhs):
        assert lhs.dim == rhs.dim
        assert frss_signature(lhs) == frss_signature(rhs)

    def test_cauchy_sym2_of_a_tensor_product(self, reps):
        a, b = reps
        sym2, wedge2 = Partition.of(2), Partition.of(1, 1)
        self._assert_same(wd_schur(wd_tensor(a, b), sym2),
                          self._sum(wd_tensor(wd_schur(a, sym2), wd_schur(b, sym2)),
                                    wd_tensor(wd_schur(a, wedge2), wd_schur(b, wedge2))))

    def test_wedge2_of_a_direct_sum(self, reps):
        a, b = reps
        wedge2 = Partition.of(1, 1)
        self._assert_same(wd_schur(wd_direct_sum(a, b), wedge2),
                          self._sum(wd_schur(a, wedge2), wd_tensor(a, b), wd_schur(b, wedge2)))

    def test_schur_weyl_third_tensor_power(self, reps):
        a, _ = reps
        hook = wd_schur(a, Partition.of(2, 1))
        self._assert_same(wd_tensor(wd_tensor(a, a), a),
                          self._sum(wd_schur(a, Partition.of(3)), hook, hook,
                                    wd_schur(a, Partition.of(1, 1, 1))))


class TestFrss:
    def test_semisimple_unchanged(self):
        rho = WDRep(5, QQ, Matrix.diagonal(QQ, [2, 3]), Matrix.zeros(QQ, 2, 2))
        assert frobenius_semisimplify(rho).phi == rho.phi

    def test_unipotent_collapses(self):
        rho = WDRep(5, QQ, Matrix(QQ, [[1, 1], [0, 1]]), Matrix.zeros(QQ, 2, 2))
        assert frobenius_semisimplify(rho).phi == Matrix.identity(QQ, 2)

    def test_distinct_eigenvalues_unchanged(self):
        rho = WDRep(5, QQ, Matrix(QQ, [[1, 1], [0, Fraction(1, 5)]]),
                    Matrix.zeros(QQ, 2, 2))
        assert frobenius_semisimplify(rho).phi == rho.phi

    def test_idempotent_and_trace_preserving(self):
        rng = random.Random(97)
        for _ in range(15):
            rho = random_valid_wdrep(rng, 5, max_dim=4, with_inertia=True)
            ss = frobenius_semisimplify(rho)
            assert frobenius_semisimplify(ss).phi == ss.phi
            assert ss.nilp == rho.nilp and ss.inertia == rho.inertia
            # trace functions tr(phi^k * g) preserved over the closure
            from wdreps import inertia_closure
            closure = inertia_closure(rho.inertia, rho.field, rho.dim)
            for k in range(1, rho.dim + 1):
                for _, g in closure:
                    assert (rho.phi ** k * g).trace() == (ss.phi ** k * g).trace()

    def test_relation_preserved(self):
        flag = sp_construct(3, trivial_onedim())
        P = random_unimodular(random.Random(2), 3)
        rho = WDRep(5, QQ, P * flag.phi * P.inverse(), P * flag.nilp * P.inverse())
        assert wd_validate(frobenius_semisimplify(rho)) is None


def _non_semisimple_inputs(rng):
    """Two valid representations over Q whose Frobenius is not semisimple:
    a conjugated Jordan block 2*(I + E_12) with N = 0, and on e1, e2, e3
    the Sp_2-type pair N e1 = e2, phi = diag(1, 1/5) coupled to e3 by
    phi e3 = e3/5 + e2, which keeps phi N phi^-1 = N/5."""
    P = random_unimodular(rng, 2)
    block = Matrix(QQ, [[2, 2], [0, 2]])
    yield WDRep(5, QQ, P * block * P.inverse(), Matrix.zeros(QQ, 2, 2))
    P = random_unimodular(rng, 3)
    phi = Matrix(QQ, [[1, 0, 0], [0, Fraction(1, 5), 1], [0, 0, Fraction(1, 5)]])
    nilp = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    yield WDRep(5, QQ, P * phi * P.inverse(), P * nilp * P.inverse(),
                (("g", -Matrix.identity(QQ, 3)),))


class TestSemisimplePartOfImage:
    """A Schur image's semisimple Frobenius is S_mu of its input's, so
    Jordan-Chevalley runs on the input only; Jordan-Chevalley on the image
    itself is the reference."""

    FIELDS = (QQ, QT, NumberField([-2, 0, 1]))
    PARTITIONS = (Partition.of(2), Partition.of(1, 1), Partition.of(2, 1), Partition.of(3))

    def test_jordan_chevalley_returns_a_semisimple_input_itself(self):
        rng = random.Random(5)
        for field in self.FIELDS:
            rho = lift_to_field(rng, random_valid_wdrep(rng, 5, max_dim=3), field)
            assert linalg.mult_jordan_chevalley(rho.phi)[0] is rho.phi
            for rho in _non_semisimple_inputs(rng):
                phi = lift_to_field(rng, rho, field).phi
                assert linalg.mult_jordan_chevalley(phi)[0] is not phi

    def test_equals_jordan_chevalley_on_the_image(self, monkeypatch):
        rng = random.Random(61)
        for field in self.FIELDS:
            inputs = [random_valid_wdrep(rng, 5, max_dim=3, with_inertia=True),
                      *_non_semisimple_inputs(rng)]
            for rho in inputs:
                rho = lift_to_field(rng, rho, field)
                for mu in self.PARTITIONS:
                    image = wd_schur(rho, mu)
                    if field != QQ and image.dim > 8:
                        continue  # 10 x 10 over Q(t): seconds of reference JC
                    S, _ = linalg.mult_jordan_chevalley(image.phi)
                    assert wd._semisimple_part(image) == S, (field, mu)
                    signature = frss_signature(image)
                    with monkeypatch.context() as patch:
                        patch.setattr(wd, "_semisimple_part", lambda _: S)
                        assert frss_signature(image) == signature, (field, mu)

    def test_non_semisimple_image_is_not_its_own_part(self):
        rho = next(_non_semisimple_inputs(random.Random(3)))
        image = wd_schur(rho, Partition.of(2))
        S = wd._semisimple_part(image)
        assert S != image.phi and S == Matrix.identity(QQ, 3) * 4

    def test_scan_decomposes_only_the_input(self, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "corpus" / "inertia_pair.json"
        sizes = []
        decompose = wd.mult_jordan_chevalley

        def recording(M):
            sizes.append(M.nrows)
            return decompose(M)

        monkeypatch.setattr(wd, "mult_jordan_chevalley", recording)
        purity_scan(load_wdrep(str(path)), Partition.of(2, 1), [1, 2])
        # the generic signature and t = 1, each on the 4 x 4 input; t = 2
        # has t = 1's phi, inertia and line of N, so it reuses that analysis
        assert sizes == [4, 4]

    def test_frss_command_decomposes_once(self, monkeypatch, capsys):
        path = Path(__file__).resolve().parent.parent / "corpus" / "sp2.json"
        calls = []
        decompose = wd.mult_jordan_chevalley
        monkeypatch.setattr(wd, "mult_jordan_chevalley",
                            lambda M: calls.append(M.nrows) or decompose(M))
        assert cli.main(["frss", str(path)]) == 0
        assert calls == [2]
        assert '"signature"' in capsys.readouterr().out

    def test_semisimplification_is_its_own_part(self, monkeypatch):
        rng = random.Random(11)
        images = [frobenius_semisimplify(wd_schur(rho, Partition.of(2)))
                  for rho in [random_valid_wdrep(rng, 5, max_dim=3), *_non_semisimple_inputs(rng)]]
        monkeypatch.setattr(wd, "mult_jordan_chevalley", None)  # no decomposition below
        for ss in images:
            assert wd._semisimple_part(ss) is ss.phi
            assert frobenius_semisimplify(ss).phi is ss.phi
            image = wd_schur(ss, Partition.of(1, 1))
            assert wd._semisimple_part(image) is image.phi


class TestMonodromyFiltration:
    def test_zero_operator(self):
        filt = monodromy_filtration(Matrix.zeros(QQ, 3, 3))
        assert filt.indices() == [-1, 0]
        assert filt.steps[-1].ncols == 0
        assert filt.steps[0] == Matrix.identity(QQ, 3)

    def test_single_two_chain(self):
        filt = monodromy_filtration(Matrix(QQ, [[0, 0], [1, 0]]))
        assert {k: filt.steps[k].ncols for k in filt.indices()} == \
            {-2: 0, -1: 1, 0: 1, 1: 2}
        assert filt.steps[-1] == Matrix(QQ, [[0], [1]])

    def test_blocks_two_plus_one(self):
        N = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        filt = monodromy_filtration(N)
        dims = [graded_dim(filt, k) for k in (-1, 0, 1)]
        assert dims == [1, 1, 1]

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValueError):
            monodromy_filtration(Matrix.identity(QQ, 2))

    @pytest.mark.parametrize("N", [
        Matrix(QQ, [[1, 0], [0, 0]]),        # idempotent: its powers never vanish
        Matrix(QQ, [[0, 1], [1, 0]]),        # an involution
        Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 1]]),
        Matrix(QQ, [[0, 1, 0], [0, 0, 1]]),  # not square
    ])
    def test_non_nilpotent_or_non_square_raises(self, N):
        with pytest.raises(ValueError):
            monodromy_filtration(N)

    @pytest.mark.parametrize("field", [QT, NumberField([-2, 0, 1])], ids=["Qt", "Q(a^2=2)"])
    def test_oracle_over_function_and_number_fields(self, field):
        rng = random.Random(29)
        for _ in range(8):
            N = random_nilpotent(rng, rng.randint(1, 4), field)
            filt = monodromy_filtration(N)
            for k in filt.indices():
                assert subspaces_equal(filt.step(k), kernel_sum_filtration_step(N, k))

    def test_signature_layers_are_images_of_kernels(self):
        # ker N & im N^k = N^k * ker N^(k+1)
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 6)
            N = random_nilpotent(rng, n)
            _, ker, _ = mat_subspaces(N)
            for k in range(n + 1):
                _, ker_next, _ = mat_subspaces(N ** (k + 1))
                _, _, image = mat_subspaces(N ** k)
                assert column_echelon(N ** k * ker_next) == intersect_columns(ker, image)

    def test_axioms_and_oracle_random(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 6)
            N = random_nilpotent(rng, n)
            filt = monodromy_filtration(N)
            keys = filt.indices()
            for k in keys:
                Mk = filt.step(k)
                if Mk.ncols:
                    # N * M_k inside M_(k-2)
                    image = N * Mk
                    below = filt.step(k - 2)
                    combined = below.hstack(image)
                    assert rank(combined) == below.ncols
                # independent kernel-sum oracle
                assert subspaces_equal(Mk, kernel_sum_filtration_step(N, k))
            # N^k induces an isomorphism gr_k -> gr_(-k)
            top = keys[-1]
            for k in range(1, top + 1):
                assert graded_dim(filt, k) == graded_dim(filt, -k)


class TestLineMemo:
    """The nilpotent flag is kept per line of N: every nonzero multiple of
    N reads the matrices a from-scratch flag of N itself gives."""

    @staticmethod
    def read(N):
        flag = wd._line_flag(wd._line(N))
        return flag.layers, monodromy_filtration(N).steps

    def test_scalar_invariance_over_q(self):
        rng = random.Random(83)
        for i in range(25):
            N = random_valid_wdrep(rng, rng.choice((2, 3, 5)), max_dim=5,
                                   with_inertia=i % 2 == 0).nilp
            wd._line_flag.cache_clear()
            scratch = wd._LineFlag(N)  # the flag of N itself, outside the memo
            want = scratch.layers, scratch.steps
            for c in (Fraction(-3), Fraction(1, 7), Fraction(5, 2)):
                wd._line_flag.cache_clear()
                assert self.read(N * c) == want  # cold, through the multiple
                assert self.read(N) == want  # warm, through N
                assert wd._line_flag.cache_info().currsize == 1

    @pytest.mark.parametrize("field", [QT, NumberField([-2, 0, 1])], ids=["Qt", "Q(a^2=2)"])
    def test_exact_value_key_over_function_and_number_fields(self, field):
        rng = random.Random(89)
        for _ in range(6):
            N = lift_to_field(rng, random_valid_wdrep(rng, 3, max_dim=4), field).nilp
            scratch = wd._LineFlag(N)
            want = scratch.layers, scratch.steps
            wd._line_flag.cache_clear()
            c = field.coerce(Fraction(-3))
            assert self.read(N) == want
            assert self.read(N * c) == want
            # over Q(t) and number fields a multiple is its own entry
            expected = 1 if N.is_zero() else 2
            assert wd._line_flag.cache_info().currsize == expected

    def test_returned_steps_are_a_copy(self):
        N = Matrix(QQ, [[0, 0, 0], [2, 0, 0], [0, 3, 0]])
        wd._line_flag.cache_clear()
        first = monodromy_filtration(N)
        want = dict(first.steps)
        first.steps[0] = Matrix.zeros(QQ, 3, 0)
        del first.steps[-3]
        assert monodromy_filtration(N).steps == want
        assert monodromy_filtration(N * Fraction(-1, 2)).steps == want


class TestSignature:
    def test_sp2(self):
        assert sig_pairs(frss_signature(sp_construct(2, trivial_onedim()))) == \
            [(2, ("-1/5", "1"))]

    def test_zero_monodromy(self):
        rho = WDRep(5, QQ, Matrix(QQ, [[1, 1], [0, 2]]), Matrix.zeros(QQ, 2, 2))
        assert sig_pairs(frss_signature(rho)) == [(1, ("2", "-3", "1"))]

    def test_sym2_sp2(self):
        rho = wd_schur(sp_construct(2, trivial_onedim()), Partition.of(2))
        assert sig_pairs(frss_signature(rho)) == [(3, ("-1/25", "1"))]

    def test_conjugation_invariance(self):
        rng = random.Random(43)
        for _ in range(10):
            rho = random_valid_wdrep(rng, 5, max_dim=4, with_inertia=True)
            P = random_unimodular(rng, rho.dim)
            Pinv = P.inverse()
            conj = WDRep(rho.q, rho.field, P * rho.phi * Pinv, P * rho.nilp * Pinv,
                         tuple((label, P * g * Pinv) for label, g in rho.inertia))
            assert frss_signature(conj) == frss_signature(rho)

    def test_total_dimension(self):
        rng = random.Random(47)
        for _ in range(10):
            rho = random_valid_wdrep(rng, 5, max_dim=4)
            assert frss_signature(rho).total_dim() == rho.dim

    def test_inertia_traces_recorded(self):
        r = WDRep(5, QQ, Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1),
                  (("g", Matrix(QQ, [[-1]])),))
        sig = frss_signature(sp_construct(2, r))
        assert sig.entries[0].inertia_traces == (("g", Fraction(-1)),)

    def test_merge_ignores_entry_order(self):
        """Equal chain lengths merge by multiplying charpolys and adding
        traces (a missing label counting as the identity), so every order of
        the same entries gives the same canonical signature."""
        rng = random.Random(89)
        for _ in range(20):
            entries = []
            for _ in range(rng.randint(2, 5)):
                p = Poly(QQ, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
                         + [1])
                labels = rng.sample(("g", "h"), rng.randint(0, 2))
                traces = tuple((label, Fraction(rng.randint(-2, 2))) for label in labels)
                entries.append(SignatureEntry(rng.randint(1, 2), p, traces))
            first = Signature(tuple(entries))
            for _ in range(4):
                rng.shuffle(entries)
                assert Signature(tuple(entries)) == first

    def test_reconstruction_roundtrip(self):
        rng = random.Random(83)
        for _ in range(10):
            rho = random_valid_wdrep(rng, 5, max_dim=4)
            sig = frss_signature(rho)
            rebuilt = signature_reconstruct(sig, 5)
            assert frss_signature(rebuilt) == sig

    def test_reconstruction_quadratic_charpoly(self):
        sig = Signature((SignatureEntry(2, qpoly(Fraction(1, 25), 0, 1)),))
        rebuilt = signature_reconstruct(sig, 5)
        assert frss_signature(rebuilt) == sig

    def test_reconstruction_rejects_trace_data(self):
        sig = Signature((SignatureEntry(1, qpoly(-1, 1), (("g", Fraction(1)),)),))
        with pytest.raises(NonSplitSpectrum):
            signature_reconstruct(sig, 5)


class TestPurity:
    def test_sp2_pure_weight_minus_one(self):
        report = purity_check(sp_construct(2, trivial_onedim()), "infer")
        assert report.verdict == "pure" and report.weight == -1
        report2 = purity_check(sp_construct(2, trivial_onedim()), -1)
        assert report2.verdict == "pure"

    def test_mixed_weights_impure(self):
        rho = WDRep(5, QQ, Matrix.diagonal(QQ, [1, Fraction(1, 5)]),
                    Matrix.zeros(QQ, 2, 2))
        report = purity_check(rho, "infer")
        assert report.verdict == "impure"

    def test_eps_below_min_eps_is_refused(self):
        from wdreps.roots import MIN_EPS
        rho = WDRep(2, QQ, Matrix(QQ, [[0, 2], [1, 0]]), Matrix.zeros(QQ, 2, 2))
        with pytest.raises(ValueError, match="2\\^-16000"):
            purity_check(rho, "infer", MIN_EPS / 2)
        assert purity_check(rho, "infer", Fraction(1, 10 ** 30)).verdict == "pure"

    @pytest.mark.parametrize("k, tries", [(203, 2), (205, 3)])
    def test_small_moduli_certify_after_escalation(self, monkeypatch, k, tries):
        """x^2 - 2^-k has roots of modulus 2^(-k/2), closer to the half powers
        2^(-(k+1)/2) and 2^(-(k-1)/2) than the default width 10^-30, so eps is
        halved until the intervals separate them; the seeds are accurate
        relative to the roots' size, however small."""
        tried = []
        certify = roots.root_moduli_certified
        monkeypatch.setattr(roots, "root_moduli_certified",
                            lambda p, eps: tried.append(eps) or certify(p, eps))
        wd._certified_matches.cache_clear()
        rho = WDRep(2, QQ, Matrix(QQ, [[0, Fraction(1, 2 ** k)], [1, 0]]),
                    Matrix.zeros(QQ, 2, 2))
        report = purity_check(rho, "infer")
        assert report.verdict == "pure" and report.weight == -k
        assert tried == [DEFAULT_EPS / 2 ** i for i in range(tries)]

    def test_undecided_root_escalates_eps(self, monkeypatch):
        """x^2 - 2 at eps 16 and 8: each enclosure of |root| = 2^(1/2) also
        holds 2^0 (and at 16 also 2^(2/2)), so `_matches` leaves it
        undecided and eps is halved until only 2^(1/2) remains."""
        tried = []
        certify = roots.root_moduli_certified
        monkeypatch.setattr(roots, "root_moduli_certified",
                            lambda p, eps: tried.append(eps) or certify(p, eps))
        wd._certified_matches.cache_clear()
        rho = WDRep(2, QQ, Matrix(QQ, [[0, 2], [1, 0]]), Matrix.zeros(QQ, 2, 2))
        report = purity_check(rho, "infer", Fraction(16))
        assert report.verdict == "pure" and report.weight == 1
        assert tried == [16, 8, 4]
        below = ModulusInterval(Fraction(1), Fraction(7, 4))
        above = ModulusInterval(Fraction(5, 4), Fraction(2))
        assert below.half_power_range(2) == (0, 1) and above.half_power_range(2) == (1, 2)
        assert wd._matches(below, 2, 1) is None and wd._matches(above, 2, 1) is None
        assert wd._matches(below, 2, 2) is False
        assert wd._matches(ModulusInterval(Fraction(5, 4), Fraction(3, 2)), 2, 1) is True

    def test_trivial_pure_weight_zero(self):
        report = purity_check(trivial_onedim(), "infer")
        assert report.verdict == "pure" and report.weight == 0

    def test_sp_t_weights(self):
        for t in range(1, 5):
            report = purity_check(sp_construct(t, trivial_onedim()), "infer")
            assert report.verdict == "pure" and report.weight == -(t - 1)

    def test_tensor_of_pure_is_pure_with_added_weights(self):
        rng = random.Random(29)
        for _ in range(8):
            w1, w2 = rng.randint(-2, 2), rng.randint(-2, 2)
            a = random_pure_rep(rng, 5, w1)
            b = random_pure_rep(rng, 5, w2)
            report = purity_check(wd_tensor(a, b), "infer")
            assert report.verdict == "pure" and report.weight == w1 + w2

    def test_rejects_function_field(self):
        with pytest.raises(ValueError):
            purity_check(flagship_family(), "infer")

    def test_non_integral_weight(self):
        rho = WDRep(5, QQ, Matrix.diagonal(QQ, [2, 3]), Matrix.zeros(QQ, 2, 2))
        with pytest.raises(NonIntegralWeight):
            purity_check(rho, "infer")

    def test_number_field_embeddings(self):
        K = NumberField([1, 0, 1])  # Q(i)
        rho = WDRep(5, K, Matrix(K, [["a"]]), Matrix.zeros(K, 1, 1))
        report = purity_check(rho, "infer")
        assert report.verdict == "pure" and report.weight == 0
        assert report.per_graded[0].charpoly == qpoly(1, 0, 1)
        # 1 + i has modulus sqrt(2), not a half power of 5
        rho2 = WDRep(5, K, Matrix(K, [["a+1"]]), Matrix.zeros(K, 1, 1))
        report2 = purity_check(rho2, 0)
        assert report2.verdict == "impure"

    def test_zero_dim_is_pure(self):
        rho = wd_schur(sp_construct(2, trivial_onedim()), Partition.of(1, 1, 1))
        report = purity_check(rho, "infer")
        assert report.verdict == "pure" and report.per_graded == ()

    def test_explicit_wrong_weight_is_impure(self):
        report = purity_check(sp_construct(2, trivial_onedim()), 4)
        assert report.verdict == "impure"


def _divmod_q_power_exponent(value: Fraction, q: int):
    """Reference: j with value = q^j by repeated division, or None."""
    num, den = value.numerator, value.denominator
    if value <= 0 or (num != 1 and den != 1):
        return None
    sign, m = (1, num) if den == 1 else (-1, den)
    j = 0
    while m > 1:
        m, rem = divmod(m, q)
        if rem:
            return None
        j += 1
    return sign * j


class TestQPowerExponent:
    """Weight inference reads j with |det|^2 = q^j off `roots._q_log`."""

    @staticmethod
    def _exponent(value: Fraction, q: int):
        i, exact = roots._q_log(value.numerator, value.denominator, q)
        return i if exact else None

    def test_against_repeated_division(self):
        """Powers of q and their inverses, those times or divided by a small
        prime, random non-powers and power + 1 (|det|^2 is positive, so zero
        and negatives never reach `_q_log`); the bracket q^i <= value <
        q^(i+1) holds on each."""
        rng = random.Random(1009)
        checked = 0
        for q in (2, 3, 4, 5, 9, 25, 3 ** 20):
            for _ in range(400):
                power = Fraction(q) ** rng.randint(-60, 60)
                value = rng.choice((
                    power, power * rng.choice((2, 3, 5, 7)), power / rng.choice((2, 3, 5, 7)),
                    Fraction(rng.randint(1, 10 ** 12)), Fraction(1, rng.randint(1, 10 ** 12)),
                    power + 1))
                assert self._exponent(value, q) == _divmod_q_power_exponent(value, q)
                i = roots._q_log(value.numerator, value.denominator, q)[0]
                assert Fraction(q) ** i <= value < Fraction(q) ** (i + 1)
                checked += 1
        assert checked == 2800

    def test_bit_length_guess_at_large_exponents(self):
        for q in (2, 3, 5, 3 ** 20):
            for j in (999, 1000, 1001, 4321):
                assert self._exponent(Fraction(q) ** j, q) == j
                assert self._exponent(Fraction(1, q ** j), q) == -j
                assert self._exponent(Fraction(q ** j + 1), q) is None

    def test_weight_inference_on_one_dimensional_frobenius(self):
        """purity infers w from |phi|^2 = q^w on a 1 x 1 Frobenius, and
        refuses exactly the phi whose square is no power of q."""
        rng = random.Random(1013)
        for q in (2, 5, 9):
            for _ in range(40):
                power = Fraction(q) ** rng.randint(-30, 30)
                phi = rng.choice((power, -power, power * 3 / 2, power + 1))
                rho = WDRep(q, QQ, Matrix(QQ, [[phi]]), Matrix.zeros(QQ, 1, 1))
                expected = _divmod_q_power_exponent(phi * phi, q)
                if expected is None:
                    with pytest.raises(NonIntegralWeight):
                        purity_check(rho, "infer")
                else:
                    assert purity_check(rho, "infer").weight == expected


def _lefschetz_graded_charpolys(sig: Signature, q: int) -> dict:
    """Gr_k charpolys read off a signature over Q: an entry (t, p) with
    m = t - 1 and d = deg p puts c^d p(x/c), c = q^((m+k)/2), into Gr_k for
    k = -m, -m+2, ..., m [Deligne, Weil II, 1.6]."""
    graded = {}
    for entry in sig.entries:
        m, p = entry.t - 1, entry.charpoly
        for k in range(-m, m + 1, 2):
            c = Fraction(q) ** ((m + k) // 2)
            piece = Poly(QQ, [a * c ** (p.degree - i) for i, a in enumerate(p.coeffs)])
            graded[k] = graded.get(k, Poly.one(QQ)) * piece
    return graded


class TestLefschetzIdentity:
    """The graded charpolys of `purity_check` are the products that the
    signature predicts."""

    @staticmethod
    def check(rho: WDRep):
        graded = {g.k: g.charpoly for g in purity_check(rho, 0).per_graded}
        assert graded == _lefschetz_graded_charpolys(frss_signature(rho), rho.q)

    @pytest.mark.parametrize("parts", [(2, 1), (2,), (1, 1)])
    def test_inertia_pair_points(self, parts):
        fam = load_wdrep(str(Path(__file__).resolve().parent.parent / "corpus" / "inertia_pair.json"))
        checked = 0
        for a in range(-6, 7):
            try:
                rho = specialize(fam, a)
            except ArithmeticError:  # a pole or a singular Frobenius
                continue
            self.check(wd_schur(rho, Partition.of(*parts)))
            checked += 1
        assert checked >= 12

    def test_random_representations(self):
        rng = random.Random(1729)
        for i in range(120):
            self.check(random_valid_wdrep(rng, rng.choice((2, 3, 5)), max_dim=4,
                                          with_inertia=i % 3 == 0))

    @pytest.mark.parametrize("minpoly", [[-2, 0, 1], [-1, 0, 1]], ids=["Qsqrt2", "etale"])
    def test_random_representations_over_number_fields(self, minpoly):
        """Over a number field purity takes charpolys after restriction of
        scalars to Q, so each signature entry enters by its norm to Q: the
        charpoly of the restriction of scalars of its companion matrix."""
        field = NumberField(minpoly)

        def norm(entry):
            restricted = scalar_restriction(companion(entry.charpoly))
            return SignatureEntry(entry.t, charpoly(restricted))

        rng = random.Random(1729)
        for i in range(40):
            rho = lift_to_field(rng, random_valid_wdrep(rng, rng.choice((2, 3, 5)), max_dim=4,
                                                        with_inertia=i % 3 == 0), field)
            graded = {g.k: g.charpoly for g in purity_check(rho, 0).per_graded}
            normed = Signature(tuple(map(norm, frss_signature(rho).entries)))
            assert graded == _lefschetz_graded_charpolys(normed, rho.q)


class TestRelationPreservation:
    def test_tensor_and_schur_validate_100_random(self):
        rng = random.Random(331)
        for i in range(100):
            a = random_valid_wdrep(rng, 3, max_dim=3,
                                   with_inertia=bool(i % 3 == 0))
            if i % 2 == 0:
                b = random_valid_wdrep(rng, 3, max_dim=2)
                assert wd_validate(wd_tensor(a, b)) is None
            else:
                d = rng.randint(1, 3)
                mus = partitions_of(d)
                mu = mus[rng.randrange(len(mus))]
                field = (QQ, QT, NumberField([-2, 0, 1]))[i // 2 % 3]
                # the image inherits the verdict of its input: check it directly
                assert wd._check_invariants(wd_schur(lift_to_field(rng, a, field), mu)) is None


class TestOncePerPoint:
    """At a scan point, the signature and the purity check of one Schur
    image share the powers of N and their kernels, each kernel costs one
    elimination, and the quotients of either flag cost none."""

    def test_flag_and_quotients_computed_once(self, monkeypatch):
        # a memo warmed by an earlier test would skip the kernels counted here
        wd._line_flag.cache_clear()
        path = Path(__file__).resolve().parent.parent / "corpus" / "inertia_pair.json"
        image = wd_schur(specialize(load_wdrep(str(path)), 2), Partition.of(2, 1))
        assert image.dim == 20 and image.inertia
        N = image.nilp
        e = next(k for k in range(N.nrows + 1) if (N ** k).is_zero())
        rrefs, kernel_rrefs, quotient_rrefs, quotients = [], [], [], []
        rref, kernel, actions = Matrix.rref, wd.kernel_basis, wd._quotient_actions

        def counting_rref(M):
            rrefs.append(M)
            return rref(M)

        def counting_kernel(M):
            before = len(rrefs)
            out = kernel(M)
            kernel_rrefs.append(len(rrefs) - before)
            return out

        def counting_actions(flag, operators):
            flag = list(flag)  # the steps are built before the quotients are read
            before = len(rrefs)
            out = list(actions(flag, operators))
            quotient_rrefs.append(len(rrefs) - before)
            quotients.extend(out)
            return out

        def forbidden(*args):
            raise AssertionError("solve_in_span called")

        monkeypatch.setattr(Matrix, "rref", counting_rref)
        monkeypatch.setattr(wd, "kernel_basis", counting_kernel)
        monkeypatch.setattr(wd, "_quotient_actions", counting_actions)
        monkeypatch.setattr(linalg, "solve_in_span", forbidden)
        signature = frss_signature(image)
        report = purity_check(image)
        # one kernel per power N^0..N^e, not one per consumer, one rref each
        assert kernel_rrefs == [1] * (e + 1)
        # every nonzero quotient of both flags was read with no elimination
        assert len(quotients) == len(signature.entries) + len(report.per_graded)
        assert quotient_rrefs == [0, 0] and rrefs

    def test_zero_monodromy_point_reads_one_charpoly_of_the_image(self, monkeypatch):
        """Where N = 0 both flags have one nonzero quotient, the whole space
        modulo zero, and its action is the operator itself: the signature
        and the purity check of the 20-dim image at t = 0 read the charpoly
        kept on its phi, so Berkowitz runs once on the input's phi (for its
        Jordan-Chevalley decomposition) and once on the image's phi."""
        path = Path(__file__).resolve().parent.parent / "corpus" / "inertia_pair.json"
        image = wd_schur(specialize(load_wdrep(str(path)), 0), Partition.of(2, 1))
        assert image.dim == 20 and image.nilp.is_zero()
        sizes = []
        berkowitz = linalg._berkowitz
        monkeypatch.setattr(linalg, "_berkowitz",
                            lambda *args: sizes.append(len(args[0])) or berkowitz(*args))
        signature = frss_signature(image)
        report = purity_check(image)
        assert sizes == [4, 20]
        assert [e.charpoly for e in signature.entries] == [charpoly(image.phi)]
        assert [g.charpoly for g in report.per_graded] == [charpoly(image.phi)]
        whole = [(0, Matrix.zeros(QQ, 20, 0), Matrix.identity(QQ, 20))]
        ((key, actions),) = wd._quotient_actions(whole, [image.phi, image.nilp])
        assert key == 0 and actions[0] is image.phi and actions[1] is image.nilp


def _reference_quotient_actions(flag, operators):
    """The quotient actions by elimination: complement columns of big from
    an rref of [sub | big], coordinates by solving against sub and them.
    Independent of the read-off rule in `wd._quotient_actions`."""
    for key, sub, big in flag:
        _, pivots = sub.hstack(big).rref()
        chosen = [p - sub.ncols for p in pivots if p >= sub.ncols]
        if not chosen:
            continue
        reps = from_columns(big.field, [big.column(j) for j in chosen], big.nrows)
        basis = sub.hstack(reps)
        yield key, [Matrix(big.field, solve_in_span(basis, op * reps).rows[sub.ncols:])
                    for op in operators]


def _both_flags(rho):
    """The signature layers and the monodromy filtration of rho, as
    (key, sub, big) triples, as `frss_signature` and `purity_check` read
    them."""
    layers = wd._line_flag(wd._line(rho.nilp)).layers
    filt = monodromy_filtration(rho.nilp)
    return ([(k, layers[k + 1], layers[k]) for k in range(len(layers) - 1)],
            [(k, filt.step(k - 1), filt.step(k)) for k in filt.indices()])


class TestQuotientActionsOracle:
    def test_against_elimination(self):
        rng = random.Random(409)
        for field in (QQ, QT, NumberField([-2, 0, 1])):
            for i in range(8):
                rho = random_valid_wdrep(rng, 5, max_dim=3, with_inertia=bool(i % 2))
                if i >= 4:
                    rho = wd_schur(rho, (Partition.of(2), Partition.of(1, 1))[i % 2])
                rho = lift_to_field(rng, rho, field)
                operators = [rho.phi, rho.nilp] + [g for _, g in rho.inertia]
                for flag in _both_flags(rho):
                    # every operator maps every step into itself
                    for _, sub, big in flag:
                        for step in (sub, big):
                            for op in operators:
                                solve_in_span(step, op * step)
                    got = list(wd._quotient_actions(flag, operators))
                    want = list(_reference_quotient_actions(flag, operators))
                    assert [k for k, _ in got] == [k for k, _ in want]
                    for (_, mats), (_, ref) in zip(got, want):
                        for A, B in zip(mats, ref):
                            assert A.nrows == B.nrows
                            assert charpoly(A) == charpoly(B)
                            assert A.trace() == B.trace()
