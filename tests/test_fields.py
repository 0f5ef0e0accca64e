import itertools
import math
import operator
import random
import re
from fractions import Fraction
from functools import cached_property

import pytest

from wdreps import (Matrix, ModulusInterval, NFElem, NumberField, ParseError, Partition, Poly,
                    QQ, QT, RatFunc, Signature, SignatureEntry, field_from_json,
                    squarefree_decomposition, squarefree_part)
from wdreps import fields
from wdreps.cli import CommandRequest
from wdreps.fields import (MAX_SCALAR_BITS, Record, format_poly, parse_scalar_expression,
                           poly_gcd)
from wdreps.linalg import charpoly

from support import (FractionPoly, FractionResidue, fractions_built, poly_xgcd,
                     random_fraction)


def qpoly(*coeffs):
    return Poly(QQ, [Fraction(c) for c in coeffs])


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert qpoly(1, 2, 0, 0).degree == 1

    def test_divmod(self):
        p = qpoly(-1, 0, 1)           # x^2 - 1
        q, r = divmod(p, qpoly(-1, 1))  # x - 1
        assert q == qpoly(1, 1) and r.is_zero()

    def test_gcd_monic(self):
        g = poly_gcd(qpoly(-1, 0, 1), qpoly(1, -2, 1) * 3)
        assert g == qpoly(-1, 1)

    def test_xgcd_identity(self):
        a, b = qpoly(2, 3, 1), qpoly(-1, 1)
        g, s, t = poly_xgcd(a, b)
        assert s * a + t * b == g

    def test_eval_horner(self):
        assert qpoly(1, 2, 3).eval(Fraction(2)) == 1 + 4 + 12


class TestSquarefree:
    def test_double_root(self):
        assert squarefree_part(qpoly(1, -2, 1)) == qpoly(-1, 1)

    def test_already_squarefree(self):
        assert squarefree_part(qpoly(1, 0, 1)) == qpoly(1, 0, 1)

    def test_x3_minus_x2(self):
        # x^3 - x^2 -> gcd with derivative is x, quotient x^2 - x
        assert squarefree_part(qpoly(0, 0, -1, 1)) == qpoly(0, -1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(Poly.zero(QQ))

    def test_yun_reassembles(self):
        rng = random.Random(11)
        for _ in range(25):
            p = Poly.one(QQ)
            for _ in range(rng.randint(1, 3)):
                factor = qpoly(rng.randint(-3, 3), 1)
                p = p * factor ** rng.randint(1, 3)
            rebuilt = Poly.one(QQ)
            for f, mult in squarefree_decomposition(p):
                assert squarefree_part(f) == f
                rebuilt = rebuilt * f ** mult
            assert rebuilt == p.monic()


class TestRatFunc:
    def test_reduction_and_monic_denominator(self):
        x = RatFunc(qpoly(0, 2), qpoly(0, 0, 4))  # 2t / 4t^2 = 1/(2t)
        assert x.den.is_monic()
        assert x == RatFunc(qpoly(Fraction(1, 2)), qpoly(0, 1))

    def test_equality_is_canonical(self):
        t = QT.gen()
        assert (t * t - 1) / (t + 1) == t - 1

    def test_eval_and_vanishing(self):
        t = QT.gen()
        x = 1 / (t - 1)
        assert x.eval(2) == 1
        with pytest.raises(ZeroDivisionError):
            x.eval(1)

    def test_eval_agrees_with_horner_on_both_parts(self):
        """`eval` returns a constant's coefficient without Horner or a
        division; on every input it equals num(a) / den(a) by Horner and
        raises ZeroDivisionError exactly at the poles."""
        rng = random.Random(23)

        def rand_poly(degree):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(degree)]
            return qpoly(*coeffs, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))

        constants = poles = 0
        for _ in range(300):
            root = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            den = rand_poly(rng.randint(0, 2))
            if rng.random() < 0.5:
                den = den * qpoly(-root, 1)
            num = rand_poly(rng.randint(0, 3)) if rng.random() < 0.8 else qpoly()
            f = RatFunc(num, den)
            constants += f.den.degree == 0 and f.num.degree <= 0
            for a in (root, Fraction(rng.randint(-9, 9), rng.randint(1, 5)), 0):
                d = f.den.eval(Fraction(a))
                if d == 0:
                    poles += 1
                    with pytest.raises(ZeroDivisionError):
                        f.eval(a)
                    continue
                value = f.eval(a)
                assert type(value) is Fraction and value == f.num.eval(Fraction(a)) / d
        assert constants > 20 and poles > 20

    def test_pow_negative(self):
        t = QT.gen()
        assert t ** -2 == 1 / (t * t)

    def test_field_arithmetic_sample(self):
        t = QT.gen()
        lhs = (t / (t + 1)) + (1 / (t + 1))
        assert lhs == QT.one

    def test_rational_numerator_keeps_its_denominator(self):
        t = QT.gen()
        x = RatFunc(t, qpoly(1, 1))
        assert (x.num, x.den) == (qpoly(0, 1), qpoly(1, 1))
        y = RatFunc(t * t - 1, qpoly(2, 2))  # (t^2 - 1) / (2t + 2)
        assert (y.num, y.den) == (qpoly(Fraction(-1, 2), Fraction(1, 2)), qpoly(1))
        assert RatFunc(1 / t, 3) == 1 / (3 * t)
        assert RatFunc(t) == t
        with pytest.raises(ZeroDivisionError):
            RatFunc(t, qpoly())

    def test_constants_hash_as_their_fraction(self):
        """Equal scalars hash alike: a constant of Q(t) or of a number field
        compares equal to its Fraction, so it hashes as that Fraction."""
        t = QT.gen()
        K = NumberField([1, 0, 1])
        for c in (0, 3, Fraction(-2, 7)):
            for x in (RatFunc(c), (t + c) - t, K.coerce(c), (K.gen() + c) - K.gen()):
                assert x == c and hash(x) == hash(Fraction(c))
                assert len({x, Fraction(c)}) == 1
        assert len({t, t + 1, 1 / t, K.gen(), RatFunc(1), 1}) == 5

    def test_not_equal_to_a_bare_poly(self):
        """A Q-polynomial is not a scalar of Q(t): t and x differ both ways
        and hash apart; `RatFunc(p)` is the lift."""
        t, x = RatFunc.t(), Poly.x(QQ)
        assert t != x and x != t
        assert not (t == x) and not (x == t)
        assert len({t, x}) == 2
        assert RatFunc(x) == t
        with pytest.raises(TypeError):
            QT.coerce(x)


def _qt_operands():
    """Pairs of Q(t) scalars: numerators and non-monic denominators are
    small products over one pool of factors, so the two operands often
    share a factor, and each has some chance of being a constant or zero."""
    st = pytest.importorskip("hypothesis.strategies")
    pool = [qpoly(0, 1), qpoly(-1, 1), qpoly(1, 1), qpoly(1, 0, 1), qpoly(2, 3)]
    rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    units = rationals.filter(bool)

    @st.composite
    def poly(draw, factors):
        p = qpoly(draw(units))
        for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=factors)):
            p = p * pool[i]
        return p

    numerators = st.one_of(
        st.just(qpoly()), poly(2),
        st.builds(lambda cs, p: qpoly(*cs) * p, st.lists(rationals, max_size=3), poly(1)))
    scalars = st.builds(RatFunc, numerators, poly(3))
    return st.tuples(scalars, scalars)


def test_arithmetic_matches_sympy_cancel():
    """+, -, * and / on Q(t) give sympy's cancelled fraction, denominator
    made monic, and zero as 0/1; dividing by zero raises.  x + (y - x)
    takes the second gcd of a sum over denominators with a common factor."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("t")

    def expr(x):
        def poly(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * T ** i
                       for i, c in enumerate(p.coeffs))
        return poly(x.num) / poly(x.den)

    def canonical(e):
        num, den = sympy.fraction(sympy.cancel(e))
        lead = sympy.Poly(den, T).LC()

        def coeffs(part):
            cs = [Fraction(int(c.p), int(c.q))
                  for c in reversed(sympy.Poly(part / lead, T, domain="QQ").all_coeffs())]
            while cs and not cs[-1]:
                cs.pop()
            return tuple(cs)
        return coeffs(num), coeffs(den)

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_qt_operands())
    def check(pair):
        x, y = pair
        ex, ey = expr(x), expr(y)
        assert (x.num.coeffs, x.den.coeffs) == canonical(ex)
        # y - x and x share factors of x's denominator that cancel in the sum
        for got, want in ((x + y, ex + ey), (x - y, ex - ey), (x * y, ex * ey),
                          (x + (y - x), ey)):
            assert (got.num.coeffs, got.den.coeffs) == canonical(want)
        zero = x - x
        assert (zero.num.coeffs, zero.den.coeffs) == ((), (1,))
        if y:
            got = x / y
            assert (got.num.coeffs, got.den.coeffs) == canonical(ex / ey)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y

    check()


def test_integer_form_properties():
    """Each Q(t) scalar stores P over p > 0 with gcd(content P, p) = 1 and a
    primitive Q with a positive leading coefficient, zero as ((), 1, (1,)),
    and its views num = P/p and den = Q/lead(Q) rebuild it.  A constant
    hashes as its Fraction, `str` reads back through the parser, and a pole
    raises ZeroDivisionError naming the point."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # the roots of the pool's factors, and points off them
    points = st.sampled_from([0, 1, -1, Fraction(-2, 3), 2, Fraction(1, 2), Fraction(-7, 3)])

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_qt_operands(), points)
    def check(pair, a):
        for x in (*pair, pair[0] * pair[1], pair[0] - pair[0]):
            P, p, Q = x.P, x.p, x.Q
            assert all(type(c) is int for c in (*P, p, *Q)) and p > 0 and Q[-1] > 0
            assert (not P or P[-1]) and math.gcd(p, *P) == 1 and math.gcd(*Q) == 1
            assert P or (p, Q) == (1, (1,))
            assert x.num == Poly(QQ, [Fraction(c, p) for c in P]) and x.den.is_monic()
            assert RatFunc(x.num, x.den) == x and QT.coerce(str(x)) == x
            if x.den.degree == 0 and x.num.degree <= 0:
                assert hash(x) == hash(x.num[0]) == hash(x.eval(a))
            if x.den.eval(Fraction(a)):
                assert x.eval(a) == x.num.eval(Fraction(a)) / x.den.eval(Fraction(a))
            else:
                with pytest.raises(ZeroDivisionError, match=rf"^denominator vanishes at t = {a}$"):
                    x.eval(a)

    check()


def _q_polys():
    """Coefficient lists of polynomials over Q: zero, constants, negative
    leading coefficients, coefficients of 200+ bits over small and 206-bit
    denominators, and products of linear factors with repeated roots,
    multiplied out by the oracle."""
    st = pytest.importorskip("hypothesis.strategies")
    big = st.builds(lambda s, n: s * (2 ** 200 + n), st.sampled_from([1, -1]),
                    st.integers(0, 2 ** 40))
    coeffs = st.builds(Fraction, st.one_of(st.integers(-6, 6), big),
                       st.sampled_from([1, 1, 2, 3, 4, 3 ** 130]))
    roots = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 7), 2 ** 201])

    def with_roots(lead, rs):
        p = FractionPoly([lead])
        for r in rs:
            p = p * FractionPoly([-r, 1])
        return list(p.coeffs)

    return st.one_of(st.lists(coeffs, max_size=5),
                     st.builds(with_roots, coeffs.filter(bool),
                               st.lists(roots, min_size=1, max_size=6)))


def test_rational_polynomials_match_the_fraction_oracle():
    """`Poly` over Q agrees with `FractionPoly`, a copy of the Fraction
    arithmetic it ran on before: sums, differences and products, also by
    constants; divmod, // and % by polynomials and constants; poly_gcd,
    monic, derivative and eval; Yun's decomposition and the squarefree
    part; format_poly; and == with hash."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    constants = st.sampled_from([0, 1, -1, 3, Fraction(-2, 5), Fraction(2 ** 210 + 1, 3 ** 40)])

    def same(got, want):
        assert isinstance(got, Poly) and got.field == QQ and got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_q_polys(), _q_polys(), constants)
    def check(a, b, c):
        A, B, FA, FB = Poly(QQ, a), Poly(QQ, b), FractionPoly(a), FractionPoly(b)
        for got, want in ((A + B, FA + FB), (A - B, FA - FB), (A * B, FA * FB), (-A, -FA),
                          (A * c, FA * c), (c * A, FA * c), (A + c, FA + c), (c - A, c - FA),
                          (A.derivative(), FA.derivative()), (poly_gcd(A, B), FA.gcd(FB))):
            same(got, want)
        for divisor, want in ((B, FB), (Poly(QQ, [c]), FractionPoly([c]))):
            if not want:
                with pytest.raises(ZeroDivisionError):
                    divmod(A, divisor)
                continue
            q, r = divmod(A, divisor)
            fq, fr = divmod(FA, want)
            for got, expected in ((q, fq), (r, fr), (A // divisor, fq), (A % divisor, fr)):
                same(got, expected)
        for x in (Fraction(0), Fraction(-3, 2), Fraction(2 ** 100, 7)):
            assert A.eval(x) == FA.eval(x)
        assert format_poly(A, "t") == FA.format("t")
        if FA:
            same(A.monic(), FA.monic())
            assert ([(f.coeffs, m) for f, m in squarefree_decomposition(A)]
                    == [(f.coeffs, m) for f, m in FA.squarefree_decomposition()])
            same(squarefree_part(A), FA.squarefree_part())
        else:
            for fn in (squarefree_decomposition, squarefree_part):
                with pytest.raises(ValueError, match="zero polynomial"):
                    fn(A)
        again = Poly(QQ, [*FA.coeffs, 0, Fraction(0, 5)])
        assert again == A and hash(again) == hash(A)
        assert (A == B) == (FA == FB) and (A != B) == (FA != FB)
        assert A != B or hash(A) == hash(B)

    check()


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def test_pseudo_division_identity():
    """`_zdiv` in pseudo mode on int polynomials: lead(B)^k A = Q B + R,
    k = len(Q) = max(deg A - deg B + 1, 0), deg R < deg B; in exact mode
    it divides the product A B by B back to (A, ())."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.one_of(st.integers(-9, 9), st.integers(-2 ** 210, 2 ** 210))

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.lists(ints, max_size=8).map(_trim),
                      st.lists(ints, min_size=1, max_size=5).map(_trim).filter(bool))
    def check(A, B):
        Q, R = fields._zdiv(A, B, False)
        k = max(len(A) - len(B) + 1, 0)
        assert len(Q) == k and len(R) < len(B) and (not R or R[-1])
        assert all(type(x) is int for x in Q + R)
        assert FractionPoly(Q) * FractionPoly(B) + FractionPoly(R) == FractionPoly(A) * B[-1] ** k
        product = tuple(int(c) for c in (FractionPoly(A) * FractionPoly(B)).coeffs)
        assert fields._zdiv(product, B) == (A, ())

    check()


def test_integer_gcd_is_the_primitive_part_of_sympys():
    """`_zgcd` of nonzero int polynomials sharing random factors is the
    primitive part of sympy's gcd over Z, leading coefficient positive."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(32)
    factors = [(1, 1), (-1, 1), (2, 3), (1, 0, 1), (-5, 0, 0, 2), (7,), (-4,), (2 ** 200 + 1, 6)]

    def draw():
        p = FractionPoly([rng.choice([1, -1, 2, -6, 2 ** 201 + 3])])
        for _ in range(rng.randint(0, 4)):
            p = p * FractionPoly(rng.choice(factors))
        return tuple(int(c) for c in p.coeffs)

    for _ in range(150):
        A, B = draw(), draw()
        _, g = sympy.Poly(A[::-1], x).gcd(sympy.Poly(B[::-1], x)).primitive()
        want = tuple(int(c) for c in g.all_coeffs()[::-1])
        assert fields._zgcd(A, B) == (want if want[-1] > 0 else tuple(-c for c in want))


def test_polynomial_arithmetic_runs_no_gcd(monkeypatch):
    """Sums, differences, products, powers and quotients by constants of
    Q(t) polynomials, and a product of Q(t) matrices of polynomials, run
    the integer polynomial gcd `_zgcd` zero times; a sum over two
    non-constant denominators still takes one."""
    gcd_calls = []
    gcd = fields._zgcd
    monkeypatch.setattr(fields, "_zgcd", lambda a, b: gcd_calls.append((a, b)) or gcd(a, b))
    t = QT.gen()
    p, q = 3 * t * t - 1, Fraction(1, 2) * t + 5
    values = [p + q, p - q, p * q, -p, p ** 3, p / 3, p / Fraction(-2, 5), 7 / RatFunc(2),
              RatFunc(qpoly(1, 2), qpoly(Fraction(3, 4))), p + Fraction(1, 3), 2 - q]
    A = Matrix(QT, [[p, q], [1, t]])
    values.append(A * A)
    assert values[0] == 3 * t * t + Fraction(1, 2) * t + 4
    assert values[6] == Fraction(-15, 2) * t * t + Fraction(5, 2)
    assert gcd_calls == []
    x = 1 / (t - 1) + 1 / (t + 1)
    assert len(gcd_calls) == 1
    assert (x.num, x.den) == (qpoly(0, 2), qpoly(-1, 0, 1))


def test_arithmetic_does_not_parse_strings():
    """Operands are promoted, never parsed: a string, a foreign object or
    an element of another number field is refused with TypeError, as for
    every kind of scalar; strings enter through `coerce` alone."""
    one = Poly(QQ, [1])
    K, L = NumberField([1, 0, 1]), NumberField([-2, 0, 1])
    cases = [lambda: one + "3", lambda: one * "2", lambda: "2" * one,
             lambda: one - "1", lambda: divmod(one, "x"), lambda: divmod(one, object()),
             lambda: one % "x", lambda: RatFunc.t() + "3", lambda: "3" - RatFunc.t(),
             lambda: RatFunc.t() / "t", lambda: K.gen() + "a", lambda: K.gen() * L.gen(),
             lambda: K.gen() - L.gen(), lambda: L.gen() / K.gen(),
             lambda: Poly(K, [1, 1]) + L.gen(), lambda: Poly(K, [1, 1]) * L.gen()]
    for case in cases:
        with pytest.raises(TypeError):
            case()
    with pytest.raises(TypeError):
        K.coerce(L.gen())
    assert QQ.coerce("3") == 3 and QT.coerce("t") == RatFunc.t() and K.coerce("a") == K.gen()


def test_polynomial_results_are_not_coerced_again(monkeypatch):
    """Polynomial arithmetic over Q, a Q(t) matrix product and a Q(t)
    characteristic polynomial build their results from field scalars
    without `coerce`; the public constructor still coerces."""
    p, q = qpoly(-1, 0, 1), qpoly(Fraction(1, 2), 3, 0, 2)
    t = QT.gen()
    A = Matrix(QT, [[t, 1 / (t + 1), 2], [t * t - 1, 0, t / 3], [1, t - 2, 5]])
    calls = []
    coerce = fields.Field.coerce
    monkeypatch.setattr(fields.RationalField, "coerce",
                        lambda self, value: calls.append(value) or coerce(self, value))
    results = [p + q, p - q, p * q, divmod(q, p), q.derivative(), q.monic(),
               squarefree_part(p * p * q), 3 - p, 2 * p, A * A, charpoly(A)]
    assert calls == []
    Poly(QQ, [1, 2])
    assert calls == [1, 2]
    assert results[3] == (qpoly(0, 2), qpoly(Fraction(1, 2), 5))
    assert results[6] == (p * q).monic()
    assert results[10].degree == 3 and results[10][0] == -A.det()


class TestScalarStrings:
    @pytest.mark.parametrize("text", ["0", "1", "-3/5", "7"])
    def test_q_roundtrip(self, text):
        assert str(QQ.coerce(text)) == text

    @pytest.mark.parametrize("text", [
        "0", "1", "t", "-t", "t^2-1", "1/2*t+3",
        "(t^2-1)/(t+2)", "(t)/(t^2+1)", "(-1/25*t^2+1)/(t^3-2)",
    ])
    def test_qt_roundtrip(self, text):
        assert str(QT.coerce(text)) == text

    def test_qt_canonicalizes(self):
        assert str(QT.coerce("(t-1)/(t-1)")) == "1"
        assert str(QT.coerce("(2*t)/(4)")) == "1/2*t"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            QT.coerce("t +")
        with pytest.raises(ParseError):
            QT.coerce("x^2")
        with pytest.raises(ParseError):
            QQ.coerce("t")
        with pytest.raises(ParseError):
            QT.coerce("1/(t-t)")

    def test_format_qpoly(self):
        assert format_poly(qpoly(-1, 0, 1), "t") == "t^2-1"
        assert format_poly(qpoly(3, Fraction(1, 2)), "t") == "1/2*t+3"
        assert format_poly(Poly.zero(QQ), "t") == "0"


class TestNumberField:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            NumberField([1, 1])          # degree 1
        with pytest.raises(ValueError):
            NumberField([1, 2, 2])       # not monic
        with pytest.raises(ValueError):
            NumberField([1, 2, 1])       # (x+1)^2 not squarefree
        with pytest.raises(ValueError):
            NumberField([Fraction(1, 2), 0, 1])  # non-integer coefficient

    def test_gaussian_arithmetic(self):
        K = NumberField([1, 0, 1])
        i = K.gen()
        assert i * i == K.coerce(-1)
        assert (K.one + i) * (K.one - i) == K.coerce(2)
        assert str(K.one / (K.one + i)) == "-1/2*a+1/2"

    def test_inverse_roundtrip(self):
        K = NumberField([-2, 0, 1])  # sqrt(2)
        r = K.gen()
        x = 3 * r + 2
        assert x * (K.one / x) == K.one

    def test_zero_divisor_detected(self):
        K = NumberField([-1, 0, 1])  # x^2 - 1 is squarefree but reducible
        zd = K.gen() - 1
        with pytest.raises(ZeroDivisionError, match=r"^zero divisor in Q\[a\]/\(a\^2-1\)$"):
            K.one / zd
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            K.one / K.zero
        with pytest.raises(ParseError, match=r"^division by zero in '1/\(a-1\)'$"):
            K.coerce("1/(a-1)")
        assert K.coerce("1/(a+2)") == (2 - K.gen()) / 3

    @pytest.mark.parametrize("minpoly", [[-2, 0, 1], [-2, 0, 0, 0, 1], [-1, 0, 1]],
                             ids=["sqrt2", "a4-2", "etale-a2-1"])
    def test_inverse_on_ints(self, minpoly):
        """The inverse reads the regular matrix and column 0 of its inverse on
        ints over one denominator: the only Fractions built are the two of
        `Matrix.inverse`'s scale -1/p(0), at every degree."""
        K, m = NumberField(minpoly), qpoly(*minpoly)
        for cs in ([Fraction(3, 4), 2, -1, 5], [0, Fraction(-7, 3)], [5]):
            x, ox = NFElem(K, cs), FractionResidue(m, cs)
            with fractions_built() as built:
                inverse = x._inverse()
            assert inverse.coeffs == ox.inverse().coeffs and len(built) == 2

    def test_regular_matrix_is_multiplication(self):
        K = NumberField([1, 0, 1])
        x = 2 * K.gen() + 3
        rows = x.regular_matrix()
        # column j must be the coefficient vector of x * a^j
        assert [rows[0][0], rows[1][0]] == list((x * K.one).coeffs)
        assert [rows[0][1], rows[1][1]] == list((x * K.gen()).coeffs)

    def test_field_descriptor_json(self):
        K = NumberField([1, 0, 1])
        assert field_from_json(K.to_json()) == K
        assert field_from_json({"type": "Q"}) == QQ
        assert field_from_json({"type": "Qt"}) == QT
        with pytest.raises(ParseError):
            field_from_json({"type": "Zp"})

    def test_string_roundtrip(self):
        K = NumberField([1, 0, 1])
        for text in ["a", "-a", "a+1", "-1/2*a+1/2"]:
            assert str(K.coerce(text)) == text

    @pytest.mark.parametrize("minpoly", [[-2, 0, 1], [-2, 0, 0, 0, 1], [-1, 0, 1]],
                             ids=["sqrt2", "a4-2", "etale-a2-1"])
    def test_matches_the_fraction_residue_oracle(self, minpoly):
        """Seeded: sums, differences, products, quotients, equality, constant
        hashes, `str`, `coeffs` and `regular_matrix` agree with residues of
        Fraction polynomials inverted by extended Euclid, and so do the
        errors of dividing by zero and by a zero divisor."""
        K, m = NumberField(minpoly), qpoly(*minpoly)
        rng = random.Random(30 + len(minpoly))
        values = [[0], [1], [0, 1], [-1, 1], [1, 1], [Fraction(-3, 4)]]
        values += [[random_fraction(rng) if rng.random() < 0.8 else 0 for _ in range(K.degree + 2)]
                   for _ in range(14)]
        pairs = [(NFElem(K, cs), FractionResidue(m, cs)) for cs in values]
        for (x, ox), (y, oy) in itertools.product(pairs, repeat=2):
            for op in (operator.add, operator.sub, operator.mul):
                z, oz = op(x, y), op(ox, oy)
                assert z.coeffs == oz.coeffs and str(z) == str(oz)
            assert (x == y) == (ox == oy) and (x - y == 0) == (ox == oy)
            try:
                expected = ox / oy
            except ZeroDivisionError as exc:
                with pytest.raises(ZeroDivisionError, match=re.escape(str(exc))):
                    x / y
            else:
                assert (x / y).coeffs == expected.coeffs
        for x, ox in pairs:
            assert x.coeffs == ox.coeffs and str(x) == str(ox)
            assert x.regular_matrix() == ox.regular_matrix()
            assert (hash(x) == hash(x.coeffs[0])) == (not any(x.coeffs[1:]))
            assert NFElem(K, x.coeffs) == x and hash(NFElem(K, x.coeffs)) == hash(x)
        for c in (0, 5, Fraction(-2, 7)):
            assert hash(K.coerce(c)) == hash(FractionResidue(m, [c])) == hash(Fraction(c))

    def test_public_constructor_reads_coefficients_with_fraction(self):
        K = NumberField([-2, 0, 1])
        assert NFElem(K, ["0.5", 1, 3, 4]) == 9 * K.gen() + Fraction(13, 2)
        assert NFElem(K, []) == 0 and NFElem(K, [0, 0, 0]).coeffs == (0, 0)

    def test_literal_near_the_bit_bound(self):
        """A number-field literal is bounded by its coefficients' integers,
        as a Q(t) literal is: 2^16383 (MAX_SCALAR_BITS bits) passes in
        either coefficient, 2^16384 is refused, also when it only appears as
        a^2 * 2^16383 reduced by a^2 = 2."""
        K = NumberField([-2, 0, 1])
        chain = "*".join(["2^1000"] * 16)
        big = K.coerce(f"{chain}*2^383*a")
        assert big.coeffs == (0, 2 ** 16383) and MAX_SCALAR_BITS == 16384
        assert K.coerce(f"1/({chain}*2^383)+a").coeffs == (Fraction(1, 2 ** 16383), 1)
        for text in [f"{chain}*2^384*a", f"a*{chain}*2^383*a", f"1/({chain}*2^384)"]:
            with pytest.raises(ParseError, match=r"beyond 16384 bits \(MAX_SCALAR_BITS\)"):
                parse_scalar_expression(text, K)


class _Interval(Record):
    """ModulusInterval's fields on another record class."""

    lo: Fraction
    hi: Fraction


class _Square(Record):
    side: int
    unit: str = "cm"

    @cached_property
    def area(self):
        return self.side ** 2


class TestRecord:
    def test_construction_by_position_keyword_and_default(self):
        half, three_quarters = Fraction(1, 2), Fraction(3, 4)
        by_position = ModulusInterval(half, three_quarters)
        assert (by_position.lo, by_position.hi) == (half, three_quarters)
        assert ModulusInterval(hi=three_quarters, lo=half) == by_position
        assert ModulusInterval(half, hi=three_quarters) == by_position
        req = CommandRequest("validate", "x.json")
        assert (req.partition, req.weight, req.format) == (None, "infer", "json")
        assert CommandRequest("scan", "x.json", weight="-1").weight == "-1"
        assert _Square(3).unit == "cm" and _Square(3, "mm").unit == "mm"

    @pytest.mark.parametrize("args, kwargs", [
        ((Fraction(1), Fraction(2), Fraction(3)), {}),
        ((Fraction(1), Fraction(2)), {"width": Fraction(1)}),
        ((Fraction(1),), {"lo": Fraction(1)}),
        ((Fraction(1),), {}),
        ((), {}),
    ], ids=["extra", "unknown", "repeated", "missing", "none"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            ModulusInterval(*args, **kwargs)

    def test_post_init_normalises(self):
        mu = Partition((Fraction(2), True))
        assert mu.parts == (2, 1) and [type(p) for p in mu.parts] == [int, int]
        with pytest.raises(ValueError, match="weakly decreasing"):
            Partition.of(1, 2)
        sig = Signature((SignatureEntry(1, qpoly(-1, 1)), SignatureEntry(2, qpoly(-2, 1)),
                         SignatureEntry(1, qpoly(-3, 1))))
        assert [entry.t for entry in sig.entries] == [1, 2]
        assert sig.entries[0].charpoly == qpoly(-1, 1) * qpoly(-3, 1)

    def test_equality_and_hash_within_one_class(self):
        half, one = Fraction(1, 2), Fraction(1)
        assert ModulusInterval(half, one) == ModulusInterval(half, one)
        assert ModulusInterval(half, one) != ModulusInterval(half, half)
        assert ModulusInterval(half, one) != _Interval(half, one)
        assert ModulusInterval(half, one) != (half, one)
        assert hash(ModulusInterval(half, one)) == hash((half, one))
        assert hash(Partition.of(2, 1)) == hash(((2, 1),))
        assert len({Partition.of(2, 1), Partition((2, 1)), Partition.of(2)}) == 2

    def test_assignment_refused_and_replace(self):
        iv = ModulusInterval(Fraction(1, 2), Fraction(1))
        with pytest.raises(AttributeError):
            iv.lo = Fraction(0)
        with pytest.raises(AttributeError):
            del iv.hi
        with pytest.raises(AttributeError):
            iv.note = "x"
        wider = iv.replace(lo=Fraction(0))
        assert wider == ModulusInterval(Fraction(0), Fraction(1))
        assert iv.lo == Fraction(1, 2)
        with pytest.raises(ValueError):
            iv.replace(hi=Fraction(1, 4))  # the constructor checks the copy too
        with pytest.raises(TypeError):
            iv.replace(width=Fraction(1))

    def test_instances_keep_a_dict(self):
        square = _Square(3)
        assert square.area == 9 and square.__dict__["area"] == 9
        object.__setattr__(square, "_mark", True)
        assert square._mark and square == _Square(3) and repr(square) == "_Square(side=3, unit='cm')"

    def test_repr_is_the_dataclass_repr(self):
        assert repr(Partition.of(2, 1)) == "Partition(parts=(2, 1))"
        assert repr(ModulusInterval(Fraction(1, 2), Fraction(3, 4))) == \
            "ModulusInterval(lo=Fraction(1, 2), hi=Fraction(3, 4))"
