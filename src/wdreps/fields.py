"""Exact coefficient fields: Q, the rational function field Q(t), and
number fields Q[a]/(m(a)) (classes in `numberfield`, loaded on first use).

Every scalar is immutable and hashable, arithmetic is exact, and equality
is canonical (fractions reduced, denominators monic, residues reduced mod
the minimal polynomial).  One integer polynomial kernel (`_zmul`, `_zcomb`,
`_zdiv`, `_zgcd`) carries Q(t), number fields (a residue is its
representative in Q[t] ⊂ Q(t)) and `Poly`, whose coefficients over Q are
ints over one denominator.  Field descriptors double as coercion points;
scalars print with `str`, which the parser reads.

Each field's `promote` is the one promotion path of operands: its own
scalars and lifts of ints and Fractions, never strings, which enter only
through `Field.coerce` and the scalar parser.  `zero` and `one` are
constants of the field.  `Scalar` derives `-`, `/` and their reflections
from `+`, negation, `*` and `_inverse`.  `Poly(field, coeffs)` coerces;
polynomial arithmetic builds its results with `_poly`, which does not.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul


class ParseError(ValueError):
    """A scalar or field description could not be parsed."""


# errors and eps bounds the CLI needs before it imports `roots`, `schur` or `families`
class CertificationFailed(ArithmeticError):
    """The requested enclosure width could not be certified within the
    configured iteration budget."""


class ResourceCapExceeded(RuntimeError):
    """The tensor space n^d would exceed MAX_TENSOR_SIZE, or the
    symmetrizer would have more than MAX_SYMMETRIZER_TERMS terms."""


class DenominatorVanishes(ArithmeticError):
    def __init__(self, point: Fraction):
        super().__init__(f"a denominator vanishes at t = {point}")
        self.point = point


class SingularFrobenius(ArithmeticError):
    def __init__(self, point: Fraction):
        super().__init__(f"Frobenius specializes to a singular matrix at t = {point}")
        self.point = point


DEFAULT_EPS = Fraction(1, 10 ** 30)
MIN_EPS = Fraction(1, 1 << 16000)


class Record:
    """Immutable value class: the fields are the subclass's own annotations in
    order, a class attribute giving the default, and `__post_init__` runs
    last.  Equality and hash go by the tuple of field values within one class.
    Assignment is refused; `cached_property` and `object.__setattr__` still write."""

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        given = {**dict(zip(self._fields, args)), **kwargs}
        values = {**self._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes {self._fields}, not {args} {kwargs}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with the given fields changed, built by the constructor."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class Field:
    """Base descriptor.  Concrete fields say how to promote values into
    their scalars and which generator symbol, if any, the parser admits;
    scalars carry the arithmetic and format themselves with `str`."""

    kind = "?"

    def __init__(self):
        self.zero, self.one = self.promote(0), self.promote(1)

    def promote(self, value):
        """value as a scalar of this field: one of its own, or a lift of an
        int or Fraction; None for anything else.  Never parses."""
        raise NotImplementedError

    def coerce(self, value):
        """`promote`, and else a string through the scalar parser."""
        x = self.promote(value)
        if x is not None:
            return x
        if isinstance(value, str):
            return parse_scalar_expression(value, self)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def variable_name(self):
        """The generator symbol the scalar parser admits, if any."""
        return None

    def to_json(self):
        return {"type": self.kind}

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return self.kind


class RationalField(Field):
    """Q, with `fractions.Fraction` as the scalar type."""

    kind = "Q"

    def promote(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        return None


QQ = RationalField()


def binary_power(x, n: int, one, times=mul):
    """x^n for an integer n >= 0 by repeated squaring; `one` is the
    identity of the multiplication `times`."""
    result = one
    while n:
        if n & 1:
            result = times(result, x)
        n >>= 1
        if n:
            x = times(x, x)
    return result


# ---------------------------------------------------------------------------
# univariate polynomials over an arbitrary field
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over a `Field`, stored as `Matrix` is:
    coefficients `num`, low degree first, no trailing zeros (zero is `()`,
    degree -1), over `den`: over Q ints over one int den > 0 with gcd(den,
    num) = 1 (den = 1 for zero), elsewhere the scalars over den = None.
    `coeffs` and indexing are the Fraction view for the edges (JSON,
    `format_poly`, `eval`).  `+`, `-` and `*` run on `_zcomb` and `_zmul`
    for every field; over Q `divmod` and `poly_gcd` run on `_zdiv` and
    `_zgcd`.  The constructor coerces; arithmetic builds with `_poly`."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, coeffs):
        p = _poly(field, [field.coerce(c) for c in coeffs])
        self.field, self.num, self.den = field, p.num, p.den

    @classmethod
    def zero(cls, field):
        return _poly(field, [])

    @classmethod
    def one(cls, field):
        return _poly(field, [field.one])

    @classmethod
    def x(cls, field):
        return _poly(field, [field.zero, field.one])

    @property
    def coeffs(self) -> tuple:
        return tuple([Fraction(c, self.den) for c in self.num]) if self.den else self.num

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __getitem__(self, i: int):
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den) if self.den else self.num[i]
        return self.field.zero

    def __iter__(self):
        """The coefficients; without it iteration would run on `p[i]`, which never ends."""
        return iter(self.coeffs)

    def leading(self):
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[self.degree]

    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == (self.den or self.field.one)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        lead = self.num[-1]  # over Q, num / den over lead / den is num over lead
        cs = self.num if self.den else [c / lead for c in self.num]
        return _poly(self.field, cs, self.den and lead)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.den, self.num))

    def _operand(self, other):
        """other as a polynomial over this field: a Poly, or a constant
        lifted by `field.promote`; None for anything else."""
        if isinstance(other, Poly):
            return other
        s = self.field.promote(other)
        return None if s is None else _poly(self.field, [s])

    def __neg__(self):
        return _poly(self.field, [-c for c in self.num], self.den)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        den = self.den and lcm(self.den, other.den)
        x, y = (den // self.den, den // other.den) if den else (1, 1)
        return _poly(self.field, _zcomb(self.num, x, other.num, y), den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        zero = 0 if self.den else self.field.zero
        return _poly(self.field, _zmul(self.num, other.num, zero),
                     self.den and self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return binary_power(self, n, Poly.one(self.field))

    def __divmod__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field, B, dd = self.field, other.num, other.degree
        if self.den:  # lead^k A = Q B + R, k = len Q: self = (Q den(B) B + R) / (den lead^k)
            Q, R = _zdiv(self.num, B, False)
            den = self.den * B[-1] ** len(Q)
            return _poly(field, _zmul(Q, (other.den,)), den), _poly(field, R, den)
        rem, quo = list(self.num), [field.zero] * max(0, len(self.num) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i]:
                q = quo[i - dd] = rem[i] / B[-1]
                for j, c in enumerate(B, i - dd):
                    rem[j] = rem[j] - q * c
        return _poly(field, quo), _poly(field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return _poly(self.field, [i * c for i, c in enumerate(self.num)][1:], self.den)

    def eval(self, x):
        """Horner evaluation at a scalar of the coefficient field."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly({self.field!r}, {list(self.coeffs)!r})"


def _poly(field: Field, cs, den=None) -> Poly:
    """The polynomial with coefficients `cs`, low degree first, trailing
    zeros dropped and coerced no further: for computed results.  Over Q `cs`
    holds ints over `den`, or rationals when `den` is None, put in canonical
    form (the one place a Fraction becomes an int); elsewhere scalars."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    if field == QQ:
        if den is None:
            den = lcm(*[c.denominator for c in cs])
            cs = [c.numerator * (den // c.denominator) for c in cs]
        g = gcd(den, *cs) if den > 0 else -gcd(den, *cs)
        if g != 1:
            den //= g
            cs = [c // g for c in cs]
    p = object.__new__(Poly)
    p.field, p.num, p.den = field, tuple(cs), den
    return p


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd: over Q `_zgcd` of the numerators, made monic; over Q(t)
    and number fields the Euclidean algorithm."""
    if a.den and a and b:
        g = _zgcd(a.num, b.num)
        return _poly(QQ, g, g[-1])
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def squarefree_part(p: Poly) -> Poly:
    """Yun's first quotient p / gcd(p, p'), monic: the roots of p, each
    once.  Rejects the zero polynomial."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    return p.monic() // poly_gcd(p, p.derivative())


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: returns [(f_1, 1), (f_2, 2), ...] with the f_i
    squarefree, pairwise coprime, monic, and p ~ prod f_i^i.  Requires
    characteristic zero (true for every field here).  Its step on (b, d)
    = (p, p') gives gcd(p, p') and the first quotient, no factor."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    b, factors, i = p.monic(), [], 0
    d = b.derivative()
    while b.degree > 0:
        f = poly_gcd(b, d)
        if i and f.degree > 0:
            factors.append((f, i))
        b, c = b // f, d // f
        d, i = c - b.derivative(), i + 1
    return factors


# ---------------------------------------------------------------------------
# field scalars beyond Q
# ---------------------------------------------------------------------------

class Scalar:
    """The operators a scalar derives from its own `+`, negation, `*` and
    `_inverse` (as CPython's `fractions` derives its reflected ones): `-`,
    `/`, their reflections, powers, `bool` and `repr`.  An operand that
    `self.field.promote` refuses gives NotImplemented, so TypeError."""

    __slots__ = ()

    def __bool__(self):
        return not self.is_zero()

    def __sub__(self, other):
        o = self.field.promote(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        o = self.field.promote(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self.field.promote(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self._inverse() ** (-n)
        return self._power(n)

    def _power(self, n: int):
        return binary_power(self, n, self.field.one)

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


# ---------------------------------------------------------------------------
# rational functions in t
# ---------------------------------------------------------------------------

def _zmul(A: tuple, B: tuple, zero=0) -> tuple:
    """A*B, for integer polynomials: int tuples, low degree first, no
    trailing zeros; or for tuples of the scalars of a field whose zero is
    `zero`."""
    if len(A) < len(B):
        A, B = B, A
    if len(B) <= 1:
        return () if not B else A if B[0] == 1 else tuple([x * B[0] for x in A])
    out = [zero] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B, i):
                out[j] += x * y
    return tuple(out)


def _zcomb(A: tuple, x: int, B: tuple, y: int) -> tuple:
    """A*x + B*y for ints x and y; a factor 1 multiplies nothing, so A and B
    may hold the scalars of any field."""
    if len(A) < len(B):
        A, x, B, y = B, y, A, x
    out = list(A) if x == 1 else [a * x for a in A]
    for i, b in enumerate(B if y == 1 else [b * y for b in B]):
        out[i] += b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zprim(A: tuple) -> tuple:
    """The primitive part of a nonzero A, with a positive leading coefficient."""
    g = gcd(*A) if A[-1] > 0 else -gcd(*A)
    return A if g == 1 else tuple([x // g for x in A])


def _zdiv(A: tuple, B: tuple, exact: bool = True):
    """(quotient Q, remainder R) of A by B over Z: exact when B divides A;
    else the pseudo-division (Knuth, TAOCP vol. 2, 4.6.1), the exact
    division of lead(B)^k * A for k = len(Q) = max(deg A - deg B + 1, 0),
    so lead(B)^k A = Q B + R with deg R < deg B."""
    R, n, lead = list(A), len(B) - 1, B[-1]
    out = [0] * max(len(A) - n, 0)
    if not exact and out and lead != 1:
        f = lead ** len(out)
        R = [x * f for x in R]
    for i in range(len(out) - 1, -1, -1):
        q = out[i] = R[i + n] // lead
        for j, y in enumerate(B, i):
            R[j] -= q * y
    while R and not R[-1]:
        R.pop()
    return tuple(out), tuple(R)


def _zgcd(A: tuple, B: tuple) -> tuple:
    """The primitive gcd, leading coefficient positive, of nonzero A and B:
    Euclid on primitive pseudo-remainders."""
    A, B = _zprim(A), _zprim(B)
    if len(A) < len(B):
        A, B = B, A
    while len(B) > 1:
        R = _zdiv(A, B, False)[1]
        if not R:
            return B
        A, B = B, _zprim(R)
    return (1,)


def _zeval(A: tuple, r: int, s: int):
    """(s^(len A - 1) * A(r/s), s^len A) by homogeneous Horner."""
    acc, power = 0, 1
    for c in reversed(A):
        acc, power = acc * r + c * power, power * s
    return acc, power


def _canonical(N: tuple, n: int, D: tuple) -> "RatFunc":
    """The scalar with numerator N/n and denominator D made monic, for int
    polynomials N and D != 0 coprime over Q and an int n != 0."""
    if not N:
        n, D = 1, (1,)
    g = gcd(n, *N) if n > 0 else -gcd(n, *N)
    out = RatFunc.__new__(RatFunc)
    out.P, out.p, out.Q = N if g == 1 else tuple([x // g for x in N]), n // g, _zprim(D)
    return out


def _lift(f) -> "RatFunc":
    """A Poly over Q, or a Q-coefficient read by `Poly(QQ, ...)`, in Q(t)."""
    f = f if isinstance(f, Poly) else Poly(QQ, (f,))
    return _canonical(f.num, f.den, (1,))


class RatFunc(Scalar):
    """Element of Q(t) on integer polynomials: the reduced numerator P/p,
    with gcd(content P, p) = 1 and p > 0, over the monic denominator Q/c,
    with Q primitive and c its leading coefficient > 0; zero is ((), 1,
    (1,)).  So structural equality is semantic equality.

    Every result comes from one normalizer, `_canonical`, and a gcd runs
    only where a common factor can exist; it is primitive and divides
    exactly over Z (Gauss's lemma).  `RatFunc(num, den)` takes gcd(num,
    den) unless one is constant.  For reduced a/b and c/d, a product
    cancels across, gcd(a, d) and gcd(c, b), each skipped when one side is
    constant; a quotient is the product with d/c; a sum takes g = gcd(b, d)
    unless b or d is constant and, when g != 1, gcd(a*(d/g) + c*(b/g), g)
    (Henrici; Knuth, TAOCP vol. 2, 4.5.1); powers and negation take none.
    Each result is already reduced.  `num` and `den` are `Poly` views over
    Q, built on each read, for printing.  A constant hashes as the
    `Fraction` it equals.  A bare `Poly` is not a scalar: `RatFunc(p)`
    lifts it."""

    __slots__ = ("P", "p", "Q")

    def __init__(self, num, den=None):
        x = num if isinstance(num, RatFunc) else _lift(num)
        if den is not None:
            y = den if isinstance(den, RatFunc) else _lift(den)
            if not y.P:
                raise ZeroDivisionError("rational function with zero denominator")
            x = x * y._inverse()
        self.P, self.p, self.Q = x.P, x.p, x.Q

    @classmethod
    def t(cls):
        return _canonical((0, 1), 1, (1,))

    @property
    def num(self) -> Poly:
        return _poly(QQ, self.P, self.p)

    @property
    def den(self) -> Poly:
        return _poly(QQ, self.Q, self.Q[-1])

    def is_zero(self) -> bool:
        return not self.P

    def __eq__(self, other):
        o = QT.promote(other)
        if o is None:
            return NotImplemented
        return self.P == o.P and self.p == o.p and self.Q == o.Q

    def __hash__(self):
        if len(self.Q) == 1 and len(self.P) <= 1:
            return hash(Fraction(self.P[0] if self.P else 0, self.p))
        return hash((self.P, self.p, self.Q))

    def __neg__(self):
        return _canonical(tuple([-x for x in self.P]), self.p, self.Q)

    def __add__(self, other):
        o = QT.promote(other)
        if o is None:
            return NotImplemented
        a, p, b, c, q, d = self.P, self.p, self.Q, o.P, o.p, o.Q
        if len(b) == 1 and len(d) == 1:
            return _canonical(_zcomb(a, q, c, p), p * q, b)
        g = _zgcd(b, d) if len(b) > 1 and len(d) > 1 else (1,)
        b1, d1 = (_zdiv(b, g)[0], _zdiv(d, g)[0]) if len(g) > 1 else (b, d)
        e, f = b1[-1], d1[-1]
        s = _zcomb(_zmul(a, d1), q * e, _zmul(c, b1), p * f)
        if len(g) > 1 and len(s) > 1:
            h = _zgcd(s, g)
            if len(h) > 1:
                s, d = _zmul(_zdiv(s, h)[0], (h[-1],)), _zdiv(d, h)[0]
        return _canonical(s, p * q * e * f, _zmul(b1, d))

    __radd__ = __add__

    def __mul__(self, other):
        o = QT.promote(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.P, self.Q, o.P, o.Q
        k = 1  # a/g over d/g monic carries lead(g) into the numerator
        if len(a) > 1 and len(d) > 1:
            g = _zgcd(a, d)
            if len(g) > 1:
                a, d, k = _zdiv(a, g)[0], _zdiv(d, g)[0], g[-1]
        if len(c) > 1 and len(b) > 1:
            g = _zgcd(c, b)
            if len(g) > 1:
                c, b, k = _zdiv(c, g)[0], _zdiv(b, g)[0], k * g[-1]
        return _canonical(_zmul(_zmul(a, c), (k,)), self.p * o.p, _zmul(b, d))

    __rmul__ = __mul__

    def _inverse(self) -> "RatFunc":
        if not self.P:
            raise ZeroDivisionError("division by zero rational function")
        return _canonical(_zmul(self.Q, (self.p,)), self.Q[-1] * self.P[-1], self.P)

    def _power(self, n: int) -> "RatFunc":
        P, Q = (binary_power(A, n, (1,), _zmul) for A in (self.P, self.Q))
        return _canonical(P, self.p ** n, Q)

    def eval(self, a) -> Fraction:
        """Evaluate at t = a (a rational number).  Raises
        ZeroDivisionError when the denominator vanishes at a."""
        P, Q = self.P, self.Q
        if len(Q) == 1 and len(P) <= 1:
            return Fraction(P[0] if P else 0, self.p)
        a = Fraction(a)
        return Fraction(*self._at(a.numerator, a.denominator))

    def _at(self, r: int, s: int):
        """(n, d), ints with n / d the value at t = r/s, homogeneously."""
        hq, sq = _zeval(self.Q, r, s)
        if not hq:
            raise ZeroDivisionError(f"denominator vanishes at t = {Fraction(r, s)}")
        hp, sp = _zeval(self.P, r, s)
        return hp * self.Q[-1] * sq, self.p * hq * sp

    def __str__(self):
        num = format_poly(self.num, "t")
        return num if len(self.Q) == 1 else f"({num})/({format_poly(self.den, 't')})"


class RationalFunctionField(Field):
    """Q(t): rational functions in one variable over Q."""

    kind = "Qt"

    def promote(self, value):
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, (int, Fraction)):
            n, d = value.as_integer_ratio()
            return _canonical((n,) if n else (), d, (1,))
        return None

    def gen(self):
        return RatFunc.t()

    def variable_name(self):
        return "t"


# every Q(t) scalar shares one `field`, a class attribute of RatFunc
QT = RatFunc.field = RationalFunctionField()


def __getattr__(name):  # PEP 562: number fields load on first use
    if name not in ("NFElem", "NumberField"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numberfield
    globals()[name] = value = getattr(numberfield, name)
    return value


def poly_from_json(values, what: str) -> Poly:
    """The polynomial over Q of a JSON coefficient array, low degree first:
    every coefficient array of a document (`num`, `den`, `minpoly`, a
    number-field scalar) holds integers or rational literals as strings
    (`parse_rational`), nothing else."""
    if not isinstance(values, list):
        raise ParseError(f"{what}: coefficients must be an array")
    coeffs = []
    for v in values:
        if isinstance(v, int) and not isinstance(v, bool):
            coeffs.append(Fraction(v))
        elif isinstance(v, str):
            try:
                coeffs.append(parse_rational(v))
            except ParseError as exc:
                raise ParseError(f"{what}: {exc}") from exc
        else:
            raise ParseError(f"{what}: coefficients must be integers or 'a/b' strings")
    return Poly(QQ, coeffs)


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("field descriptor must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "Q":
        return QQ
    if kind == "Qt":
        return QT
    if kind == "NumberField":
        from .numberfield import NumberField
        minpoly = poly_from_json(obj.get("minpoly"), "NumberField minpoly")
        try:
            return NumberField(minpoly.coeffs)
        except ValueError as exc:
            raise ParseError(f"NumberField minpoly: {exc}") from exc
    raise ParseError(f"unknown field type {kind!r}")


# ---------------------------------------------------------------------------
# scalar formatting / parsing
# ---------------------------------------------------------------------------

def format_poly(p: Poly, var: str = "x") -> str:
    """Compact canonical string of a polynomial over Q, highest degree
    first: "t^2-1", "1/2*t+3", "-t", "0"."""
    if p.is_zero():
        return "0"
    pieces = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if not c:
            continue
        mag = str(abs(c))
        xpow = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        body = mag if not xpow else xpow if mag == "1" else f"{mag}*{xpow}"
        pieces.append(("-" if c < 0 else "+" if pieces else "") + body)
    return "".join(pieces)


_TOKEN_CHARS = set("0123456789")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch in _TOKEN_CHARS:
            j = i
            while j < n and text[j] in _TOKEN_CHARS:
                j += 1
            try:
                tokens.append(int(text[i:j]))
            except ValueError as exc:
                raise ParseError(_beyond_digits(f"scalar {_excerpt(text)}")) from exc
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in scalar {_excerpt(text)}")
    return tokens


# Bounds of the scalar parser: nesting counts parentheses and unary signs; the
# exponent bound caps the product of stacked exponents, as in (t^k)^m or t^k^m;
# the bit bound caps each numerator and denominator of a value's coefficients.
MAX_SCALAR_NESTING = 100
MAX_SCALAR_EXPONENT = 1000
MAX_SCALAR_BITS = 16384

_DIGITS = r"\d+(?:_\d+)*"
# a decimal literal with an exponent, as `Fraction` reads it
_EXPONENT_FORM = re.compile(rf"\s*[-+]?(?=\d|\.\d)({_DIGITS})?(?:\.({_DIGITS})?)?"
                            rf"[eE]([-+]?{_DIGITS})\s*")


def parse_rational(text: str) -> Fraction:
    """A rational literal as `Fraction` reads it ("-3/5", "0.001",
    "1e-5"), refused when its numerator or denominator has more than
    MAX_SCALAR_BITS bits.  An exponent form is sized before 10^k is
    formed: with m its digits up to the last nonzero one, the literal is
    m * 10^k, whose numerator (k > 0) or denominator (k < 0, as m is prime
    to 2 or to 5) has at least |k| + 1 bits.  A digit string longer than
    Python converts names that limit."""
    match = _EXPONENT_FORM.fullmatch(text)
    if match:
        whole, frac, exp = [(g or "").replace("_", "") for g in match.groups()]
        m = (whole + frac).rstrip("0")
        if not m:
            return Fraction(0)
        if len(exp.lstrip("+-0")) > 18 or abs(int(exp) + len(whole) - len(m)) >= MAX_SCALAR_BITS:
            raise ParseError(_beyond_bits(text))
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if max(map(len, re.findall(r"\d+", text)), default=0) > limit > 0:
            raise ParseError(_beyond_digits("a rational")
                             + "; use exponent form, e.g. 1e-4000") from exc
        raise ParseError(f"bad rational number {_excerpt(text)}") from exc
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_SCALAR_BITS:
        raise ParseError(_beyond_bits(text))
    return value


def _beyond_digits(where: str) -> str:
    return (f"integer of more than {sys.get_int_max_str_digits()} digits (Python's "
            f"int-conversion limit) in {where}")


def _excerpt(text: str) -> str:
    """text quoted for a diagnostic: its first 64 characters and its length when longer."""
    return repr(text) if len(text) <= 64 else f"{text[:64]!r}… ({len(text)} characters)"


def _beyond_bits(text: str) -> str:
    return (f"rational {_excerpt(text)} has a numerator or denominator beyond "
            f"{MAX_SCALAR_BITS} bits (MAX_SCALAR_BITS)")


def parse_scalar_expression(text: str, field: Field):
    """Parse expressions like "-3/5", "(t^2-1)/(t+2)" or "a^2-1/2*a"
    into a scalar of `field`.  The only admissible variable is the
    field's own generator symbol.  Input beyond the bounds above raises."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty scalar")
    pos = depth = 0
    groups = [1]  # per open parenthesis: the largest power stacked inside
    var = field.variable_name()

    def bounded(node, expo=1):
        """node, unless its largest coefficient bit length times expo (checked
        before node**expo is formed) passes MAX_SCALAR_BITS."""
        r = getattr(node, "rep", node)  # a residue mod m reads as its Q(t) representative
        if isinstance(r, RatFunc):  # num's and den's coefficients, as Fractions reduce them
            pairs = [(c, r.p) for c in r.P] + [(c, r.Q[-1]) for c in r.Q]
        else:
            pairs = [r.as_integer_ratio()]
        if expo * max(max((a // g).bit_length(), (b // g).bit_length())
                      for a, b in pairs for g in (gcd(a, b),)) > MAX_SCALAR_BITS:
            raise ParseError(f"scalar coefficient beyond {MAX_SCALAR_BITS} bits "
                             f"(MAX_SCALAR_BITS) in {_excerpt(text)}")
        return node

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = bounded(node + rhs if op == "+" else node - rhs)
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            try:
                node = bounded(node * rhs if op == "*" else node / rhs)
            except ZeroDivisionError as exc:
                raise ParseError(f"division by zero in {_excerpt(text)}") from exc
        return node

    def parse_factor():
        nonlocal depth
        depth += 1
        if depth > MAX_SCALAR_NESTING:
            raise ParseError(f"scalar nested deeper than {MAX_SCALAR_NESTING} levels")
        power = 1
        if peek() in ("-", "+"):
            node = -parse_factor() if take() == "-" else parse_factor()
        elif peek() == "(":
            take()
            groups.append(1)
            node = parse_expr()
            power = groups.pop()
            if peek() != ")":
                raise ParseError(f"unbalanced parentheses in {_excerpt(text)}")
            take()
        else:
            node = parse_atom()
        while peek() == "^":
            take()
            expo = peek()
            if not isinstance(expo, int):
                raise ParseError(f"exponent must be an integer in {_excerpt(text)}")
            take()
            power *= expo
            if power > MAX_SCALAR_EXPONENT:
                raise ParseError(f"power beyond x^{MAX_SCALAR_EXPONENT} in {_excerpt(text)}")
            node = bounded(bounded(node, expo) ** expo)
        groups[-1] = max(groups[-1], power)
        depth -= 1
        return node

    def parse_atom():
        tok = peek()
        if isinstance(tok, int):
            take()
            return field.coerce(tok)
        if isinstance(tok, str) and tok not in "+-*/^()":
            take()
            if var is not None and tok == var:
                return field.gen()
            raise ParseError(f"unknown symbol {_excerpt(tok)} in scalar {_excerpt(text)}")
        raise ParseError(f"unexpected token {tok!r} in scalar {_excerpt(text)}")

    value = parse_expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input in scalar {_excerpt(text)}")
    return field.coerce(value)
