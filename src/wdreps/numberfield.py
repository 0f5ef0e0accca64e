"""Number fields Q[a]/(m(a)) and their scalars, on `fields`' integer polynomial
kernel: loaded on first use, by `fields.field_from_json` for a document that
names one and by `fields`' module `__getattr__`, which resolves both names."""

from fractions import Fraction

from .fields import (Field, Poly, QQ, QT, RatFunc, Scalar, _canonical, _lift, _poly, _zdiv,
                     format_poly, poly_gcd)


class NFElem(Scalar):
    """Residue of a Q-polynomial in `a` modulo the monic minimal polynomial
    m, stored as its representative `rep` of degree < deg m in Q[t] ⊂ Q(t)
    (a `RatFunc` with denominator 1): `+`, `-`, `*`, equality and the hash
    are those of Q(t) on integers, a product reduced by one exact division
    by m over Z.  The inverse is column 0 of `Matrix.inverse` of the
    regular matrix (x -> R(x) is an injective ring homomorphism), both on
    ints over one denominator.
    `NFElem(field, coeffs)` reads each coefficient with `Fraction`;
    `coeffs` is the padded Fraction view."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "NumberField", coeffs):
        self.field = field
        self.rep = _residue(field, _lift(_poly(QQ, [Fraction(c) for c in coeffs]))).rep

    @property
    def coeffs(self) -> tuple:
        P, p = self.rep.P, self.rep.p
        return tuple([Fraction(c, p) for c in P] + [Fraction(0)] * (self.field.degree - len(P)))

    def is_zero(self) -> bool:
        return not self.rep.P

    def __eq__(self, other):
        o = self.field.promote(other)
        if o is None:
            return NotImplemented
        return self.rep == o.rep

    def __hash__(self):
        return hash(self.rep)

    def __neg__(self):
        return _residue(self.field, -self.rep)

    def __add__(self, other):
        o = self.field.promote(other)
        if o is None:
            return NotImplemented
        return _residue(self.field, self.rep + o.rep)

    __radd__ = __add__

    def __mul__(self, other):
        o = self.field.promote(other)
        if o is None:
            return NotImplemented
        return _residue(self.field, self.rep * o.rep)

    __rmul__ = __mul__

    def _inverse(self) -> "NFElem":
        from .linalg import SingularMatrixError
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        try:
            inverse = self._regular().inverse()
        except SingularMatrixError:  # m squarefree but reducible: a zero divisor
            raise ZeroDivisionError(
                f"zero divisor in Q[a]/({format_poly(self.field.minpoly, 'a')})") from None
        return _residue(self.field, _lift(_poly(QQ, [row[0] for row in inverse.num], inverse.den)))

    def _regular(self):
        """The regular matrix over Q, on ints over the representative's
        denominator: column j + 1 is a times column j, reduced by the monic m."""
        from .linalg import _make
        col, cols = list(self.rep.P) + [0] * (self.field.degree - len(self.rep.P)), []
        for _ in range(self.field.degree):
            cols.append(col)
            col = [c - col[-1] * k for c, k in zip([0] + col[:-1], self.field.m)]
        return _make(QQ, tuple(zip(*cols)), self.field.degree, self.rep.p)

    def regular_matrix(self):
        """Multiplication-by-self matrix on the Q-basis 1, a, ..., a^(m-1),
        as a list of rows of Fractions (column j = self * a^j)."""
        return [list(row) for row in self._regular().rows]

    def __str__(self):
        return format_poly(self.rep.num, "a")


def _residue(field: "NumberField", r: RatFunc) -> NFElem:
    """The residue of r, a polynomial of Q(t), mod the monic m: one exact
    division of its integer numerator by m over Z when deg r >= deg m."""
    if len(r.P) > field.degree:
        r = _canonical(_zdiv(r.P, field.m)[1], r.p, (1,))
    x = NFElem.__new__(NFElem)
    x.field, x.rep = field, r
    return x


class NumberField(Field):
    """Q[a]/(m(a)) for a monic squarefree integer polynomial m, deg >= 2:
    `minpoly` over Q, and `m`, its int coefficients, which reduce products.

    Squarefree (rather than irreducible) is the validity requirement, so
    this may be an etale algebra; division then raises on zero divisors.
    """

    kind = "NumberField"

    def __init__(self, minpoly_coeffs):
        m = Poly(QQ, [Fraction(c) for c in minpoly_coeffs])
        if m.degree < 2:
            raise ValueError("number field minimal polynomial must have degree >= 2")
        if not m.is_monic():
            raise ValueError("number field minimal polynomial must be monic")
        if m.den != 1:
            raise ValueError("number field minimal polynomial must have integer coefficients")
        if poly_gcd(m, m.derivative()).degree != 0:
            raise ValueError("number field minimal polynomial must be squarefree")
        self.minpoly, self.m, self.degree = m, m.num, m.degree
        super().__init__()

    def promote(self, value):
        if isinstance(value, NFElem):
            return value if value.field == self else None
        if isinstance(value, (int, Fraction)):
            return _residue(self, QT.promote(value))
        return None

    def gen(self):
        return _residue(self, RatFunc.t())

    def variable_name(self):
        return "a"

    def to_json(self):
        return {"type": "NumberField", "minpoly": list(self.m)}

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.m == other.m

    def __hash__(self):
        return hash(("NumberField", self.m))

    def __repr__(self):
        return f"NumberField({format_poly(self.minpoly, 'a')})"
