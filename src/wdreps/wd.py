"""Weil-Deligne representation data and its calculus: validation, the
special (Steinberg-type) construction, tensor/direct sum, the functor
induced by a partition, Frobenius-semisimplification, the monodromy
filtration, purity certification and decomposition signatures.

Twist convention, fixed here and used consistently: block i of the
special representation carries phi * q^(-i) (geometric Frobenius; the
twist lowers eigenvalues), so Sp_t of the trivial character is pure of
weight -(t-1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .fields import DEFAULT_EPS, MIN_EPS, CertificationFailed, Poly, QT, Record
from .linalg import (Matrix, _blocks, block_diagonal, charpoly, column_echelon,
                     kernel_basis, mult_jordan_chevalley, pivot_rows, scalar_restriction)

INERTIA_CLOSURE_CAP = 64


class NonIntegralWeight(ArithmeticError):
    """Weight inference produced a non-integral or inconsistent weight."""


class WDRep(Record):
    """A Weil-Deligne representation over an exact coefficient field:
    residue cardinality q, invertible Frobenius matrix phi, nilpotent
    monodromy nilp, and a finite list of labeled inertia generators."""

    q: int
    field: Field
    phi: Matrix
    nilp: Matrix
    inertia: tuple[tuple[str, Matrix], ...] = ()

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError("q must be an integer >= 2")
        if not self.phi.is_square() or not self.nilp.is_square():
            raise ValueError("phi and nilp must be square")
        if self.phi.nrows != self.nilp.nrows:
            raise ValueError("phi and nilp must have equal size")
        if self.phi.field != self.field or self.nilp.field != self.field:
            raise ValueError("matrix fields must match the declared field")
        object.__setattr__(self, "inertia", tuple(self.inertia))
        for label, g in self.inertia:
            if not isinstance(label, str) or not label:
                raise ValueError("inertia labels must be nonempty strings")
            if [other for other, _ in self.inertia].count(label) > 1:  # one trace per label
                raise ValueError(f"inertia label {label!r} is repeated")
            if not g.is_square() or g.nrows != self.phi.nrows or g.field != self.field:
                raise ValueError(f"inertia {label!r} has wrong shape or field")

    @property
    def dim(self) -> int:
        return self.phi.nrows


def inertia_closure(generators, field: Field, dim: int, cap: int = INERTIA_CLOSURE_CAP):
    """BFS enumeration of the group generated by the labeled inertia
    matrices, walking the list it returns as the list grows: (word, matrix)
    in deterministic BFS order (identity first, generators in label order);
    None if the closure exceeds the cap.  A closure within the cap contains
    g, g^2, ... for each generator g, so it also bounds every generator's order."""
    eye = Matrix.identity(field, dim)
    seen = {eye}
    order = [("", eye)]
    gens = sorted(generators, key=lambda item: item[0])
    for word, current in order:
        for label, g in gens:
            nxt = current * g
            if nxt in seen:
                continue
            if len(seen) + 1 > cap:
                return None
            seen.add(nxt)
            order.append((f"{word}*{label}" if word else label, nxt))
    return order


def wd_validate(rho: WDRep):
    """Check every invariant; returns None when valid, otherwise a
    description of the first violated invariant.

    A WDRep is immutable, so the verdict is computed once and kept on the
    object itself (outside its record fields: equality, hash and repr
    do not see it)."""
    if "_verdict" not in rho.__dict__:
        object.__setattr__(rho, "_verdict", _check_invariants(rho))
    return rho._verdict


def _check_invariants(rho: WDRep):
    """One charpoly per matrix, kept on it: phi is invertible when det is a
    unit, so the relations are multiplied out by phi, and nilp^n = 0 exactly
    when charpoly(nilp) = x^n (Cayley-Hamilton; each ring here is reduced)."""
    n, phi = rho.dim, rho.phi
    try:
        rho.field.one / phi.det()
    except ZeroDivisionError:
        return "phi is singular"
    if any(charpoly(rho.nilp).num[:-1]):
        return f"nilp is not nilpotent (nilp^{n} != 0)"
    qinv = rho.field.coerce(Fraction(1, rho.q))
    if phi * rho.nilp != rho.nilp * qinv * phi:
        return f"conjugation relation phi*nilp*phi^-1 = (1/{rho.q})*nilp violated"
    for idx, (label, g) in enumerate(rho.inertia):
        if g * rho.nilp != rho.nilp * g:
            return f"inertia[{idx}] {label!r} does not commute with nilp"
    for idx, (label, g) in enumerate(rho.inertia):
        # a g of finite order has roots of unity as eigenvalues, so over
        # Q(t) its charpoly is constant in t; otherwise its powers only grow
        # in degree, and the closure is refused before any is formed
        if rho.field == QT and any(len(c.P) > 1 or len(c.Q) > 1 for c in charpoly(g).num):
            return f"inertia[{idx}] {label!r}: order exceeds bound {INERTIA_CLOSURE_CAP}"
    closure = inertia_closure(rho.inertia, rho.field, n)
    if closure is None:
        return f"inertia closure exceeds cap {INERTIA_CLOSURE_CAP}"
    # phi g phi^-1 = h exactly when phi g = h phi
    shifted = {h * phi for _, h in closure}
    for idx, (label, g) in enumerate(rho.inertia):
        if phi * g not in shifted:
            return f"Frobenius does not normalize inertia (conjugate of [{idx}] {label!r} leaves the closure)"
    return None


def _require_valid(rho: WDRep, context: str | None = None) -> WDRep:
    """rho itself when valid; otherwise a ValueError naming the violated
    invariant and, for a constructed object, the constructor."""
    message = wd_validate(rho)
    if message is not None:
        prefix = f"{context} produced an " if context else ""
        raise ValueError(f"{prefix}invalid representation: {message}")
    return rho


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def sp_construct(t: int, r: WDRep) -> WDRep:
    """The special representation on r^(+t): block i carries
    phi_r * q^(-i), inertia acts diagonally untwisted, and the monodromy
    maps block i identically onto block i+1."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    if not r.nilp.is_zero():
        raise ValueError("sp_construct needs a representation with zero monodromy")
    field, n0, eye = r.field, r.dim, Matrix.identity(r.field, r.dim)
    phi = block_diagonal(field, [r.phi * field.coerce(Fraction(1, r.q) ** i) for i in range(t)])
    # identity blocks on the block subdiagonal: (i, j) is 1 exactly when i = j + n0
    nilp = _blocks(field, [(n0, [])] + [(n0, [(i * n0, eye)]) for i in range(t - 1)], t * n0)
    inertia = tuple((label, block_diagonal(field, [g] * t)) for label, g in r.inertia)
    return _require_valid(WDRep(r.q, field, phi, nilp, inertia), "sp_construct")


def _merge_inertia(a: WDRep, b: WDRep, combine):
    labels = sorted({label for label, _ in a.inertia} | {label for label, _ in b.inertia})
    da = dict(a.inertia)
    db = dict(b.inertia)
    ia = Matrix.identity(a.field, a.dim)
    ib = Matrix.identity(b.field, b.dim)
    return tuple((label, combine(da.get(label, ia), db.get(label, ib))) for label in labels)


def wd_tensor(a: WDRep, b: WDRep) -> WDRep:
    """Tensor product: Frobenius acts by the Kronecker product and the
    monodromy by the derivation rule 1 x N + N x 1."""
    if a.q != b.q:
        raise ValueError("tensor factors must share q")
    if a.field != b.field:
        raise ValueError("tensor factors must share the coefficient field")
    eye_a = Matrix.identity(a.field, a.dim)
    eye_b = Matrix.identity(b.field, b.dim)
    phi = a.phi.kron(b.phi)
    nilp = a.nilp.kron(eye_b) + eye_a.kron(b.nilp)
    inertia = _merge_inertia(a, b, lambda ga, gb: ga.kron(gb))
    return _require_valid(WDRep(a.q, a.field, phi, nilp, inertia), "wd_tensor")


def wd_direct_sum(a: WDRep, b: WDRep) -> WDRep:
    if a.q != b.q:
        raise ValueError("direct summands must share q")
    if a.field != b.field:
        raise ValueError("direct summands must share the coefficient field")
    phi = block_diagonal(a.field, [a.phi, b.phi])
    nilp = block_diagonal(a.field, [a.nilp, b.nilp])
    inertia = _merge_inertia(a, b, lambda ga, gb: block_diagonal(a.field, [ga, gb]))
    return _require_valid(WDRep(a.q, a.field, phi, nilp, inertia), "wd_direct_sum")


def wd_schur(rho: WDRep, mu: Partition) -> WDRep:
    """Apply the partition functor: Frobenius and inertia through the
    matrix functor, monodromy through the derivation.  A zero-dimensional
    result (too many rows for the dimension) is legal.

    The input is validated (once per object; an invalid one raises
    ValueError) and the image inherits its verdict without a check of its
    own, because S_mu is a functor and N acts through its derivation dN,
    which is linear in N and satisfies S_mu(g) dN S_mu(g)^-1 = d(g N g^-1):
    - S_mu(phi) is invertible, with inverse S_mu(phi^-1);
    - dN is nilpotent (on the d-th tensor power it is a sum of d commuting
      nilpotents);
    - S_mu(phi) dN S_mu(phi)^-1 = d(q^-1 N) = q^-1 dN;
    - each S_mu(g) commutes with dN, since g N g^-1 = N;
    - the image inertia group is a quotient of the input group, so its
      closure stays under the cap, and S_mu(phi) S_mu(g) S_mu(phi)^-1 =
      S_mu(phi g phi^-1) keeps Frobenius normalizing it.
    The image also keeps its input and mu, for `_semisimple_part`."""
    from .schur import schur_derivation, schur_of_matrix
    _require_valid(rho)
    phi = schur_of_matrix(rho.phi, mu)
    nilp = schur_derivation(rho.nilp, mu)
    inertia = tuple((label, schur_of_matrix(g, mu)) for label, g in rho.inertia)
    image = WDRep(rho.q, rho.field, phi, nilp, inertia)
    object.__setattr__(image, "_verdict", None)
    object.__setattr__(image, "_schur_of", (rho, mu))
    return image


def _semisimple_part(rho: WDRep) -> Matrix:
    """The semisimple Jordan-Chevalley factor S of rho.phi.

    For a Schur image it is S_mu of the input's factor S_in, and the image's
    own phi when the input is semisimple (S_in is its phi): S_mu acts on one
    fixed basis, so it is multiplicative, S_mu(S_in) is semisimple and
    S_mu(U_in) unipotent (characteristic 0), the two commute, and the
    decomposition is unique [Borel, Linear Algebraic Groups, I.4.4].  So
    Jordan-Chevalley runs on the input, never on the larger image.  A
    representation that `frobenius_semisimplify` returns carries its phi as
    its own factor."""
    if "_semisimple" in rho.__dict__:
        return rho._semisimple
    if "_schur_of" not in rho.__dict__:
        return mult_jordan_chevalley(rho.phi)[0]
    source, mu = rho._schur_of
    S = _semisimple_part(source)
    from .schur import schur_of_matrix
    return rho.phi if S is source.phi else schur_of_matrix(S, mu)


def frobenius_semisimplify(rho: WDRep) -> WDRep:
    """Replace phi by its semisimple Jordan-Chevalley factor (see
    `_semisimple_part`); the monodromy and inertia are untouched.
    Idempotent, trace-preserving, and the conjugation relation survives
    because the semisimple part acts on the relevant eigenspace by the same
    scalar.  The result is marked as its own semisimple part, so neither
    it nor its signature is decomposed again."""
    S = _semisimple_part(rho)
    out = WDRep(rho.q, rho.field, S, rho.nilp, rho.inertia)
    object.__setattr__(out, "_semisimple", S)
    return _require_valid(out, "frobenius_semisimplify")


# ---------------------------------------------------------------------------
# monodromy filtration
# ---------------------------------------------------------------------------

class Filtration(Record):
    """Increasing filtration M_k, stored as canonical bases per index;
    keys run from one below the lowest jump (the zero subspace) to the
    top weight (the full space)."""

    steps: dict[int, Matrix]

    def indices(self):
        return sorted(self.steps)

    def step(self, k: int) -> Matrix:
        keys = self.indices()  # consecutive integers
        return self.steps[min(max(k, keys[0]), keys[-1])]


class _LineFlag:
    """The flag of one line of nilpotent matrices (N up to a nonzero
    scalar), from its representative N: the powers N^0, ..., N^e and the
    canonical bases of their kernels (e the nilpotency index, N^e = 0 !=
    N^(e-1)), and, each built on first reading, the signature layers and
    the monodromy filtration steps.  For c != 0, ker (cN)^k = ker N^k and
    (cN)^k * K, cN * M span what N^k * K, N * M span, so every multiple
    has these canonical bases.
    Raises ValueError when N is not square or N^n != 0 (n = size)."""

    def __init__(self, N: Matrix):
        if not N.is_square():
            raise ValueError("a nilpotent flag needs a square matrix")
        powers = [Matrix.identity(N.field, N.nrows)]
        while not powers[-1].is_zero():
            if len(powers) > N.nrows:
                raise ValueError(f"matrix is not nilpotent (N^{N.nrows} != 0)")
            powers.append(powers[-1] * N)
        self.N, self.powers, self.kernels = N, tuple(powers), tuple(map(kernel_basis, powers))

    @cached_property
    def layers(self) -> tuple[Matrix, ...]:
        """layers[k] = ker N & im N^k = N^k * ker N^(k+1); layers[e] = 0."""
        powers, kernels = self.powers, self.kernels
        layers = [column_echelon(powers[k] * kernels[k + 1]) for k in range(len(powers) - 1)]
        return (*layers, Matrix.zeros(self.N.field, self.N.nrows, 0))

    @cached_property
    def steps(self) -> dict[int, Matrix]:
        """The filtration steps, built downward from M_(e-1) = V as
        M_k = ker N^(k+1) + N * M_(k+2)."""
        N, kernels = self.N, self.kernels
        e = len(kernels) - 1
        if e == 0:
            empty = Matrix.zeros(N.field, 0, 0)
            return {-1: empty, 0: empty}
        steps = {e - 1: kernels[e]}
        for k in range(e - 2, -e - 1, -1):
            pushed = N * steps.get(k + 2, kernels[e])
            steps[k] = column_echelon(kernels[max(k + 1, 0)].hstack(pushed))
        return steps


# the flag of a line, memoized: a scan meets one line of N at many points
_line_flag = lru_cache(maxsize=32)(_LineFlag)


def _line(N: Matrix) -> Matrix:
    """The representative of N's line (N up to a nonzero scalar): over Q
    the primitive integer multiple of N with a positive first nonzero
    entry, elsewhere N itself (its entries are canonical)."""
    if N.den is not None:
        entries = [x for row in N.num for x in row if x]
        if entries:
            c = Fraction(N.den, gcd(*entries) * (1 if entries[0] > 0 else -1))
            return N if c == 1 else N * c
    return N


def monodromy_filtration(N: Matrix) -> Filtration:
    """The unique increasing filtration with N*M_k inside M_(k-2) and
    N^k inducing isomorphisms gr_k = gr_(-k) [Deligne, Weil II, 1.6].

    It is M_k = sum_j N^j * ker N^(k+1+2j); keys run from -e (the zero
    subspace) to e-1 (e the nilpotency index).  The steps are built once
    per line of N (`_line_flag` of `_line`); each call returns its own
    Filtration over a copy of them."""
    return Filtration(dict(_line_flag(_line(N)).steps))


def _quotient_actions(flag, operators):
    """For each (key, sub, big) of `flag`, canonical bases with span(sub)
    inside span(big), both stable under every operator, and a nonzero
    quotient: key and the matrices of `operators` on span(big)/span(sub),
    in a basis fixed only up to similarity (callers read nothing but
    charpoly, trace and size).  No elimination: a canonical basis is the
    identity on its pivot rows, and each pivot row of sub is one of big.
    So the columns of big whose pivot rows P are not pivot rows of sub span
    a complement, y in span(big) has coordinates (y - sub * y[sub rows])[P]
    modulo span(sub), and each action is Y[P] - sub[P] * Y[sub rows], with
    Y = op * (those columns of big): products only.  When P is every row,
    big is the identity and sub is empty, so the actions are the operators
    themselves, and a charpoly kept on one of them is read again."""
    for key, sub, big in flag:
        sub_rows = pivot_rows(sub)
        taken = set(sub_rows)
        chosen = [(j, i) for j, i in enumerate(pivot_rows(big)) if i not in taken]
        if not chosen:
            continue
        if len(chosen) == big.nrows:
            yield key, list(operators)
            continue
        own_rows = [i for _, i in chosen]
        reps = big.select(cols=[j for j, _ in chosen])
        lower = sub.select(rows=own_rows)
        actions = []
        for op in operators:
            Y = op * reps
            actions.append(Y.select(rows=own_rows) - lower * Y.select(rows=sub_rows))
        yield key, actions


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

class SignatureEntry(Record):
    """One special-representation constituent: chain length t and the
    characteristic polynomial of Frobenius on the chain bottoms, plus
    inertia generator traces on the same space when inertia is present."""

    t: int
    charpoly: Poly
    inertia_traces: tuple[tuple[str, object], ...] = ()


def _merge_entries(a: SignatureEntry, b: SignatureEntry) -> SignatureEntry:
    """Combine two constituents of the same chain length: charpolys
    multiply; inertia traces add, a missing label counting as the
    identity (trace = dimension of the other summand's space)."""
    poly = a.charpoly * b.charpoly
    ta, tb = dict(a.inertia_traces), dict(b.inertia_traces)
    labels = sorted(set(ta) | set(tb))
    traces = ()
    if labels:
        field = poly.field
        traces = tuple((label,
                        ta.get(label, field.coerce(a.charpoly.degree)) +
                        tb.get(label, field.coerce(b.charpoly.degree)))
                       for label in labels)
    return SignatureEntry(a.t, poly, traces)


class Signature(Record):
    """Multiset of (t, charpoly) pairs encoding the Frobenius-semisimple
    decomposition into special representations, without eigenvalue
    splitting.

    Canonical form keeps one entry per chain length t (constituents of
    equal t merge by multiplying charpolys and adding traces, so their
    order does not matter), which is exactly what the kernel/image
    quotients produce; a multiset union therefore reduces to this merge."""

    entries: tuple[SignatureEntry, ...]

    def __post_init__(self):
        merged: dict[int, SignatureEntry] = {}
        for entry in self.entries:
            if entry.t in merged:
                merged[entry.t] = _merge_entries(merged[entry.t], entry)
            else:
                merged[entry.t] = entry
        object.__setattr__(self, "entries",
                           tuple(merged[t] for t in sorted(merged)))

    def total_dim(self) -> int:
        return sum(entry.t * entry.charpoly.degree for entry in self.entries)


def frss_signature(rho: WDRep) -> Signature:
    """Signature of the Frobenius-semisimplification: for each k >= 0 the
    space P_k = L_k/L_(k+1), with L_k = ker N & im N^k = N^k * ker N^(k+1),
    with its induced Frobenius gives an entry (t = k+1, charpoly on P_k);
    inertia traces on P_k are appended when inertia is nontrivial.
    Frobenius acts through its semisimple part, which a Schur image takes
    from its input (`_semisimple_part`).  The layers are built once per
    line of N (`_line_flag` of `_line`): a scan whose monodromy is f(a) * N0
    reads them again at every point with f(a) != 0."""
    _require_valid(rho)
    n = rho.dim
    S = _semisimple_part(rho)
    layers = _line_flag(_line(rho.nilp)).layers
    entries = []
    flag = ((k, layers[k + 1], layers[k]) for k in range(len(layers) - 1))
    for k, (action, *inertia) in _quotient_actions(flag, [S] + [g for _, g in rho.inertia]):
        traces = tuple((label, g.trace()) for (label, _), g in zip(rho.inertia, inertia))
        entries.append(SignatureEntry(t=k + 1, charpoly=charpoly(action),
                                      inertia_traces=traces))
    sig = Signature(tuple(entries))
    if sig.total_dim() != n:
        raise AssertionError("signature dimensions do not add up")
    return sig


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

class GradedPurity(Record):
    """Frobenius data on one graded piece of the monodromy filtration
    (after restriction of scalars to Q when over a number field)."""

    k: int
    dim: int
    charpoly: Poly
    intervals: tuple[ModulusInterval, ...]
    matches: tuple[bool, ...]


class PurityReport(Record):
    weight: int | None
    verdict: str  # pure | impure | uncertifiable
    per_graded: tuple[GradedPurity, ...]


@lru_cache(maxsize=4096)
def _matches(iv: ModulusInterval, q: int, j: int):
    """Whether the root enclosed by iv has modulus q^(j/2): False when iv
    misses it, None (undecided) when iv also meets q^((j-1)/2) or
    q^((j+1)/2), True otherwise."""
    a, b = iv.half_power_range(q)
    if not a <= j <= b:
        return False
    return None if a < j or j < b else True


@lru_cache(maxsize=256)
def _certified_matches(p: Poly, eps: Fraction, q: int, j: int):
    """`root_moduli_certified` and `_matches` of each interval, memoized: a scan
    meets each (charpoly, width, q, j) at many points, and equal intervals
    (a conjugate pair's, or one shared by two charpolys) share one decision."""
    from .roots import root_moduli_certified
    intervals = tuple(root_moduli_certified(p, eps))
    return intervals, tuple(_matches(iv, q, j) for iv in intervals)


def purity_check(rho: WDRep, weight="infer", eps=DEFAULT_EPS) -> PurityReport:
    """Certify whether every Frobenius root on graded piece k of the
    monodromy filtration has absolute value q^((w+k)/2) under every
    complex embedding.

    With weight="infer" the candidate w is read off per piece from
    |det| = q^((w+k)*dim/2) and must be a consistent integer.  Interval
    ambiguity escalates by halving eps up to 4 times before raising
    CertificationFailed.  An eps below `MIN_EPS` raises ValueError.
    """
    eps = Fraction(eps)
    if eps < MIN_EPS:
        raise ValueError("eps below 2^-16000 cannot be certified")
    if rho.field == QT:
        raise ValueError("purity is a property of specializations, not of Q(t) families")
    _require_valid(rho)
    filt = monodromy_filtration(rho.nilp)
    flag = ((k, filt.step(k - 1), filt.step(k)) for k in filt.indices())
    pieces = [(k, charpoly(scalar_restriction(action)))
              for k, (action,) in _quotient_actions(flag, [rho.phi])]
    if not pieces:
        w = weight if isinstance(weight, int) else None
        return PurityReport(weight=w, verdict="pure", per_graded=())

    if weight == "infer":
        from .roots import _q_log
        candidates = []
        for k, p in pieces:
            # det^2 = p(0)^2: the charpoly's constant term is (-1)^dim * det
            j, exact = _q_log(p.num[0] ** 2, p.den ** 2, rho.q)
            if not exact:
                raise NonIntegralWeight(
                    f"|det|^2 on graded piece {k} is not a power of q = {rho.q}")
            num = Fraction(j, p.degree) - k
            if num.denominator != 1:
                raise NonIntegralWeight(
                    f"inferred weight {num} on graded piece {k} is not an integer")
            candidates.append(int(num))
        if len(set(candidates)) != 1:
            raise NonIntegralWeight(f"inconsistent inferred weights {sorted(set(candidates))}")
        w = candidates[0]
    elif isinstance(weight, int):
        w = weight
    else:
        raise ValueError("weight must be an integer or 'infer'")

    graded = []
    verdict = "pure"
    for k, p in pieces:
        j = w + k
        for attempt in range(5):
            intervals, matches = _certified_matches(p, eps / 2 ** attempt, rho.q, j)
            if None not in matches:
                break
        else:
            raise CertificationFailed(
                f"graded piece {k}: root enclosures remain ambiguous after escalation")
        if not all(matches):
            verdict = "impure"
        graded.append(GradedPurity(k=k, dim=p.degree, charpoly=p,
                                   intervals=intervals, matches=matches))
    return PurityReport(weight=w, verdict=verdict, per_graded=tuple(graded))
