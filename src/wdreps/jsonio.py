"""JSON schemas and canonical serialization.

Scalars travel as strings ("a/b", "(t^2-1)/(t+2)", "a^2-1"); rational
functions are also accepted as {num, den} coefficient arrays (low degree
first).  Output is canonical: reduced fractions, monic denominators, the bytes
of `json.dumps(..., sort_keys=True, indent=2)` plus a newline, identical for
identical inputs, with each distinct point analysis converted and written once.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .fields import (Field, ParseError, Poly, QQ, QT, RatFunc, _beyond_digits, field_from_json,
                     parse_scalar_expression, poly_from_json)
from .linalg import Matrix
from .wd import Filtration, PurityReport, Signature, WDRep, wd_validate


class ValidationError(ValueError):
    """The document parsed but violates a representation invariant."""


# ---------------------------------------------------------------------------
# scalars and matrices
# ---------------------------------------------------------------------------

def scalar_from_json(value, field: Field, what: str):
    if isinstance(value, bool):
        raise ParseError(f"{what}: booleans are not scalars")
    if isinstance(value, int):
        return field.coerce(value)
    if isinstance(value, str):
        try:
            return parse_scalar_expression(value, field)
        except ParseError as exc:
            raise ParseError(f"{what}: {exc}") from exc
    if isinstance(value, dict) and field == QT:
        if set(value) != {"num", "den"}:
            raise ParseError(f"{what}: rational function objects need exactly num and den")
        num = poly_from_json(value["num"], what)
        den = poly_from_json(value["den"], what)
        if den.is_zero():
            raise ParseError(f"{what}: zero denominator")
        return RatFunc(num, den)
    if isinstance(value, list) and field not in (QQ, QT):  # a number field
        from .numberfield import NFElem
        return NFElem(field, poly_from_json(value, what).coeffs)
    raise ParseError(f"{what}: cannot interpret {value!r} as a scalar of {field!r}")


def matrix_from_json(rows, field: Field, what: str) -> Matrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError(f"{what}: matrix must be an array of row arrays")
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError(f"{what}: ragged matrix rows")
    entries = [[scalar_from_json(v, field, f"{what}[{i}][{j}]")
                for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return Matrix(field, entries)


def matrix_to_json(M: Matrix):
    return [[str(x) for x in row] for row in M.rows]


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

_WDREP_KEYS = {"q", "field", "phi", "nilp", "inertia"}


def wdrep_from_json(obj) -> WDRep:
    if not isinstance(obj, dict):
        raise ParseError("representation document must be a JSON object")
    unknown = set(obj) - _WDREP_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    for key in ("q", "field", "phi", "nilp"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    field = field_from_json(obj["field"])
    phi = matrix_from_json(obj["phi"], field, "phi")
    nilp = matrix_from_json(obj["nilp"], field, "nilp")
    if not isinstance(obj.get("inertia", []), list):
        raise ParseError("inertia must be an array")
    inertia = []
    for i, item in enumerate(obj.get("inertia", [])):
        if not isinstance(item, dict) or set(item) != {"label", "matrix"}:
            raise ParseError(f"inertia[{i}] must be an object with label and matrix")
        label = item["label"]
        if not isinstance(label, str) or not label:
            raise ParseError(f"inertia[{i}]: label must be a nonempty string")
        inertia.append((label, matrix_from_json(item["matrix"], field, f"inertia[{i}]")))
    try:
        rho = WDRep(obj["q"], field, phi, nilp, tuple(inertia))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    message = wd_validate(rho)
    if message is not None:
        raise ValidationError(message)
    return rho


def wdrep_to_json(rho: WDRep) -> dict:
    return {
        "q": rho.q,
        "field": rho.field.to_json(),
        "phi": matrix_to_json(rho.phi),
        "nilp": matrix_to_json(rho.nilp),
        "inertia": [{"label": label, "matrix": matrix_to_json(g)}
                    for label, g in rho.inertia],
    }


def load_wdrep(path: str, raw: bytes | None = None) -> WDRep:
    """The representation in the document at `path`, parsed from `raw` if given."""
    if raw is None:
        with open(path, "rb") as handle:
            raw = handle.read()
    try:
        return wdrep_from_json(json.loads(raw, parse_int=_json_int))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:  # raised by the decoder before it parses
        raise ParseError(f"{path}: byte {exc.start}: not valid {exc.encoding} "
                         f"({exc.reason})") from exc
    except RecursionError as exc:  # raised by the decoder, the one recursive reader
        raise ParseError(f"{path}: arrays or objects nested deeper than Python's recursion "
                         f"limit ({sys.getrecursionlimit()})") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(_beyond_digits("a JSON number")) from exc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def poly_to_json(p: Poly):
    return [str(c) for c in p.coeffs]


def signature_to_json(sig: Signature):
    out = []
    for entry in sig.entries:
        item = {"t": entry.t, "charpoly": poly_to_json(entry.charpoly)}
        if entry.inertia_traces:
            item["inertia_traces"] = {label: str(v) for label, v in entry.inertia_traces}
        out.append(item)
    return out


def _decimal(n: int) -> str:
    """n / 10^15, for an int n >= 0, written with exactly 15 decimals."""
    whole, frac = divmod(n, 10 ** 15)
    return f"{whole}.{frac:015d}"


def interval_to_json(iv: ModulusInterval):
    """The interval (0 <= lo <= hi) widened outward to 15 decimals."""
    lo = iv.lo.numerator * 10 ** 15 // iv.lo.denominator
    hi = -(-iv.hi.numerator * 10 ** 15 // iv.hi.denominator)
    return {"lo": _decimal(lo), "hi": _decimal(hi)}


def purity_report_to_json(report: PurityReport):
    return {
        "weight": report.weight if report.weight is not None else "none",
        "verdict": report.verdict,
        "graded": [{"k": piece.k, "dim": piece.dim, "charpoly": poly_to_json(piece.charpoly),
                    "roots": [{"modulus": interval_to_json(iv), "match": match}
                              for iv, match in zip(piece.intervals, piece.matches)]}
                   for piece in report.per_graded],
    }


def filtration_to_json(filt: Filtration):
    return [{"k": k, "dim": filt.steps[k].ncols, "basis": matrix_to_json(filt.steps[k])}
            for k in filt.indices()]


def rigidity_report_to_json(report: RigidityReport):
    """Each distinct purity report and signature (`purity_scan` shares them) is converted once."""
    parts = {}

    def part(obj, to_json):
        if obj is not None and id(obj) not in parts:
            parts[id(obj)] = to_json(obj)
        return parts.get(id(obj))

    return {
        "mu": str(report.mu),
        "generic_signature": signature_to_json(report.generic_signature),
        "points": [{"a": str(pr.a), "defined": pr.defined, "error": pr.error,
                    "purity": part(pr.purity, purity_report_to_json),
                    "signature": part(pr.signature, signature_to_json)}
                   for pr in report.points],
        "verdict": report.verdict,
        "failures": [str(a) for a in report.failures],
    }


def canonical_json_bytes(obj) -> bytes:
    """`json.dumps(obj, sort_keys=True, indent=2)` and a newline, as bytes, for str,
    int, bool, None, list, tuple and str-keyed dict (else TypeError), each
    container object written once per indent and its text reused."""
    memo = {}

    def emit(value, indent):
        if isinstance(value, str):
            return _quote(value)
        if value is None or isinstance(value, bool):
            return "null" if value is None else "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        key = (id(value), indent)
        if key in memo:
            return memo[key]
        inner = indent + "  "
        if isinstance(value, dict) and all(isinstance(k, str) for k in value):
            items, ends = [f"{_quote(k)}: {emit(value[k], inner)}" for k in sorted(value)], "{}"
        elif isinstance(value, (list, tuple)):
            items, ends = [emit(item, inner) for item in value], "[]"
        else:
            raise TypeError(f"{type(value).__name__} is not canonical JSON (or has non-str keys)")
        memo[key] = ends[0] + inner + f",{inner}".join(items) + indent + ends[1] if items else ends
        return memo[key]

    return (emit(obj, "\n") + "\n").encode("ascii")
