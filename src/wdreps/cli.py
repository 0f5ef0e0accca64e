"""Command-line interface.

One command per invocation; every run emits a deterministic report
envelope (tool version, command echo, input digest, result payload,
diagnostics).  Exit codes: 0 success or rigidity pass, 1 rigidity fail
verdict, 2 input or validation error (including a specialization point
where a denominator vanishes or Frobenius turns singular, and an
unwritable --output path), 3 certification failure, 4 internal error (any
other exception, such as a broken internal invariant; reported as a
diagnostic naming where it was raised, never as a traceback).
"""

from __future__ import annotations

# `fields` first: its compile sets the peak resident set, lowest with few modules loaded
from .fields import (DEFAULT_EPS, MIN_EPS, CertificationFailed, DenominatorVanishes,
                     ParseError, Poly, QQ, Record, ResourceCapExceeded, SingularFrobenius,
                     _excerpt, format_poly, parse_rational)

import atexit
import gc
import os
import sys
from fractions import Fraction

try:  # the builtin digest: `hashlib` would load OpenSSL for one sha256
    from _sha256 import sha256
except ImportError:
    try:  # Python 3.12 renamed it `_sha2`
        from _sha2 import sha256
    except ImportError:  # a build without the builtin digests
        from hashlib import sha256

from . import __version__
from .jsonio import (ValidationError, canonical_json_bytes, filtration_to_json, load_wdrep,
                     purity_report_to_json, rigidity_report_to_json, signature_to_json,
                     wdrep_to_json)
from .wd import (NonIntegralWeight, frobenius_semisimplify, frss_signature,
                 monodromy_filtration, purity_check, wd_schur)

# by exit the report is written: the final collections need not free what the OS reclaims
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_RIGIDITY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_CERTIFICATION = 3
EXIT_INTERNAL = 4

# Largest point grid a scan accepts, about 200 times the default grid of 51
# points; a larger --points range or list is an input error (exit 2),
# checked before any point is built.
MAX_SCAN_POINTS = 10_000


class CommandRequest(Record):
    command: str
    input_path: str
    partition: str | None = None
    weight: str | None = "infer"
    point: str | None = None
    points: str | None = None
    eps: str | None = None
    output: str | None = None
    format: str = "json"


def parse_points(text: str | None) -> list[Fraction]:
    if text is None:
        from .families import default_scan_points
        return default_scan_points()
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise ParseError(f"bad point range {_excerpt(text)}") from exc
        if lo > hi:
            raise ParseError(f"empty point range {_excerpt(text)}")
        _check_point_count(hi - lo + 1)
        return [Fraction(a) for a in range(lo, hi + 1)]
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ParseError("empty point list")
    _check_point_count(len(tokens))
    return sorted({parse_rational(tok) for tok in tokens})


def _check_point_count(count: int) -> None:
    if count > MAX_SCAN_POINTS:
        raise ParseError(f"{count} scan points requested; at most {MAX_SCAN_POINTS} "
                         "are allowed")


def parse_weight(text: str):
    if text == "infer":
        return "infer"
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"weight must be an integer or 'infer', got {_excerpt(text)}") from exc


def parse_eps(text: str | None) -> Fraction:
    if text is None:
        return DEFAULT_EPS
    eps = parse_rational(text)
    if eps <= 0:
        raise ParseError("eps must be positive")
    if eps < MIN_EPS:
        raise ParseError("eps below 2^-16000 cannot be certified")
    return eps


def run_command(req: CommandRequest):
    """Dispatch a request; returns (exit_code, envelope dict)."""
    diagnostics: list[str] = []
    # the output path is not echoed: the envelope is the same wherever it goes
    options = {name: getattr(req, name) for name in OPTIONS
               if name != "output" and getattr(req, name) is not None}
    envelope = {
        "tool": "wdreps",
        "version": __version__,
        "command": {"name": req.command, "options": options},
        "input_digest": None,
        "result": None,
        "diagnostics": diagnostics,
    }
    code = EXIT_OK
    try:
        # digest and parse the same bytes, read once
        with open(req.input_path, "rb") as handle:
            raw = handle.read()
        envelope["input_digest"] = "sha256:" + sha256(raw).hexdigest()
        eps = parse_eps(req.eps)
        rho = load_wdrep(req.input_path, raw) if req.command != "validate" else None
        if req.command == "validate":
            try:
                load_wdrep(req.input_path, raw)
                envelope["result"] = {"ok": True, "violation": None}
            except ValidationError as exc:
                envelope["result"] = {"ok": False, "violation": str(exc)}
                diagnostics.append(f"validation: {exc}")
                code = EXIT_INPUT_ERROR
        elif req.command == "schur":
            mu = _required_partition(req)
            envelope["result"] = {"representation": wdrep_to_json(wd_schur(rho, mu))}
        elif req.command == "frss":
            out = frobenius_semisimplify(rho)
            envelope["result"] = {"representation": wdrep_to_json(out),
                                  "signature": signature_to_json(frss_signature(out))}
        elif req.command == "filtration":
            envelope["result"] = {"filtration": filtration_to_json(monodromy_filtration(rho.nilp))}
        elif req.command == "purity":
            report = purity_check(rho, parse_weight(req.weight), eps)
            envelope["result"] = {"purity": purity_report_to_json(report)}
        elif req.command == "specialize":
            if req.point is None:
                raise ParseError("specialize requires --point")
            from .families import specialize
            out = specialize(rho, parse_rational(req.point))
            envelope["result"] = {"representation": wdrep_to_json(out)}
        elif req.command in ("scan", "rigidity"):
            from .families import purity_scan, rigidity_check
            mu = _required_partition(req)
            report = purity_scan(rho, mu, parse_points(req.points),
                                 parse_weight(req.weight), eps)
            if req.command == "rigidity":
                report = rigidity_check(report)
                if report.verdict == "fail":
                    code = EXIT_RIGIDITY_FAIL
                    diagnostics.append(
                        "rigidity fail at points: " + ", ".join(str(a) for a in report.failures))
            for pr in report.points:
                if pr.error is not None:
                    diagnostics.append(f"point {pr.a}: {pr.error}")
            envelope["result"] = {"report": rigidity_report_to_json(report)}
        else:
            raise ParseError(f"unknown command {req.command!r}")
    except (ParseError, ValidationError, ValueError, OSError, NonIntegralWeight,
            ResourceCapExceeded, DenominatorVanishes, SingularFrobenius) as exc:
        diagnostics.append(f"{type(exc).__name__}: {exc}")
        code = EXIT_INPUT_ERROR
    except CertificationFailed as exc:
        diagnostics.append(f"CertificationFailed: {exc}")
        code = EXIT_CERTIFICATION
    except Exception as exc:
        # anything else is a fault of the program: name where it was raised,
        # so that it reads neither as a verdict nor as a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = tb.tb_frame.f_code
        diagnostics.append(f"internal error: {type(exc).__name__}: {exc} (raised in "
                           f"{where.co_name}, {os.path.basename(where.co_filename)}:{tb.tb_lineno})")
        code = EXIT_INTERNAL
    return code, envelope


def _required_partition(req: CommandRequest) -> Partition:
    from .schur import Partition
    if req.partition is None:
        raise ParseError(f"{req.command} requires --partition")
    try:
        return Partition.from_string(req.partition)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _table_signature(entries) -> list[str]:
    lines = []
    for item in entries:
        poly = item["charpoly"]
        lines.append(f"  Sp_{item['t']} of " + _poly_string_from_coeffs(poly))
        if "inertia_traces" in item:
            traces = ", ".join(f"{k}: {v}" for k, v in sorted(item["inertia_traces"].items()))
            lines[-1] += f" [inertia traces {traces}]"
    return lines or ["  (empty)"]


def _poly_string_from_coeffs(coeff_strings) -> str:
    try:
        poly = Poly(QQ, [Fraction(c) for c in coeff_strings])
        return format_poly(poly)
    except (ValueError, ZeroDivisionError):
        # Q(t) or number-field coefficients: show the raw coefficient array
        return "[" + ", ".join(coeff_strings) + "]"


def render_table(envelope: dict) -> str:
    lines = [f"tool: wdreps {envelope['version']}",
             f"command: {envelope['command']['name']}",
             f"input: {envelope['input_digest']}"]
    result = envelope["result"]
    if result is None:
        pass
    elif "ok" in result:
        lines.append(f"ok: {str(result['ok']).lower()}")
        if result["violation"]:
            lines.append(f"violation: {result['violation']}")
    elif "purity" in result:
        purity = result["purity"]
        lines.append(f"purity: {purity['verdict']} (weight {purity['weight']})")
        for piece in purity["graded"]:
            matches = sum(1 for r in piece["roots"] if r["match"])
            lines.append(f"  gr_{piece['k']}: dim {piece['dim']}, "
                         f"charpoly {_poly_string_from_coeffs(piece['charpoly'])}, "
                         f"{matches}/{len(piece['roots'])} roots match")
    elif "filtration" in result:
        for step in result["filtration"]:
            lines.append(f"M_{step['k']}: dim {step['dim']}")
    elif "report" in result:
        report = result["report"]
        lines.append(f"partition: {report['mu']}")
        if report["verdict"] is not None:
            lines.append(f"verdict: {report['verdict']}")
            if report["failures"]:
                lines.append("failures: " + ", ".join(report["failures"]))
        lines.append("generic signature:")
        lines.extend(_table_signature(report["generic_signature"]))
        for pr in report["points"]:
            lines.append(_point_line(pr))
    elif "representation" in result:
        rep = result["representation"]
        size = len(rep["phi"])
        lines.append(f"representation: dim {size}, q = {rep['q']}")
        if "signature" in result:
            lines.append("signature:")
            lines.extend(_table_signature(result["signature"]))
    for diag in envelope["diagnostics"]:
        lines.append(f"note: {diag}")
    return "\n".join(lines) + "\n"


def _point_line(pr: dict) -> str:
    if not pr["defined"]:
        return f"point {pr['a']}: undefined ({pr['error']})"
    if pr["purity"] is None:
        return f"point {pr['a']}: no purity verdict ({pr['error']})"
    verdict = pr["purity"]["verdict"]
    sig = "; ".join(line.strip() for line in _table_signature(pr["signature"]))
    return f"point {pr['a']}: {verdict} (weight {pr['purity']['weight']}); signature: {sig}"


# ---------------------------------------------------------------------------
# command-line parsing
# ---------------------------------------------------------------------------

# every flag a command may take, with its argparse keywords
OPTIONS = {
    "partition": {"required": True, "help": "comma-separated partition, e.g. '2,1'"},
    "weight": {"default": "infer", "help": "integer weight or 'infer' (default)"},
    "point": {"required": True, "help": "rational point, e.g. '3' or '1/2'"},
    "points": {"default": None, "help": "inclusive integer range 'lo..hi' or comma list "
                                        "of rationals (default -25..25)"},
    "eps": {"default": None,
            "help": f"certification width, at least 2^-16000 (default {DEFAULT_EPS})"},
    "format": {"choices": ("json", "table"), "default": "json"},
    "output": {"default": None, "help": "write the report here instead of stdout"},
}

# the one list of commands: help text and flags, in help order
_SCAN_FLAGS = ("partition", "weight", "points", "eps", "format", "output")
COMMANDS = {
    "validate": ("check every representation invariant", ("format", "output")),
    "schur": ("apply the partition functor", ("partition", "format", "output")),
    "frss": ("Frobenius-semisimplify and report the signature", ("format", "output")),
    "filtration": ("monodromy filtration of the nilpotent part", ("format", "output")),
    "purity": ("certify purity", ("weight", "eps", "format", "output")),
    "specialize": ("evaluate a Q(t) family at a rational point", ("point", "format", "output")),
    "scan": ("per-point purity and signature scan of a family", _SCAN_FLAGS),
    "rigidity": ("scan plus the rigidity verdict", _SCAN_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="wdreps",
        description="Exact computations with Weil-Deligne representations "
                    "and their Q(t)-families.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a representation or family JSON file")
        for flag in flags:
            p.add_argument(f"--{flag}", **OPTIONS[flag])
    return parser


_VALUE_FLAGS = ("--points", "--point", "--weight", "--eps")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--points -5..5' into '--points=-5..5' so argparse does not
    mistake the value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _table_request(argv: list[str]) -> CommandRequest | None:
    """The request argparse reads from a plainly valid line (a command, one input,
    each of its flags once as `--flag value` or `--flag=value`, no value starting
    with `-` but for `_VALUE_FLAGS`), read off `COMMANDS` and `OPTIONS`; else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags, values, inputs, tokens = COMMANDS[argv[0]][1], {}, [], iter(argv[1:])
    for tok in tokens:
        if not tok.startswith("-"):
            inputs.append(tok)
            continue
        name, eq, value = tok[2:].partition("=")
        if not tok.startswith("--") or name not in flags or name in values:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and tok not in _VALUE_FLAGS):
                return None
        if "choices" in OPTIONS[name] and value not in OPTIONS[name]["choices"]:
            return None
        values[name] = value
    if len(inputs) != 1 or any(OPTIONS[name].get("required") and name not in values
                               for name in flags):
        return None
    return CommandRequest(argv[0], inputs[0], **{
        name: values.get(name, OPTIONS[name].get("default")) if name in flags else None
        for name in OPTIONS})


def parse_request(argv) -> CommandRequest:
    """The request a command line asks for: off the tables if they read it, else by argparse."""
    argv = list(argv)
    req = _table_request(argv)
    if req is None:
        args = build_parser().parse_args(_merge_negative_values(argv))
        req = CommandRequest(args.command, args.input,
                             **{name: getattr(args, name, None) for name in OPTIONS})
    return req


def render(req: CommandRequest, envelope: dict) -> bytes:
    """The report bytes in the requested format."""
    if req.format == "table":
        return render_table(envelope).encode("utf-8")
    return canonical_json_bytes(envelope)


def main(argv=None) -> int:
    req = parse_request(sys.argv[1:] if argv is None else argv)
    code, envelope = run_command(req)
    payload = render(req, envelope)
    if req.output:
        try:
            with open(req.output, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"OSError: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    for diag in envelope["diagnostics"]:
        print(diag, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
