"""Run one `wdreps` CLI invocation with every layer boundary wrapped.

    python3 bench/tracer.py STATS.json ARG...

imports `wdreps`, installs a timing wrapper on every module attribute
bound to each function listed in SPANS (and on `Matrix` methods through
the class), runs `wdreps.cli.main(ARG...)` and writes the aggregated
spans to STATS.json.  Nothing inside `src/` is changed; the envelope on
stdout must stay byte-identical to an untraced run.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans whose first argument is a matrix or a
representation are keyed by its field: `q` (Q), `qt` (Q(t)) or `nf`.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import wdreps
from wdreps import cli, families, fields, jsonio, linalg, roots, schur, wd

# (owner, attribute, span name, how the field tag is found)
#   "self"/"arg0": field of the first positional argument
#   "arg1": the first argument after self is the field itself (Matrix.__init__)
#   None: untagged
SPANS = [
    (linalg.Matrix, "__init__", "linalg.construct", "arg1"),
    (linalg.Matrix, "__mul__", "linalg.mul", "self"),
    (linalg.Matrix, "rref", "linalg.rref", "self"),
    (linalg.Matrix, "det", "linalg.det", "self"),
    (linalg.Matrix, "inverse", "linalg.inverse", "self"),
    (linalg, "charpoly", "linalg.charpoly", "arg0"),
    (linalg, "mult_jordan_chevalley", "linalg.jordan_chevalley", "arg0"),
    (linalg, "mat_subspaces", "linalg.subspaces", "arg0"),
    (linalg, "column_echelon", "linalg.subspaces", "arg0"),
    (linalg, "intersect_columns", "linalg.subspaces", "arg0"),
    (linalg, "solve_in_span", "linalg.subspaces", "arg0"),
    (fields, "squarefree_part", "fields.squarefree", None),
    (fields, "squarefree_decomposition", "fields.squarefree", None),
    (fields, "parse_scalar_expression", "fields.parse", None),
    (schur, "schur_basis", "schur.basis", None),
    (schur, "_build_rational_basis", "schur.basis_build", None),
    (schur, "schur_of_matrix", "schur.of_matrix", "arg0"),
    (schur, "schur_derivation", "schur.derivation", "arg0"),
    (roots, "root_moduli_certified", "roots.root_moduli", None),
    (wd, "wd_validate", "wd.validate", "arg0"),
    (wd, "inertia_closure", "wd.inertia_closure", None),
    (wd, "frss_signature", "wd.frss_signature", "arg0"),
    (wd, "monodromy_filtration", "wd.monodromy_filtration", None),
    (wd, "purity_check", "wd.purity_check", None),
    (wd, "wd_schur", "wd.wd_schur", "arg0"),
    (families, "specialize", "families.specialize", None),
    (families, "purity_scan", "families.purity_scan", None),
    (jsonio, "load_wdrep", "jsonio.load", None),
    (jsonio, "canonical_json_bytes", "jsonio.emit", None),
    (cli, "render_table", "jsonio.emit", None),
]

MODULES = [wdreps, cli, families, fields, jsonio, linalg, roots, schur, wd]


def _tag(field) -> str:
    if field == fields.QQ:
        return "q"
    if field == fields.QT:
        return "qt"
    return "nf"


class Recorder:
    """Per-span counters: calls, self seconds, inclusive seconds; plus the
    few statistics that need an argument or a timestamp."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.stack = [0.0]  # time covered by direct children, per open span
        self.point_starts: list[float] = []
        self.point_s: list[float] = []
        self.max_charpoly_q_dim = 0
        self.max_root_degree = 0

    def wrap(self, fn, name, tagging):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tagging == "arg1":
                key = f"{name}.{_tag(args[1])}"
            elif tagging is not None:
                key = f"{name}.{_tag(args[0].field)}"
            else:
                key = name
            self.before(name, args)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                child = stack.pop()
                stack[-1] += duration
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - child
                entry[2] += duration
                if name == "families.purity_scan":
                    self.close_points(start, end)

        return wrapper

    def before(self, name, args):
        if name == "families.specialize":
            self.point_starts.append(perf_counter())
        elif name == "linalg.charpoly" and args[0].field == fields.QQ:
            self.max_charpoly_q_dim = max(self.max_charpoly_q_dim, args[0].nrows)
        elif name == "roots.root_moduli":
            p = args[0]
            degree = p.degree if isinstance(p, fields.Poly) else len(p) - 1
            self.max_root_degree = max(self.max_root_degree, degree)

    def close_points(self, scan_start, scan_end):
        """A point's time runs from its `specialize` call to the next one,
        the last to the end of the scan."""
        starts = [t for t in self.point_starts if t >= scan_start]
        self.point_s.extend(b - a for a, b in zip(starts, starts[1:] + [scan_end]))
        self.point_starts.clear()

    def install(self):
        for owner, attr, name, tagging in SPANS:
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, tagging)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            bound = 0
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding found for {owner.__name__}.{attr}")

    def to_json(self) -> dict:
        return {"spans": self.spans, "point_s": self.point_s,
                "max_charpoly_q_dim": self.max_charpoly_q_dim,
                "max_root_degree": self.max_root_degree}


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.to_json(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
