"""Checks on the package source itself."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wdreps import cli, fields, linalg, numberfield, roots, schur, wd

from support import fractions_built, partitions_of

SRC = Path(__file__).resolve().parent.parent / "src" / "wdreps"


def _imported_modules(tree):
    """Top-level names of the absolute imports in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    """Every import is of the standard library, save the builtin sha256's
    module, which Python 3.12 renamed from `_sha256` to `_sha2`: each
    interpreter lists only its own name, and `cli` tries both."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {(path.name, name)
               for path in sources
               for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               if name not in sys.stdlib_module_names and name not in ("_sha256", "_sha2")}
    assert not foreign


def test_package_calls_no_json_dumps():
    """Envelopes are written by `jsonio.canonical_json_bytes` alone: with
    `indent` set, `json.dumps` runs the pure-Python encoder."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("dumps", "dump"):
                callers.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                callers.update((path.name, a.name) for a in node.names
                               if a.name in ("dumps", "dump"))
    assert SRC.joinpath("jsonio.py").exists() and not callers


def test_package_imports_no_dataclasses_or_traceback():
    """Every process pays for what `import wdreps.cli` loads: value classes
    derive from `fields.Record`, and the internal-error diagnostic walks the
    exception's traceback itself."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        importers.update((path.name, name)
                         for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
                         if name in ("dataclasses", "traceback"))
    assert SRC.joinpath("fields.py").exists() and not importers


def _modules_loaded(*code):
    """`sys.modules` at the end of a fresh interpreter that runs `code`."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", "\n".join([*code, "print(sorted(sys.modules))"])],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(ast.literal_eval(out))


def test_cli_import_floor(tmp_path):
    """The modules each command loads, one fresh interpreter per command:
    none of `dataclasses`, `inspect`, `traceback`, `ast` or `dis`, nor
    `argparse` (an accepted line is read off the tables) or `hashlib` and
    `_hashlib` (the digest is the builtin sha256); of `schur`, `roots` and
    `families`, only those the command runs; and `numberfield` only for a
    number-field document.  Importing `wdreps.cli` and `validate`, `frss`
    and `filtration` load none of the three, `schur` loads `schur` alone,
    `purity` `roots` alone, and `rigidity` all three."""
    corpus = SRC.parents[1] / "corpus"
    sp2, flagship = str(corpus / "sp2.json"), str(corpus / "flagship.json")
    sqrt2 = tmp_path / "sqrt2.json"
    sqrt2.write_text('{"q": 2, "field": {"type": "NumberField", "minpoly": [-2, 0, 1]}, '
                     '"phi": [["a", "0"], ["0", "a/2"]], "nilp": [["0", "0"], ["1", "0"]]}')
    deferred = {"wdreps.schur", "wdreps.roots", "wdreps.families"}
    cases = [(None, set()),
             (["validate", sp2], set()),
             (["schur", "--partition", "2,1", sp2], {"wdreps.schur"}),
             (["frss", sp2], set()),
             (["filtration", sp2], set()),
             (["rigidity", "--partition", "2", "--points", "1..2", flagship], deferred),
             (["validate", str(sqrt2)], set()),
             (["purity", "--format=table", str(sqrt2)], {"wdreps.roots"})]
    for argv, expected in cases:
        run = [] if argv is None else [
            f"assert wdreps.cli.main({[*argv, '--output', str(tmp_path / 'report')]!r}) == 0"]
        loaded = _modules_loaded("import sys, wdreps.cli", *run)
        assert "wdreps.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "traceback", "ast", "dis"}
        assert not loaded & {"argparse", "hashlib", "_hashlib"}, argv
        assert loaded & deferred == expected, argv
        assert ("wdreps.numberfield" in loaded) == (argv is not None and str(sqrt2) in argv), argv


# `wdreps.__all__` as the package listed it when it imported every module
PACKAGE_NAMES = [
    "CertificationFailed", "DEFAULT_EPS", "DenominatorVanishes", "Field", "Filtration",
    "GradedPurity", "Matrix", "ModulusInterval", "NFElem", "NonIntegralWeight", "NumberField",
    "ParseError", "Partition", "PointResult", "Poly", "PurityReport", "QQ", "QT", "RatFunc",
    "RationalField", "RationalFunctionField", "ResourceCapExceeded", "RigidityReport",
    "SchurBasis", "Signature", "SignatureEntry", "SingularFrobenius", "SingularMatrixError",
    "TraceLinkResult", "WDRep", "ZeroDivisorPivotError", "block_diagonal", "charpoly",
    "column_echelon", "default_scan_points", "families", "field_from_json", "fields",
    "frobenius_semisimplify", "frss_signature", "hook_content_dim", "inertia_closure", "linalg",
    "mat_subspaces", "monodromy_filtration", "mult_jordan_chevalley", "poly_eval_matrix",
    "purity_check", "purity_scan", "rigidity_check", "root_moduli_certified", "roots",
    "scalar_restriction", "schur", "schur_basis", "schur_derivation", "schur_of_matrix",
    "sp_construct", "specht_dim", "specialize", "specialize_signature",
    "squarefree_decomposition", "squarefree_part", "trace_link_check", "wd", "wd_direct_sum",
    "wd_schur", "wd_tensor", "wd_validate", "young_symmetrizer",
]


def test_package_resolves_its_names_on_first_access():
    """`wdreps` exports the same 70 names, each the object its home module
    binds (a name several modules bind is one object in all of them);
    `dir` and `import *` see every name, an unknown one raises
    AttributeError, and importing the package loads none of its modules."""
    import wdreps
    submodules = ["families", "fields", "linalg", "roots", "schur", "wd"]
    assert len(PACKAGE_NAMES) == 70 and wdreps.__all__ == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        value = getattr(wdreps, name)
        if name in submodules:
            assert value is sys.modules[f"wdreps.{name}"]
            continue
        binders = [m for m in submodules if name in vars(getattr(wdreps, m))]
        assert binders and all(getattr(wdreps, m).__dict__[name] is value for m in binders), name
    for name, homes in {"CertificationFailed": ["roots", "families", "wd"],
                        "DEFAULT_EPS": ["roots", "families", "wd"],
                        "MIN_EPS": ["roots", "wd"],
                        "ResourceCapExceeded": ["schur"],
                        "DenominatorVanishes": ["families"],
                        "SingularFrobenius": ["families"]}.items():
        assert all(getattr(getattr(wdreps, m), name) is getattr(fields, name) for m in homes)
    assert set(PACKAGE_NAMES) <= set(dir(wdreps))
    namespace = {}
    exec("from wdreps import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PACKAGE_NAMES)
    assert all(namespace[name] is getattr(wdreps, name) for name in PACKAGE_NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        wdreps.no_such_name  # noqa: B018
    loaded = _modules_loaded("import sys, wdreps", "wdreps.CertificationFailed, wdreps.QQ")
    assert {m for m in loaded if m.startswith("wdreps")} == {"wdreps", "wdreps.fields"}
    # number fields load on first use, by any of the three names
    loaded = _modules_loaded("import sys, wdreps", "from wdreps.fields import NFElem",
                             "from wdreps.numberfield import NFElem as E, NumberField as K",
                             "assert NFElem is E and wdreps.NumberField is K is wdreps.fields.NumberField")
    assert {m for m in loaded if m.startswith("wdreps")} == {"wdreps", "wdreps.fields",
                                                             "wdreps.numberfield"}


def test_package_reads_no_environment_variable():
    """Every bound is a module constant: no module reads `os.environ` or
    `os.getenv`, by attribute or by `from os import`."""
    names = {"environ", "environb", "getenv", "getenvb"}
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                readers.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                readers.update((path.name, a.name) for a in node.names if a.name in names)
    assert not readers


def test_readme_states_the_bounds_in_force():
    """Each resource bound the README quotes is the constant in force."""
    readme = " ".join((SRC.parent.parent / "README.md").read_text(encoding="utf-8").split())
    stated = {
        "MAX_SCAN_POINTS": r"more than ([\d,]+) points \(`MAX_SCAN_POINTS`",
        "MIN_EPS": r"below 2\^-(\d+) \(`MIN_EPS`",
        "MAX_SCALAR_NESTING": r"at most (\d+) nested parentheses or signs \(`MAX_SCALAR_NESTING`\)",
        "MAX_SCALAR_EXPONENT": r"no power beyond `x\^(\d+)` \(`MAX_SCALAR_EXPONENT`",
        "MAX_SCALAR_BITS": r"more than ([\d,]+) bits \(`MAX_SCALAR_BITS`",
        "MAX_TENSOR_SIZE": r"`n\^d <= (\d+)` \(`MAX_TENSOR_SIZE`",
        "MAX_SYMMETRIZER_TERMS": r"more than (\d+) terms \(`MAX_SYMMETRIZER_TERMS`",
        "INERTIA_CLOSURE_CAP": r"capped at (\d+) elements \(`INERTIA_CLOSURE_CAP`",
    }
    values = {}
    for name, pattern in stated.items():
        match = re.search(pattern, readme)
        assert match, f"the README no longer states {name}"
        values[name] = int(match.group(1).replace(",", ""))
    assert values["MAX_SCAN_POINTS"] == cli.MAX_SCAN_POINTS
    assert Fraction(1, 2 ** values["MIN_EPS"]) == roots.MIN_EPS
    assert values["MAX_SCALAR_NESTING"] == fields.MAX_SCALAR_NESTING
    assert values["MAX_SCALAR_EXPONENT"] == fields.MAX_SCALAR_EXPONENT
    assert values["MAX_SCALAR_BITS"] == fields.MAX_SCALAR_BITS
    assert values["MAX_TENSOR_SIZE"] == schur.MAX_TENSOR_SIZE
    assert values["MAX_SYMMETRIZER_TERMS"] == schur.MAX_SYMMETRIZER_TERMS
    assert values["INERTIA_CLOSURE_CAP"] == wd.INERTIA_CLOSURE_CAP


def test_readme_lists_the_partitions_the_symmetrizer_cap_admits():
    """The README's list of admitted partitions is the set the cap admits.
    Removing a corner cell shortens one row and one column, so the term
    count of the smaller partition divides the larger one's: once every
    partition of 8 is refused, so is every larger one."""
    readme = " ".join((SRC.parent.parent / "README.md").read_text(encoding="utf-8").split())
    match = re.search(r"The cap admits exactly (\d+) partitions: every partition of d <= (\d+), "
                      r"and of d = \d+ only ((?:\([\d,]+\)(?:, | and )?)+)", readme)
    assert match, "the README no longer lists the partitions the symmetrizer cap admits"
    stated = {mu.parts for d in range(1, int(match.group(2)) + 1) for mu in partitions_of(d)}
    stated |= {tuple(map(int, parts.split(","))) for parts in re.findall(r"\(([\d,]+)\)",
                                                                         match.group(3))}
    admitted = set()
    for d in range(1, 9):
        for mu in partitions_of(d):
            try:
                schur.young_symmetrizer(mu)
            except schur.ResourceCapExceeded:
                continue
            admitted.add(mu.parts)
    assert stated == admitted and int(match.group(1)) == len(admitted)
    assert not any(sum(parts) == 8 for parts in admitted)


def test_scalars_have_one_promotion_path():
    """`coerce` is defined once, on `fields.Field`; every concrete field
    defines `promote`; the `format_qpoly` alias of `format_poly` is gone."""
    coerce_defs, coerce_classes, without_promote, qpoly_names = [], [], [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "coerce":
                coerce_defs.append(path.name)
            if isinstance(node, ast.ClassDef):
                methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
                if "coerce" in methods:
                    coerce_classes.append(node.name)
                if "promote" not in methods and any(
                        isinstance(b, ast.Name) and b.id == "Field" for b in node.bases):
                    without_promote.append(node.name)
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name", "asname")}
            if "format_qpoly" in names:
                qpoly_names.append(path.name)
    assert coerce_defs == ["fields.py"] and coerce_classes == ["Field"]
    assert {cls.__name__ for cls in fields.Field.__subclasses__()} == {
        "RationalField", "RationalFunctionField", "NumberField"}
    assert without_promote == []
    assert qpoly_names == []


def test_readme_cli_examples_name_every_command():
    """The README's CLI example block runs exactly the commands of
    `cli.COMMANDS`, each at least once."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("wdreps ")]
    assert set(named) == set(cli.COMMANDS)


def test_text_layer_pass_throughs_are_gone():
    """Scalars print with `str` and parse through `parse_scalar_expression`;
    no field method, JSON helper or table helper stands in between."""
    gone = {"format_scalar", "parse_scalar", "_nf_from_array", "_purity_lines"}
    found = [(path.name, node.name)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name in gone]
    assert found == []


def test_one_characteristic_polynomial_decides_invertibility_and_nilpotency():
    """`Matrix.inverse` eliminates nothing (it is the Cayley-Hamilton
    adjugate), no module catches `ZeroDivisorPivotError`, and the separate
    nilpotency test `is_nilpotent` is gone."""
    handlers, inverse_calls, nilpotent_names = [], None, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
                if "ZeroDivisorPivotError" in caught:
                    handlers.append(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "Matrix":
                (inverse,) = [m for m in node.body
                              if isinstance(m, ast.FunctionDef) and m.name == "inverse"]
                inverse_calls = {getattr(c.func, "attr", getattr(c.func, "id", None))
                                 for c in ast.walk(inverse) if isinstance(c, ast.Call)}
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name", "asname")}
            if "is_nilpotent" in names:
                nilpotent_names.append(path.name)
    assert handlers == []
    assert inverse_calls is not None and "charpoly" in inverse_calls
    assert not inverse_calls & {"rref", "_rref_q", "_pivot", "hstack"}
    assert nilpotent_names == []


def test_number_field_scalars_run_on_the_integer_kernel(monkeypatch):
    """No module defines `poly_xgcd`: a number-field inverse is column 0 of
    `Matrix.inverse` of the regular matrix.  `NFElem`'s `+`, `-`, `*` and
    negation build no `Poly`; they run on Q(t)'s integer polynomials."""
    defined = [(path.name, node.name)
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "poly_xgcd"]
    assert defined == []
    tree = ast.parse((SRC / "numberfield.py").read_text(encoding="utf-8"))
    (nfelem,) = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "NFElem"]
    (inverse,) = [m for m in nfelem.body
                  if isinstance(m, ast.FunctionDef) and m.name == "_inverse"]
    assert "inverse" in {getattr(c.func, "attr", None) for c in ast.walk(inverse)
                         if isinstance(c, ast.Call)}
    built = []
    number_fields = [fields.NumberField([-2, 0, 1]),
                     fields.NumberField([-2, 0, 0, 0, 1])]
    poly, init = fields._poly, fields.Poly.__init__
    for module in (fields, numberfield):
        monkeypatch.setattr(module, "_poly", lambda *args: built.append(args) or poly(*args))
    monkeypatch.setattr(fields.Poly, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for K in number_fields:
        a = K.gen()
        x = a * a * a + Fraction(1, 3) * a - 2
        x = -(x * x - a) + 5 * x
        assert x - x == 0 and x * 0 == 0
    assert built == []


def test_rational_polynomials_run_on_the_integer_kernel(monkeypatch):
    """`Poly` over Q runs `+ - * divmod poly_gcd monic derivative` without
    constructing a `Fraction`: sums go through `_zcomb`, products through
    `_zmul`, `divmod` through `_zdiv` and `poly_gcd` through `_zgcd`, and
    neither `Poly.__add__` nor `Poly.__mul__` has a loop of its own."""
    tree = ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))
    (poly,) = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "Poly"]
    loops = [m.name for m in poly.body if isinstance(m, ast.FunctionDef)
             and m.name in ("__add__", "__mul__")
             for n in ast.walk(m) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert loops == []
    p = fields.Poly(fields.QQ, [Fraction(1, 2), -3, 0, Fraction(-5, 7)])
    q = fields.Poly(fields.QQ, [2, Fraction(-1, 3), 4])
    r = p * p * q
    kernel = []
    for name in ("_zcomb", "_zmul", "_zdiv", "_zgcd"):
        monkeypatch.setattr(fields, name, lambda *args, f=getattr(fields, name), name=name:
                            kernel.append(name) or f(*args))
    operations = {"+": lambda: p + q, "-": lambda: p - q, "*": lambda: p * q,
                  "divmod": lambda: divmod(r, q), "poly_gcd": lambda: fields.poly_gcd(r, p),
                  "monic": p.monic, "derivative": q.derivative}
    calls = {}
    with fractions_built() as built:
        for name, operation in operations.items():
            kernel.clear()
            operation()
            calls[name] = set(kernel)
    assert built == []
    assert "_zcomb" in calls["+"] & calls["-"] and "_zmul" in calls["*"]
    assert "_zdiv" in calls["divmod"] and "_zgcd" in calls["poly_gcd"]
    assert divmod(r, q) == (p * p, fields.Poly.zero(fields.QQ))
    assert fields.poly_gcd(r, p) == p.monic()


def test_scan_path_reads_the_fraction_view_only_at_the_edges(monkeypatch, tmp_path):
    """In-process `rigidity` of inertia_pair at (2,1), points 1..2, and of
    bench/gen.py's seed-1 dense Q(t) family at (2), point 1: the `src/`
    functions outside `Poly` that read the Fraction view of a `Poly` over Q
    (`coeffs` or indexing) are the output edges (JSON, `format_poly`, the
    scalar `det`) and the float seeds of the root certifier."""
    spec = importlib.util.spec_from_file_location("bench_gen", SRC.parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    dense = tmp_path / "dense.json"
    dense.write_bytes(gen.document_bytes(gen.dense_qt(1)))
    readers = set()

    def record(p):
        frame = sys._getframe(2)
        while frame.f_code.co_qualname.startswith("Poly."):
            frame = frame.f_back
        path = Path(frame.f_code.co_filename)
        if p.field == fields.QQ and path.parent == SRC:
            readers.add(f"{path.stem}.{frame.f_code.co_qualname.split('.<locals>')[0]}")

    coeffs, getitem = fields.Poly.coeffs.fget, fields.Poly.__getitem__
    monkeypatch.setattr(fields.Poly, "coeffs", property(lambda p: record(p) or coeffs(p)))
    monkeypatch.setattr(fields.Poly, "__getitem__", lambda p, i: record(p) or getitem(p, i))
    wd._certified_matches.cache_clear()
    for argv in (["rigidity", "--partition", "2,1", "--points", "1..2",
                  str(SRC.parents[1] / "corpus" / "inertia_pair.json")],
                 ["rigidity", "--partition", "2", "--points", "1..1", str(dense)]):
        request = cli.parse_request(argv)
        code, envelope = cli.run_command(request)
        assert code == 0 and cli.render(request, envelope)
    assert readers == {"fields.format_poly", "jsonio.poly_to_json", "linalg.Matrix.det",
                       "roots._certify_squarefree"}


def test_commands_read_a_q_matrix_fraction_view_only_in_json(monkeypatch, tmp_path):
    """In-process, the README's commands, `rigidity` over inertia_pair and
    over bench/gen.py's seed-1 dense Q(t) family, and `purity` and `frss` on
    a Q(sqrt 2) document: the one `src/` function outside `Matrix` that
    reads the Fraction view of a Q `Matrix` (`rows`, indexing or `column`)
    is the JSON writer.  Scalar restriction and specialization build their
    Q matrices on ints."""
    root = SRC.parents[1]
    spec = importlib.util.spec_from_file_location("bench_gen", root / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    dense = tmp_path / "dense.json"
    dense.write_bytes(gen.document_bytes(gen.dense_qt(1)))
    sqrt2 = tmp_path / "sqrt2.json"
    sqrt2.write_text('{"q": 5, "field": {"type": "NumberField", "minpoly": [-2, 0, 1]}, '
                     '"phi": [["a", "0"], ["0", "a/5"]], "nilp": [["0", "0"], ["1", "0"]], '
                     '"inertia": []}', encoding="utf-8")
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("wdreps ")]
    commands += [["rigidity", "--partition", "2,1", "corpus/inertia_pair.json"],
                 ["rigidity", "--partition", "2", "--points", "-3..3", str(dense)],
                 ["purity", str(sqrt2)], ["frss", str(sqrt2)]]
    readers = set()

    def record(M):
        frame = sys._getframe(2)
        while frame.f_code.co_qualname.startswith("Matrix."):
            frame = frame.f_back
        path = Path(frame.f_code.co_filename)
        if M.field == fields.QQ and path.parent == SRC:
            readers.add(f"{path.stem}.{frame.f_code.co_qualname.split('.<locals>')[0]}")

    Matrix = linalg.Matrix
    rows, getitem, column = Matrix.rows.fget, Matrix.__getitem__, Matrix.column
    monkeypatch.setattr(Matrix, "rows", property(lambda M: record(M) or rows(M)))
    monkeypatch.setattr(Matrix, "__getitem__", lambda M, key: record(M) or getitem(M, key))
    monkeypatch.setattr(Matrix, "column", lambda M, j: record(M) or column(M, j))
    monkeypatch.chdir(root)
    codes = []
    for argv in commands:
        request = cli.parse_request(argv)
        code, envelope = cli.run_command(request)
        codes.append(code)
        assert cli.render(request, envelope)
    assert codes[:-2] == [0] * (len(commands) - 2)
    assert readers == {"jsonio.matrix_to_json"}


def test_only_the_input_edges_call_the_coercing_matrix_constructor():
    """`Matrix(field, rows)` coerces every entry: in `src/` only the JSON
    reader, specialization and `Matrix.diagonal` call it.  Every other
    matrix is built on the stored form by `linalg._make` or `linalg._blocks`."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            # inside class Matrix, `cls(...)` is the constructor too
            constructor = "cls" if scope[1:2] == ["Matrix"] else "Matrix"
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("Matrix", constructor)):
                callers.add(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    assert callers == {"jsonio.matrix_from_json", "families._evaluate_matrix",
                       "linalg.Matrix.diagonal"}


def test_constructions_read_no_q_matrix_fraction_view(monkeypatch):
    """`sp_construct`, `wd_direct_sum`, `wd_tensor`, `trace_link_check` and
    `scalar_restriction`, over Q and over Q(sqrt 2), read the Fraction view
    of no Q `Matrix` (`rows`, indexing or `column`) outside `Matrix`: every
    block matrix is laid out on the stored rows."""
    from wdreps import families
    K = fields.NumberField([-2, 0, 1])
    reps = []
    for field, x in ((fields.QQ, Fraction(4, 3)), (K, K.gen() / 3)):
        swap = linalg.Matrix(field, [[0, 1], [1, 0]])
        phi = linalg.Matrix(field, [[x, 1], [1, x]])  # commutes with the swap
        reps.append(wd.WDRep(5, field, phi, linalg.Matrix.zeros(field, 2, 2), (("s", swap),)))
    readers = set()

    def record(M):
        frame = sys._getframe(2)
        while frame.f_code.co_qualname.startswith("Matrix."):
            frame = frame.f_back
        path = Path(frame.f_code.co_filename)
        if M.field == fields.QQ and path.parent == SRC:
            readers.add(f"{path.stem}.{frame.f_code.co_qualname.split('.<locals>')[0]}")

    Matrix = linalg.Matrix
    rows, getitem, column = Matrix.rows.fget, Matrix.__getitem__, Matrix.column
    monkeypatch.setattr(Matrix, "rows", property(lambda M: record(M) or rows(M)))
    monkeypatch.setattr(Matrix, "__getitem__", lambda M, key: record(M) or getitem(M, key))
    monkeypatch.setattr(Matrix, "column", lambda M, j: record(M) or column(M, j))
    for r in reps:
        sp = wd.sp_construct(3, r)
        total = wd.wd_direct_sum(sp, r)
        assert wd.wd_tensor(r, sp).dim == 12 and total.dim == 8
        assert families.trace_link_check(sp, sp).equal
        assert linalg.scalar_restriction(total.phi).nrows == 8 * getattr(r.field, "degree", 1)
    assert readers == set()
