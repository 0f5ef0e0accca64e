import builtins
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import wdreps.cli as cli
from wdreps.cli import (CommandRequest, main, parse_points, parse_rational,
                        render_table, run_command)
from wdreps import families, roots, schur, wd
from wdreps.fields import MAX_SCALAR_BITS, QT, ParseError, parse_scalar_expression
from wdreps.roots import CertificationFailed

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FLAGSHIP = str(CORPUS / "flagship.json")
SP2 = str(CORPUS / "sp2.json")


class TestFlagParsing:
    def test_point_range(self):
        points = parse_points("-2..2")
        assert [int(p) for p in points] == [-2, -1, 0, 1, 2]

    def test_point_list_dedup_sorted(self):
        points = parse_points("3,1/2,3,-1")
        assert [str(p) for p in points] == ["-1", "1/2", "3"]

    def test_default_grid(self):
        assert len(parse_points(None)) == 51

    def test_bad_inputs(self):
        with pytest.raises(ParseError):
            parse_points("5..1")
        with pytest.raises(ParseError):
            parse_points("a,b")
        with pytest.raises(ParseError):
            parse_rational("x")

    def test_point_count_bound(self):
        bound = cli.MAX_SCAN_POINTS
        assert len(parse_points(f"1..{bound}")) == bound
        assert len(parse_points(",".join(str(a) for a in range(bound)))) == bound
        # an oversized range is refused before any of its points is built
        for text in (f"0..{bound}", "-1000000000..1000000000",
                     ",".join(["1"] * (bound + 1))):
            with pytest.raises(ParseError, match="scan points requested"):
                parse_points(text)

    def test_merge_negative_values(self):
        argv = ["scan", "--points", "-5..5", "f.json", "--weight", "-1"]
        merged = cli._merge_negative_values(argv)
        assert "--points=-5..5" in merged and "--weight=-1" in merged

    def test_table_parser_agrees_with_argparse(self):
        """On every command line the table path either declines or returns
        the request argparse returns; argparse alone decides every refusal."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def by_argparse(argv):
            """argparse's request, or its exit code (2 refused, 0 help)."""
            with pytest.MonkeyPatch.context() as patch, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                patch.setattr(cli, "_table_request", lambda argv: None)
                try:
                    return cli.parse_request(argv)
                except SystemExit as exc:
                    return exc.code

        accepted = []

        def check(argv):
            req = cli._table_request(list(argv))
            if req is not None:
                accepted.append(argv)
                assert by_argparse(argv) == req, argv

        # lines the table path leaves to argparse: the next token is the value
        # only for `_VALUE_FLAGS`, so argparse refuses `--output -x` but reads
        # `--partition -2`; it reads abbreviations and repeats, and prints help
        frss = CommandRequest("frss", SP2, weight=None)
        for argv, expected in (
                (["schur", "--partition", "2", "--output", "-x", SP2], 2),
                (["frss", "--format", "-x", SP2], 2),
                (["frss", "--format=xml", SP2], 2),
                (["frss", "-xformat=json", SP2], 2),
                (["frss", SP2, "--", "x.json"], 2),
                (["frss", SP2, "x.json"], 2),
                (["schur", SP2], 2),
                (["schur", "--partition", "-2", SP2],
                 CommandRequest("schur", SP2, partition="-2", weight=None)),
                (["frss", "--form", "table", SP2], frss.replace(format="table")),
                (["frss", "--output", "a", "--output", "b", SP2], frss.replace(output="b")),
                (["frss", "-h"], 0)):
            assert cli._table_request(argv) is None and by_argparse(argv) == expected, argv
        assert by_argparse(["scan", "--points", "-x", "--partition", "1", SP2]) == \
            cli._table_request(["scan", "--points", "-x", "--partition", "1", SP2])

        values = ["2,1", "3", "1/2", "infer", "", "x=y", "a b", "json", "table"]
        odd = ["-h", "--help", "--", "-x", "-5", "-", "-a b", "--x", "--bogus", "--points",
               "--format=xml", "-xformat=json", "other.json", "xml"]

        @st.composite
        def command_lines(draw):
            """A plainly valid line, then up to three changes, each of which
            may or may not make argparse refuse it."""
            command = draw(st.sampled_from(sorted(cli.COMMANDS)))
            pieces = []
            for name in cli.COMMANDS[command][1]:
                if cli.OPTIONS[name].get("required") or draw(st.booleans()):
                    value = draw(st.sampled_from([*cli.OPTIONS[name].get("choices", values), "xml"]))
                    pieces.append([f"--{name}={value}"] if draw(st.booleans())
                                  else [f"--{name}", value])
            pieces.insert(draw(st.integers(0, len(pieces))), ["doc.json"])
            pieces = draw(st.permutations(pieces))
            for _ in range(draw(st.integers(0, 3))):
                i = draw(st.integers(0, max(len(pieces) - 1, 0)))
                change = draw(st.integers(0, 5))
                if change == 0 and pieces:  # a flag or the input dropped
                    pieces.pop(i)
                elif change == 1 and pieces:  # a piece repeated
                    pieces.insert(i, pieces[i])
                elif change == 2:  # an odd token
                    pieces.insert(i, [draw(st.sampled_from(odd))])
                elif change == 3:  # a value starting with `-`, or a missing one
                    flag = draw(st.sampled_from([*cli.OPTIONS, "bogus"]))
                    pieces.insert(i, [f"--{flag}", *draw(st.sampled_from(
                        [["-5..5"], ["-1"], ["-x"], ["--points"], ["--"], []]))])
                elif change == 4 and pieces and pieces[i][0].startswith("--"):  # abbreviated
                    name, eq, value = pieces[i][0][2:].partition("=")
                    cut = draw(st.integers(1, len(name)))
                    pieces[i] = [f"--{name[:cut]}{eq}{value}", *pieces[i][1:]]
                else:  # another command, or none
                    command = draw(st.sampled_from([*cli.COMMANDS, "sch", "bogus", "", *odd]))
            return [command, *(tok for piece in pieces for tok in piece)]

        @hypothesis.settings(max_examples=600, derandomize=True, deadline=None, database=None)
        @hypothesis.given(command_lines())
        def run(argv):
            check(argv)

        run()
        assert len(accepted) >= 100


class TestCommands:
    def test_validate_ok(self):
        code, env = run_command(CommandRequest("validate", SP2))
        assert code == 0 and env["result"] == {"ok": True, "violation": None}

    def test_validate_broken_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({
            "q": 5, "field": {"type": "Q"}, "phi": [["1", "0"], ["0", "1"]],
            "nilp": [["0", "0"], ["1", "0"]], "inertia": []}))
        code, env = run_command(CommandRequest("validate", str(bad)))
        assert code == 2
        assert env["result"]["ok"] is False
        assert "relation" in env["result"]["violation"]

    def test_validate_unparsable_exits_2(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{")
        code, env = run_command(CommandRequest("validate", str(bad)))
        assert code == 2 and env["result"] is None and env["diagnostics"]

    def test_schur(self):
        code, env = run_command(CommandRequest("schur", SP2, partition="2"))
        assert code == 0
        rep = env["result"]["representation"]
        assert len(rep["phi"]) == 3
        assert rep["phi"][0][0] == "1" and rep["phi"][2][2] == "1/25"

    def test_frss_signature_payload(self):
        code, env = run_command(CommandRequest("frss", SP2))
        assert code == 0
        assert env["result"]["signature"] == [{"t": 2, "charpoly": ["-1/5", "1"]}]

    def test_filtration(self):
        code, env = run_command(CommandRequest("filtration", SP2))
        assert code == 0
        assert [(s["k"], s["dim"]) for s in env["result"]["filtration"]] == \
            [(-2, 0), (-1, 1), (0, 1), (1, 2)]

    def test_purity_exit_0_pure(self):
        code, env = run_command(CommandRequest("purity", SP2, weight="-1"))
        assert code == 0 and env["result"]["purity"]["verdict"] == "pure"

    def test_eps_default_as_documented_parses(self, capsys):
        spelling = "1/1000000000000000000000000000000"
        with pytest.raises(SystemExit):
            main(["purity", "--help"])
        assert f"(default {spelling})" in " ".join(capsys.readouterr().out.split())
        assert main(["purity", "--eps", spelling, SP2]) == 0

    def test_purity_certification_failure_exit_3(self, tmp_path):
        # irrational Frobenius moduli force real certification work; an eps
        # too wide to tell 5^(-1/2) from 5^0 and 5^-1, even after every
        # halving, must fail loudly with exit code 3
        doc = {"q": 5, "field": {"type": "Q"},
               "phi": [["0", "1"], ["1/5", "0"]],
               "nilp": [["0", "0"], ["0", "0"]], "inertia": []}
        path = tmp_path / "irrational.json"
        path.write_text(json.dumps(doc))
        code, env = run_command(CommandRequest(
            "purity", str(path), weight="-1", eps="1000"))
        assert code == 3
        assert any("CertificationFailed" in d for d in env["diagnostics"])
        assert any("remain ambiguous after escalation" in d for d in env["diagnostics"])

    def test_small_root_moduli_certify(self, tmp_path):
        # Frobenius roots of modulus 2^-101.5: the seeds are exact to their
        # own size, not to an absolute 2^-64
        for k in (203, 205):
            doc = {"q": 2, "field": {"type": "Q"}, "phi": [["0", f"1/2^{k}"], ["1", "0"]],
                   "nilp": [["0", "0"], ["0", "0"]]}
            path = tmp_path / f"small{k}.json"
            path.write_text(json.dumps(doc))
            code, env = run_command(CommandRequest("purity", str(path)))
            assert code == 0, env["diagnostics"]
            assert env["result"]["purity"]["verdict"] == "pure"
            assert env["result"]["purity"]["weight"] == -k

    def test_each_graded_charpoly_certified_once(self, monkeypatch):
        keys = []
        certify = roots.root_moduli_certified
        monkeypatch.setattr(roots, "root_moduli_certified",
                            lambda p, eps: keys.append((tuple(p), eps)) or certify(p, eps))
        wd._certified_matches.cache_clear()
        code, env = run_command(CommandRequest("rigidity", str(CORPUS / "inertia_pair.json"),
                                               partition="2,1", points="-3..3"))
        assert code in (0, 1) and env["diagnostics"] == []
        assert keys and len(keys) == len(set(keys))
        # the points t != 0 share one analysis, so no graded charpoly is met twice:
        # 4 pieces at t != 0 and 1 at t = 0
        assert wd._certified_matches.cache_info()[:2] == (0, 5)
        # conjugated_irrational's phi moves with t, so each point is analyzed,
        # but its one graded charpoly does not: certified once, read 6 times more
        keys.clear()
        wd._certified_matches.cache_clear()
        code, env = run_command(CommandRequest("rigidity",
                                               str(CORPUS / "conjugated_irrational.json"),
                                               partition="2", points="-3..3"))
        assert code == 0 and env["diagnostics"] == []
        assert len(keys) == len(set(keys)) == 1
        assert wd._certified_matches.cache_info()[:2] == (6, 1)

    def test_uncertifiable_point_is_recorded_not_fatal(self, monkeypatch):
        """A point whose graded charpoly fails certification keeps its
        signature, is exempt from the verdict and is named in the
        diagnostics; the run still exits 0, and the table shows it."""
        target = (Fraction(1, 5), Fraction(-6, 5), 1)  # (x - 1)(x - 1/5), flagship at t = 0
        certify = roots.root_moduli_certified

        def failing(p, eps):
            if tuple(p) == target:
                raise CertificationFailed("stubbed: enclosures stay ambiguous")
            return certify(p, eps)

        monkeypatch.setattr(roots, "root_moduli_certified", failing)
        wd._certified_matches.cache_clear()
        try:
            req = CommandRequest("rigidity", FLAGSHIP, partition="1", points="-2..2")
            code, env = run_command(req)
        finally:
            wd._certified_matches.cache_clear()
        assert code == 0
        report = env["result"]["report"]
        assert report["verdict"] == "pass" and report["failures"] == []
        point = next(p for p in report["points"] if p["a"] == "0")
        message = "CertificationFailed: stubbed: enclosures stay ambiguous"
        assert point["defined"] and point["error"] == message
        assert point["purity"]["verdict"] == "uncertifiable"
        # its signature differs from the generic one, so only the exemption
        # keeps the verdict at pass
        assert point["signature"] and point["signature"] != report["generic_signature"]
        others = [p for p in report["points"] if p["a"] != "0"]
        assert len(others) == 4
        assert all(p["error"] is None and p["purity"]["verdict"] == "pure" for p in others)
        assert env["diagnostics"] == [f"point 0: {message}"]
        table = render_table(env)
        assert "verdict: pass" in table.splitlines()
        assert ("point 0: uncertifiable (weight none); signature: Sp_1 of x^2-6/5*x+1/5"
                in table.splitlines())
        assert f"note: point 0: {message}" in table.splitlines()

    def test_specialize(self):
        code, env = run_command(CommandRequest("specialize", FLAGSHIP, point="3"))
        assert code == 0
        assert env["result"]["representation"]["nilp"] == [["0", "0"], ["3", "0"]]
        code, _ = run_command(CommandRequest("specialize", FLAGSHIP))
        assert code == 2

    def test_scan_and_rigidity(self):
        code, env = run_command(CommandRequest(
            "scan", FLAGSHIP, partition="1", points="-2..2"))
        assert code == 0
        assert env["result"]["report"]["verdict"] is None
        code, env = run_command(CommandRequest(
            "rigidity", FLAGSHIP, partition="1", points="-2..2"))
        assert code == 0
        report = env["result"]["report"]
        assert report["verdict"] == "pass"
        impure = [p for p in report["points"] if p["a"] == "0"][0]
        assert impure["purity"]["verdict"] == "impure"

    def test_rigidity_fail_maps_to_exit_1(self, monkeypatch):
        # an honest fail verdict contradicts the rigidity statement, so the
        # exit mapping is exercised by stubbing the verdict
        real = families.rigidity_check

        def forced_fail(report):
            checked = real(report)
            return checked.replace(verdict="fail", failures=(checked.points[0].a,))

        monkeypatch.setattr(families, "rigidity_check", forced_fail)
        code, env = run_command(CommandRequest(
            "rigidity", FLAGSHIP, partition="1", points="1..2"))
        assert code == 1
        assert env["result"]["report"]["verdict"] == "fail"

    def test_resource_cap_maps_to_exit_2(self, monkeypatch):
        monkeypatch.setattr(schur, "MAX_TENSOR_SIZE", 2)
        code, env = run_command(CommandRequest("schur", SP2, partition="2"))
        assert code == 2
        assert any("ResourceCapExceeded" in d for d in env["diagnostics"])

    def test_internal_error_maps_to_exit_4(self, monkeypatch, capsys):
        def broken(rho):
            raise AssertionError("signature dimensions do not add up")

        monkeypatch.setattr(cli, "frss_signature", broken)
        code, env = run_command(CommandRequest("frss", SP2))
        assert code == cli.EXIT_INTERNAL == 4
        assert env["result"] is None
        [diagnostic] = env["diagnostics"]
        assert diagnostic.startswith("internal error: AssertionError: signature "
                                     "dimensions do not add up (raised in broken, test_cli.py:")
        assert main(["frss", SP2]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "AssertionError" in err


class TestEnvelope:
    def test_deterministic_bytes(self):
        from wdreps.jsonio import canonical_json_bytes
        req = CommandRequest("scan", FLAGSHIP, partition="2", points="-3..3")
        code1, env1 = run_command(req)
        code2, env2 = run_command(req)
        assert code1 == code2 == 0
        assert canonical_json_bytes(env1) == canonical_json_bytes(env2)

    def test_cold_and_warm_line_memo_same_bytes(self):
        # the nilpotent flag is kept per line of N: a cold memo, a warm one
        # and one warmed through another multiple (N(7) = 7 * N(1)) agree
        from wdreps.families import specialize
        from wdreps.jsonio import load_wdrep
        from wdreps.schur import Partition
        argv = ["rigidity", "--partition", "2,1", "--points", "-3..3",
                str(CORPUS / "inertia_pair.json")]
        wd._line_flag.cache_clear()
        cold = _main_in_process(argv)
        warm = _main_in_process(argv)
        wd._line_flag.cache_clear()
        image = wd.wd_schur(specialize(load_wdrep(str(CORPUS / "inertia_pair.json")), 7),
                            Partition.of(2, 1))
        wd.frss_signature(image)
        wd.monodromy_filtration(image.nilp)
        hits = wd._line_flag.cache_info().hits
        other = _main_in_process(argv)
        assert wd._line_flag.cache_info().hits > hits
        assert cold[0] == 0 and cold[1] and cold[2] == ""
        assert cold == warm == other

    def test_rigidity_converts_each_point_analysis_once(self, monkeypatch):
        """inertia_pair's 51 default points share 2 analyses (`purity_scan`'s
        memo), so the report converts 2 purity reports and 3 signatures:
        one per analysis plus the generic one, not 51 and 52 as per point."""
        from wdreps import jsonio
        calls = []

        def counting(name):
            original = getattr(jsonio, name)
            monkeypatch.setattr(jsonio, name, lambda obj: calls.append(name) or original(obj))

        counting("purity_report_to_json")
        counting("signature_to_json")
        code, out, _ = _main_in_process(["rigidity", "--partition", "2,1",
                                         str(CORPUS / "inertia_pair.json")])
        assert code == 0 and len(json.loads(out)["result"]["report"]["points"]) == 51
        assert calls.count("purity_report_to_json") == 2
        assert calls.count("signature_to_json") == 3

    def test_digest_tracks_content(self):
        _, env = run_command(CommandRequest("validate", SP2))
        assert env["input_digest"].startswith("sha256:")

    @pytest.mark.parametrize("command", ["validate", "frss"])
    def test_input_is_read_once(self, monkeypatch, command):
        """The digest names the very bytes that were parsed: the input is
        opened once, so a rewrite between digest and parse cannot split them."""
        opened = []
        real_open = builtins.open

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, env = run_command(CommandRequest(command, SP2))
        assert code == 0 and opened.count(SP2) == 1
        digest = hashlib.sha256(Path(SP2).read_bytes()).hexdigest()
        assert env["input_digest"] == "sha256:" + digest

    def test_missing_input_names_the_path(self, tmp_path):
        path = str(tmp_path / "absent.json")
        code, env = run_command(CommandRequest("frss", path))
        assert code == 2 and env["input_digest"] is None
        assert env["diagnostics"] == [
            f"FileNotFoundError: [Errno 2] No such file or directory: {path!r}"]

    def test_main_writes_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", SP2, "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["ok"] is True

    def test_main_table_to_stdout(self, capsys):
        code = main(["frss", SP2, "--format", "table"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Sp_2 of x-1/5" in captured


class TestTableFormat:
    def test_table_golden(self):
        code, env = run_command(CommandRequest(
            "rigidity", FLAGSHIP, partition="1", points="-1..1"))
        assert code == 0
        digest = env["input_digest"]
        expected = (
            f"tool: wdreps 0.1.0\n"
            f"command: rigidity\n"
            f"input: {digest}\n"
            f"partition: 1\n"
            f"verdict: pass\n"
            f"generic signature:\n"
            f"  Sp_2 of x-1/5\n"
            f"point -1: pure (weight -1); signature: Sp_2 of x-1/5\n"
            f"point 0: impure (weight -1); signature: Sp_1 of x^2-6/5*x+1/5\n"
            f"point 1: pure (weight -1); signature: Sp_2 of x-1/5\n"
        )
        assert render_table(env) == expected

    def test_json_payload_golden(self):
        code, env = run_command(CommandRequest("frss", SP2))
        assert code == 0
        from wdreps.jsonio import canonical_json_bytes
        golden = (
            b'{\n'
            b'  "representation": {\n'
            b'    "field": {\n'
            b'      "type": "Q"\n'
            b'    },\n'
            b'    "inertia": [],\n'
            b'    "nilp": [\n'
            b'      [\n        "0",\n        "0"\n      ],\n'
            b'      [\n        "1",\n        "0"\n      ]\n    ],\n'
            b'    "phi": [\n'
            b'      [\n        "1",\n        "0"\n      ],\n'
            b'      [\n        "0",\n        "1/5"\n      ]\n    ],\n'
            b'    "q": 5\n'
            b'  },\n'
            b'  "signature": [\n'
            b'    {\n'
            b'      "charpoly": [\n        "-1/5",\n        "1"\n      ],\n'
            b'      "t": 2\n'
            b'    }\n'
            b'  ]\n'
            b'}\n'
        )
        assert canonical_json_bytes(env["result"]) == golden

    def test_table_is_projection_of_json(self):
        # every signature and verdict in the table appears in the JSON
        code, env = run_command(CommandRequest(
            "rigidity", FLAGSHIP, partition="2", points="-2..2"))
        table = render_table(env)
        report = env["result"]["report"]
        assert report["verdict"] in table
        for point in report["points"]:
            assert f"point {point['a']}:" in table
            if point["purity"] is not None:
                assert point["purity"]["verdict"] in table


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter: (exit code, stderr, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wdreps.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr, time.perf_counter() - start


def _one_dim_rep(tmp_path, field, phi):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"q": 5, "field": field, "phi": [[phi]],
                                "nilp": [["0"]], "inertia": []}))
    return str(path)


class TestDocumentShapeErrors:
    """A document whose matrices or q break a representation's shape
    invariants is refused by `WDRep` itself: `validate` exits 2 with a
    ParseError naming the problem."""

    RIGHT = {"q": 5, "field": {"type": "Q"}, "phi": [["1", "0"], ["0", "5"]],
             "nilp": [["0", "0"], ["0", "0"]], "inertia": []}

    @pytest.mark.parametrize("change, message", [
        ({"phi": [["1", "0"]]}, "phi and nilp must be square"),
        ({"nilp": [["0"]]}, "phi and nilp must have equal size"),
        ({"inertia": [{"label": "g", "matrix": [["-1"]]}]},
         "inertia 'g' has wrong shape or field"),
        ({"q": 1}, "q must be an integer >= 2"),
        ({"q": "5"}, "q must be an integer >= 2"),
        ({"q": True}, "q must be an integer >= 2"),
        ({"inertia": [{"label": "g", "matrix": [["1", "0"], ["0", "1"]]},
                      {"label": "g", "matrix": [["-1", "0"], ["0", "-1"]]}]},
         "inertia label 'g' is repeated"),
    ], ids=["non-square phi", "unequal sizes", "inertia size", "q 1", "q string", "q bool",
            "repeated label"])
    def test_validate_exits_2_naming_the_problem(self, tmp_path, change, message):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({**self.RIGHT, **change}))
        code, env = run_command(CommandRequest("validate", str(path)))
        assert code == 2 and env["result"] is None
        assert env["diagnostics"] == [f"ParseError: {path}: {message}"]

    def test_etale_frobenius_validates_through_the_adjugate(self, tmp_path):
        """Both entries of phi's first column divide zero in Q[a]/(a^2-1),
        so the inverse runs the Cayley-Hamilton adjugate over det 2."""
        path = tmp_path / "etale.json"
        path.write_text(json.dumps({
            "q": 5, "field": {"type": "NumberField", "minpoly": [-1, 0, 1]},
            "phi": [["a+1", "1"], ["a-1", "1"]], "nilp": [["0", "0"], ["0", "0"]]}))
        code, env = run_command(CommandRequest("validate", str(path)))
        assert code == 0 and env["result"] == {"ok": True, "violation": None}


class TestHostileInput:
    """Oversized or degenerate input exits 2 quickly, without a traceback."""

    def test_deeply_nested_scalar(self, tmp_path):
        path = _one_dim_rep(tmp_path, {"type": "Q"}, "(" * 5000 + "1" + ")" * 5000)
        code, err, seconds = _run_cli("validate", path)
        assert code == 2
        assert "Traceback" not in err and "nested deeper" in err
        assert seconds < 10

    def test_eps_below_min_eps(self, tmp_path):
        # refused by the parser before the document is loaded; certifying it
        # would run every refinement round on 200,000-digit widths
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"q": 2, "field": {"type": "Q"}, "phi": [["0", "2"], ["1", "0"]],
                                    "nilp": [["0", "0"], ["0", "0"]]}))
        start = time.perf_counter()
        code, env = run_command(CommandRequest("purity", str(path), eps="1e-4817"))
        assert time.perf_counter() - start < 1
        assert code == 2 and env["diagnostics"] == [
            "ParseError: eps below 2^-16000 cannot be certified"]
        # 10^200000 is never formed: the literal parser sizes it first
        start = time.perf_counter()
        code, env = run_command(CommandRequest("purity", str(path), eps="1e-200000"))
        assert time.perf_counter() - start < 1
        assert code == 2 and env["diagnostics"] == [
            "ParseError: rational '1e-200000' has a numerator or denominator beyond "
            f"{MAX_SCALAR_BITS} bits (MAX_SCALAR_BITS)"]
        # 2^-16000 lies between 10^-4817 and 10^-4816
        assert cli.parse_eps("1e-4816") == Fraction(1, 10 ** 4816)
        with pytest.raises(ParseError):
            cli.parse_eps("1e-4817")
        code, err, _ = _run_cli("purity", "--eps", "1e-200000", str(path))
        assert code == 2 and "Traceback" not in err

    def test_rational_beyond_the_int_conversion_limit(self, tmp_path):
        # 2^20000 has 6,021 digits, more than Python converts from a string
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            eps = "1/" + str(2 ** 20000)
        finally:
            sys.set_int_max_str_digits(limit)
        path = _one_dim_rep(tmp_path, {"type": "Q"}, "1")
        code, err, _ = _run_cli("purity", "--eps", eps, path)
        assert code == 2 and "Traceback" not in err
        assert f"more than {limit} digits" in err and "exponent form" in err

    @pytest.mark.parametrize("command, option, value", [
        ("purity", "eps", "1e-99999999"),
        ("specialize", "point", "1e-9999999"),
        ("scan", "points", "1,1e-9999999"),
        ("scan", "points", "3,-2.5e16384"),
    ])
    def test_rational_literal_beyond_the_bit_bound(self, command, option, value):
        """--eps, --point and --points refuse a literal whose numerator or
        denominator would pass MAX_SCALAR_BITS before forming 10^k."""
        start = time.perf_counter()
        code, env = run_command(CommandRequest(command, FLAGSHIP, partition="1",
                                               **{option: value}))
        assert time.perf_counter() - start < 1
        assert code == 2
        (diagnostic,) = env["diagnostics"]
        assert diagnostic.startswith("ParseError: rational ")
        assert diagnostic.endswith(f"beyond {MAX_SCALAR_BITS} bits (MAX_SCALAR_BITS)")

    def test_json_coefficient_beyond_the_bit_bound(self, tmp_path):
        path = _one_dim_rep(tmp_path, {"type": "Qt"}, {"num": ["1e-3000000"], "den": [1]})
        code, err, seconds = _run_cli("validate", path)
        assert code == 2 and "Traceback" not in err and seconds < 10
        assert "phi[0][0]: rational '1e-3000000'" in err and "(MAX_SCALAR_BITS)" in err
        minpoly = _one_dim_rep(tmp_path, {"type": "NumberField",
                                          "minpoly": ["-2e20000", 0, 1]}, "1")
        code, env = run_command(CommandRequest("validate", minpoly))
        assert code == 2 and "(MAX_SCALAR_BITS)" in env["diagnostics"][0]

    def test_rational_literals_within_the_bit_bound(self):
        # exponent forms are sized after their trailing zeros: 10^16383 /
        # 10^16383 is 1, and a zero mantissa is 0 whatever its exponent
        assert parse_rational("1" + "0" * 4000 + "e-4000") == 1
        assert parse_rational("0e-99999999") == 0
        assert parse_rational("-2.5e3") == -2500
        assert parse_rational("1_000e-3") == 1
        assert parse_rational("1e-4800") == Fraction(1, 10 ** 4800)
        assert cli.parse_eps("1e-4800") == Fraction(1, 10 ** 4800)
        with pytest.raises(ParseError, match="bad rational number"):
            parse_rational("1__0")

    @pytest.mark.parametrize("command, option, value", [
        ("purity", "eps", "1e-" + "9" * 5000),
        ("specialize", "point", "1e-" + "9" * 5000),
        ("scan", "points", "1," + "x" * 5000),
        ("scan", "points", "-" + "1" * 5000 + "..2"),
    ], ids=["eps", "point", "points-list", "points-range"])
    def test_long_literal_diagnostic_is_an_excerpt(self, command, option, value):
        """A refused literal is quoted by its first 64 characters, then its
        length, so the diagnostic stays short however long the literal."""
        code, env = run_command(CommandRequest(command, FLAGSHIP, partition="1",
                                               **{option: value}))
        assert code == 2
        (diagnostic,) = env["diagnostics"]
        assert len(diagnostic.encode()) < 300
        literal = value.split(",")[-1]
        assert f"{literal[:64]!r}… ({len(literal)} characters)" in diagnostic

    def test_long_literal_diagnostic_on_stderr(self):
        code, err, _ = _run_cli("purity", "--eps", "1e-" + "9" * 5000, FLAGSHIP)
        assert code == 2 and "Traceback" not in err
        assert len(err.encode()) < 300

    def test_long_scalar_expression_diagnostic_is_an_excerpt(self):
        text = "t" + "+t" * 3000 + ")"
        with pytest.raises(ParseError) as info:
            parse_scalar_expression(text, QT)
        assert len(str(info.value)) < 300
        assert str(info.value) == f"trailing input in scalar {text[:64]!r}… (6002 characters)"
        # a short literal is quoted whole, as before
        with pytest.raises(ParseError, match=r"^trailing input in scalar 't\)'$"):
            parse_scalar_expression("t)", QT)

    @pytest.mark.parametrize("field, phi", [({"type": "Q"}, "1" * 5000),
                                            ({"type": "Qt"}, "t+" + "1" * 5000)],
                             ids=["Q", "Qt"])
    def test_scalar_beyond_the_int_conversion_limit(self, tmp_path, field, phi):
        """A digit run longer than Python converts from a string is refused
        with the limit named, as for a rational literal."""
        path = _one_dim_rep(tmp_path, field, phi)
        code, env = run_command(CommandRequest("validate", path))
        assert code == 2
        assert env["diagnostics"] == [
            f"ParseError: {path}: phi[0][0]: integer of more than {sys.get_int_max_str_digits()} "
            f"digits (Python's int-conversion limit) in scalar {phi[:64]!r}… "
            f"({len(phi)} characters)"]

    @pytest.mark.parametrize("text", ["[" * 2000 + "]" * 2000, '{"a": ' * 2000 + "1" + "}" * 2000],
                             ids=["arrays", "objects"])
    def test_json_nested_beyond_the_recursion_limit(self, tmp_path, text):
        """The decoder's RecursionError is an input error naming the limit."""
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, env = run_command(CommandRequest("validate", str(path)))
        assert code == 2 and env["diagnostics"] == [
            f"ParseError: {path}: arrays or objects nested deeper than Python's recursion "
            f"limit ({sys.getrecursionlimit()})"]
        code, err, _ = _run_cli("validate", str(path))
        assert code == 2 and "Traceback" not in err and "recursion limit" in err

    def test_undecodable_document(self, tmp_path):
        """A byte that is not UTF-8 is an input error naming the path and
        its offset; no traceback and no codec text reach the user."""
        path = tmp_path / "rep.json"
        path.write_bytes(b'{"q": 5, "field": {"type": "Q"}, "phi": [["1\xff"]], "nilp": [["0"]]}')
        code, env = run_command(CommandRequest("validate", str(path)))
        assert code == 2 and env["diagnostics"] == [
            f"ParseError: {path}: byte 44: not valid utf-8 (invalid start byte)"]
        code, err, _ = _run_cli("validate", str(path))
        assert code == 2 and "Traceback" not in err and "UnicodeDecodeError" not in err
        assert f"{path}: byte 44" in err

    def test_json_integer_beyond_the_int_conversion_limit(self, tmp_path):
        """A JSON integer literal longer than Python converts is refused with
        the limit named, as a scalar string is."""
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "rep.json"
        path.write_text('{"q": ' + "7" * (limit + 700) + ', "field": {"type": "Q"}, '
                        '"phi": [["1"]], "nilp": [["0"]]}')
        code, env = run_command(CommandRequest("validate", str(path)))
        assert code == 2 and env["diagnostics"] == [
            f"ParseError: {path}: integer of more than {limit} digits (Python's "
            "int-conversion limit) in a JSON number"]

    def test_float_minpoly(self, tmp_path):
        path = _one_dim_rep(tmp_path, {"type": "NumberField", "minpoly": [-2.0, 0, 1.0]}, "1")
        code, err, _ = _run_cli("validate", path)
        assert code == 2
        assert "Traceback" not in err and "must be integers or 'a/b' strings" in err

    def test_huge_weight(self):
        """q^(w+k) with w = 10^7 has about 2.3 * 10^7 bits; bit lengths alone
        show it far above every enclosure, so no such power is formed."""
        start = time.perf_counter()
        code, env = run_command(CommandRequest("purity", SP2, weight="10000000"))
        assert time.perf_counter() - start < 1
        assert code == 0
        _, expected = run_command(CommandRequest("purity", SP2, weight="-1"))
        purity = expected["result"]["purity"]
        assert purity["verdict"] == "pure"
        purity.update(verdict="impure", weight=10_000_000)
        for piece in purity["graded"]:
            for root in piece["roots"]:
                root["match"] = False
        assert env["result"] == expected["result"]

    def test_oversized_point_range(self):
        code, err, seconds = _run_cli("scan", "--partition", "2", "--points",
                                      "-100000..100000", FLAGSHIP)
        assert code == 2
        assert "Traceback" not in err and "200001 scan points requested" in err
        assert seconds < 10

    def test_huge_exponent(self, tmp_path):
        path = _one_dim_rep(tmp_path, {"type": "Qt"}, "t^200000")
        code, err, seconds = _run_cli("validate", path)
        assert code == 2
        assert "Traceback" not in err and "power beyond" in err
        assert seconds < 10

    @pytest.mark.parametrize("phi, point, error", [
        ([["1/(t-1)", "0"], ["0", "1/5"]], "1", "DenominatorVanishes"),
        ([["t", "0"], ["0", "1/5"]], "0", "SingularFrobenius"),
    ])
    def test_specialize_at_pole_or_singular_point(self, tmp_path, phi, point, error):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"q": 5, "field": {"type": "Qt"}, "phi": phi,
                                    "nilp": [["0", "0"], ["0", "0"]], "inertia": []}))
        code, err, _ = _run_cli("specialize", "--point", point, str(path))
        assert code == 2
        assert "Traceback" not in err and error in err

    def test_unwritable_output_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        code, err, _ = _run_cli("validate", SP2, "--output", str(target))
        assert code == 2
        assert "Traceback" not in err and "cannot write the report" in err

    def test_zero_divisor_column_in_etale_algebra(self, tmp_path):
        # no entry of the first column is invertible in Q[a]/(a^2-1); phi is
        # invertible when its determinant is a unit (2), not when it divides
        # zero (a+1); the charpoly of diag(a, 1) has no squarefree part by
        # Euclid over the algebra (a - 1 divides zero), only over Q
        path = tmp_path / "etale.json"
        for phi, code in (([["a+1", "1"], ["a-1", "1"]], 0),
                          ([["a+1", "0"], ["0", "1"]], 2),
                          ([["a", "0"], ["0", "1"]], 0)):
            path.write_text(json.dumps({
                "q": 5, "field": {"type": "NumberField", "minpoly": [-1, 0, 1]},
                "phi": phi, "nilp": [["0", "0"], ["0", "0"]], "inertia": []}))
            for argv in (["validate", str(path)], ["frss", str(path)]):
                got, err, _ = _run_cli(*argv)
                assert got == code
                assert "Traceback" not in err
                assert ("phi is singular" in err) == bool(code)

    @pytest.mark.parametrize("partition, document, code, diagnostic", [
        # the symmetrizer of (7) has 5040 terms
        ("7", None, 2, "(MAX_SYMMETRIZER_TERMS)"),
        ("100000000", None, 2, "(MAX_SYMMETRIZER_TERMS)"),
        # seven antisymmetric slots in a plane: the image is 0, c is never formed
        ("1,1,1,1,1,1,1", SP2, 0, None),
        # 3^(10^7) is not formed to be compared with the cap
        ("10000000", str(CORPUS / "sp3_chain.json"), 2,
         "ResourceCapExceeded: tensor space 3^10000000 exceeds 4096 (MAX_TENSOR_SIZE)"),
    ])
    def test_oversized_partition(self, tmp_path, partition, document, code, diagnostic):
        path = document or _one_dim_rep(tmp_path, {"type": "Q"}, "1")
        start = time.perf_counter()
        got, env = run_command(CommandRequest("schur", path, partition=partition))
        assert time.perf_counter() - start < 1
        assert got == code
        if diagnostic is None:
            assert env["diagnostics"] == []
            image = env["result"]["representation"]
            assert image["phi"] == image["nilp"] == []
        else:
            assert len(env["diagnostics"]) == 1 and diagnostic in env["diagnostics"][0]


def test_purity_of_a_long_product_chain(tmp_path):
    """A 1 x 1 Frobenius 5^200000, written as 200 factors 5^1000: the parser
    refuses the product once it passes `MAX_SCALAR_BITS`, an input error
    that names the bound, long before the value is formed."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"q": 5, "field": {"type": "Q"},
                                "phi": [["*".join(["5^1000"] * 200)]],
                                "nilp": [["0"]], "inertia": []}))
    start = time.process_time()
    code, _, err = _main_in_process(["purity", str(path)])
    assert code == 2 and "Traceback" not in err
    assert f"beyond {MAX_SCALAR_BITS} bits (MAX_SCALAR_BITS)" in err
    assert time.process_time() - start < 0.5


def test_purity_of_degree_8_frobenius(tmp_path):
    """x^8 + 625 is a Weil polynomial of weight 1 for q = 5: every root has
    modulus sqrt(5). Its companion matrix certifies pure in a fresh process."""
    phi = [["1" if i == j + 1 else "0" for j in range(7)] + ["-625" if i == 0 else "0"]
           for i in range(8)]
    path = tmp_path / "degree8.json"
    path.write_text(json.dumps({"q": 5, "field": {"type": "Q"}, "phi": phi,
                                "nilp": [["0"] * 8 for _ in range(8)], "inertia": []}))
    report = tmp_path / "report.json"
    code, err, seconds = _run_cli("purity", str(path), "--output", str(report))
    assert code == 0, err
    purity = json.loads(report.read_text())["result"]["purity"]
    assert purity["verdict"] == "pure" and purity["weight"] == 1
    assert seconds < 10


# ---------------------------------------------------------------------------
# CLI fuzzing: mutated corpus documents and argument lists for every
# subcommand, run in-process
# ---------------------------------------------------------------------------

COMMANDS = ("validate", "schur", "frss", "filtration", "purity", "specialize", "scan",
            "rigidity")


def _fuzz_invocations():
    """(document, argument list after the input path, command)."""
    st = pytest.importorskip("hypothesis.strategies")
    corpus = {p.name: json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))}
    scalars = st.sampled_from(["0", "1", "-1", "5", "1/5", "1/25", "t", "-t", "t+1",
                               "1/(t-1)", "t^2", "a", "1/0", "x", "", 7, -2, True, None, 1.5,
                               "*".join(["5^1000"] * 8)])  # past MAX_SCALAR_BITS
    fields = st.sampled_from([{"type": "Q"}, {"type": "Qt"}, {"type": "R"},
                              {"type": "NumberField", "minpoly": [-2, 0, 1]},
                              {"type": "NumberField", "minpoly": [-1, 0, 1]}])

    @st.composite
    def documents(draw):
        doc = json.loads(json.dumps(corpus[draw(st.sampled_from(sorted(corpus)))]))
        n = len(doc["phi"])
        for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
            kind = draw(st.integers(0, 5))
            if kind == 0:
                matrices = [doc[k] for k in ("phi", "nilp") if isinstance(doc.get(k), list)]
                matrices += [g["matrix"] for g in doc.get("inertia") or []
                             if isinstance(g, dict) and isinstance(g.get("matrix"), list)]
                if matrices:
                    row = draw(st.sampled_from(draw(st.sampled_from(matrices))))
                    if row:
                        row[draw(st.integers(0, len(row) - 1))] = draw(scalars)
            elif kind == 1:
                doc["q"] = draw(st.sampled_from([2, 3, 5, 7, 25, 1, 0, "5"]))
            elif kind == 2:
                doc["field"] = draw(fields)
            elif kind == 3:
                doc["inertia"] = draw(st.sampled_from([[], [{"label": "h", "matrix": [
                    ["-1" if i == j == 0 else "1" if i == j else "0" for j in range(n)]
                    for i in range(n)]}]]))
            elif kind == 4:
                doc.pop(draw(st.sampled_from(["q", "field", "phi", "nilp", "inertia"])), None)
            else:
                doc["nilp"] = [["0"] * n for _ in range(n)]
        return doc

    flags = {
        "--partition": ["1", "2", "1,1", "2,1", "3", "2", "2,1", "0", "1,2", "x"],
        "--points": ["0..2", "-1..1", "1/2,3", "1..1", "0..2", "5..3", "x", "-3..-1"],
        "--point": ["0", "1", "1/2", "-1", "2", "x", "1/0"],
        "--weight": ["infer", "infer", "0", "-1", "2", "x"],
        "--eps": ["1/1000", "1/1000000", "1/1000", "0", "-1", "x"],
        "--format": ["json", "table", "json", "xml"],
        "--bogus": ["1"],
    }
    # percent chance of each flag: a scan always gets a small --points
    # range, required flags are usually there, optional ones often and
    # foreign ones rarely
    scan = {"--partition": 90, "--points": 100, "--weight": 40, "--eps": 40}
    chances = {"schur": {"--partition": 90}, "purity": {"--weight": 40, "--eps": 40},
               "specialize": {"--point": 90}, "scan": scan, "rigidity": scan}

    @st.composite
    def invocations(draw):
        command = draw(st.sampled_from(COMMANDS))
        own = chances.get(command, {})
        args = []
        for flag, values in flags.items():
            chance = 40 if flag == "--format" else own.get(flag, 3)
            if draw(st.integers(0, 99)) < chance:
                args += [flag, draw(st.sampled_from(values))]
        return draw(documents()), args, command

    return invocations()


def _main_in_process(argv):
    """(exit code, stdout bytes, stderr text) of `cli.main(argv)`."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
        stdout.flush()
    return code, out.getvalue(), err.getvalue()


def test_cli_fuzz(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "doc.json"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_fuzz_invocations())
    def run(case):
        doc, args, command = case
        path.write_text(json.dumps(doc))
        code, out, err = _main_in_process([command, str(path), *args])
        assert code in (0, 1, 2, 3), err  # 4 is a program fault
        assert "Traceback" not in err
        if code == 1:
            assert command == "rigidity"
            if b"verdict: " in out:
                assert b"verdict: fail" in out
            else:
                assert json.loads(out)["result"]["report"]["verdict"] == "fail"

    run()


def _document(tmp_path, name, field, phi, nilp, inertia=()):
    path = tmp_path / name
    path.write_text(json.dumps({"q": 5, "field": {"type": field}, "phi": phi, "nilp": nilp,
                                "inertia": list(inertia)}))
    return str(path)


class TestRareBranches:
    """User-visible branches that no golden reaches, each pinned by its exit
    code and its text."""

    def test_table_violation_line(self, tmp_path):
        path = _document(tmp_path, "singular.json", "Q", [["0"]], [["0"]])
        req = CommandRequest("validate", path, format="table")
        code, env = run_command(req)
        assert code == 2
        lines = cli.render(req, env).decode().splitlines()
        assert lines[3:] == ["ok: false", "violation: phi is singular",
                             "note: validation: phi is singular"]

    def test_table_failures_line(self, monkeypatch):
        real = families.rigidity_check
        monkeypatch.setattr(families, "rigidity_check", lambda report: real(report).replace(
            verdict="fail", failures=(Fraction(1), Fraction(2))))
        req = CommandRequest("rigidity", FLAGSHIP, partition="1", points="1..2", format="table")
        code, env = run_command(req)
        assert code == 1
        lines = cli.render(req, env).decode().splitlines()
        assert lines[4:6] == ["verdict: fail", "failures: 1, 2"]
        assert "note: rigidity fail at points: 1, 2" in lines

    def test_table_undefined_and_unweighted_points(self, tmp_path):
        """A pole at 0, an inferred weight that is no power of q at 2, and a
        generic charpoly with Q(t) coefficients, shown as its raw array."""
        path = _document(tmp_path, "pole.json", "Qt", [["1/t"]], [["0"]])
        req = CommandRequest("scan", path, partition="1", points="-1..2", format="table")
        code, env = run_command(req)
        assert code == 0
        undefined = "DenominatorVanishes: a denominator vanishes at t = 0"
        unweighted = "NonIntegralWeight: |det|^2 on graded piece 0 is not a power of q = 5"
        assert cli.render(req, env).decode().splitlines()[3:] == [
            "partition: 1",
            "generic signature:",
            "  Sp_1 of [(-1)/(t), 1]",
            "point -1: pure (weight 0); signature: Sp_1 of x+1",
            f"point 0: undefined ({undefined})",
            "point 1: pure (weight 0); signature: Sp_1 of x-1",
            f"point 2: no purity verdict ({unweighted})",
            f"note: point 0: {undefined}",
            f"note: point 2: {unweighted}"]

    @pytest.mark.parametrize("request_, diagnostic", [
        (CommandRequest("scan", FLAGSHIP, partition="1", points=" , "),
         "ParseError: empty point list"),
        (CommandRequest("purity", SP2, weight="x"),
         "ParseError: weight must be an integer or 'infer', got 'x'"),
        (CommandRequest("schur", SP2), "ParseError: schur requires --partition"),
        (CommandRequest("rigidity", FLAGSHIP), "ParseError: rigidity requires --partition"),
        (CommandRequest("transpose", SP2), "ParseError: unknown command 'transpose'"),
    ], ids=["empty points", "weight", "schur partition", "rigidity partition", "command"])
    def test_request_errors_exit_2(self, request_, diagnostic):
        code, env = run_command(request_)
        assert code == 2 and env["result"] is None
        assert env["diagnostics"] == [diagnostic]

    @pytest.mark.parametrize("phi, nilp, inertia, diagnostic", [
        ([["(1+2"]], [["0"]], [], "ParseError: {}: phi[0][0]: unbalanced parentheses in '(1+2'"),
        ([["1"]], [["0"]], [{"label": "", "matrix": [["1"]]}],
         "ParseError: {}: inertia[0]: label must be a nonempty string"),
        ([["2"]], [["0"]], [],
         "NonIntegralWeight: |det|^2 on graded piece 0 is not a power of q = 5"),
        ([["1", "0", "0"], ["0", "1/5", "0"], ["0", "0", "25"]],
         [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]], [],
         "NonIntegralWeight: inconsistent inferred weights [-1, 4]"),
    ], ids=["parentheses", "label", "weight not a power of q", "inconsistent weights"])
    def test_document_errors_exit_2(self, tmp_path, phi, nilp, inertia, diagnostic):
        path = _document(tmp_path, "rep.json", "Q", phi, nilp, inertia)
        code, env = run_command(CommandRequest("purity", path))
        assert code == 2 and env["result"] is None
        assert env["diagnostics"] == [diagnostic.format(path)]

    def test_purity_check_refuses_a_weight_of_another_kind(self):
        from wdreps.jsonio import load_wdrep
        with pytest.raises(ValueError, match="weight must be an integer or 'infer'"):
            wd.purity_check(load_wdrep(SP2), "-1")

    def test_unspecializable_generic_signature_is_an_internal_error(self, monkeypatch):
        """The generic signature specializes at every pure point (see
        `rigidity_check`), so an exception there is a fault of the program:
        exit 4, never a fail verdict."""
        def broken(sig, point):
            raise ZeroDivisionError(f"denominator vanishes at t = {point}")

        monkeypatch.setattr(families, "specialize_signature", broken)
        code, env = run_command(CommandRequest("rigidity", FLAGSHIP, partition="1",
                                               points="1..2"))
        assert code == cli.EXIT_INTERNAL == 4 and env["result"] is None
        [diagnostic] = env["diagnostics"]
        assert diagnostic.startswith("internal error: ZeroDivisionError: denominator "
                                     "vanishes at t = 1 (raised in broken, test_cli.py:")
