"""Byte-for-byte check of the checked-in golden envelopes: the README's
CLI examples, the rigidity cases of the corpus workload, the inertia21
case and the two generated Q(t) families, run in-process; and checks
that bench/tracer.py still finds every function it traces and that each
workload, cut down to a point or two, still calls every span its
bench/layers.json rows name.  The goldens under bench/golden and the
files bench/gen.py and bench/run.py are only read here, never written."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wdreps.cli import parse_request, render, run_command

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden"


def rigidity(partition, path):
    return ["rigidity", "--partition", partition, path]


# bench/golden/corpus/NN.out holds the envelope of INVOCATIONS[NN]
INVOCATIONS = [
    ["validate", "corpus/sp2.json"],
    ["purity", "--weight", "-1", "corpus/sp2.json", "--format", "table"],
    ["schur", "--partition", "2,1", "corpus/sp2.json"],
    ["frss", "corpus/sp2.json", "--format", "table"],
    ["filtration", "corpus/sp2.json", "--format", "table"],
    ["specialize", "--point", "3", "corpus/flagship.json"],
    ["scan", "--partition", "2", "--points", "-5..5", "corpus/flagship.json"],
    ["rigidity", "--partition", "2", "--points", "-25..25", "--weight", "infer",
     "corpus/flagship.json", "--format", "table"],
    rigidity("2", "corpus/flagship.json"),
    rigidity("3", "corpus/flagship.json"),
    rigidity("4", "corpus/flagship.json"),
    rigidity("2", "corpus/flagship_constant.json"),
    rigidity("2", "corpus/conjugated_irrational.json"),
    rigidity("2", "corpus/inertia_pair.json"),
    rigidity("2", "corpus/sp3_chain.json"),
    rigidity("3", "corpus/sp3_chain.json"),
    rigidity("2,1", "corpus/sp3_chain.json"),
]


def check(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    req = parse_request(argv)
    code, envelope = run_command(req)
    assert code == 0
    assert render(req, envelope) == golden.read_bytes()


@pytest.mark.parametrize("index", range(len(INVOCATIONS)))
def test_envelope_matches_golden(index, monkeypatch):
    check(INVOCATIONS[index], GOLDEN / "corpus" / f"{index:02d}.out", monkeypatch)


def test_inertia21_matches_golden(monkeypatch):
    check(rigidity("2,1", "corpus/inertia_pair.json"), GOLDEN / "inertia21" / "00.out",
          monkeypatch)


def _readme_examples():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("wdreps ")]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_fresh_process_writes_the_in_process_report(argv, tmp_path, monkeypatch):
    """Each README example in a fresh `wdreps` process, once to stdout and
    once to --output, gives the exit code and bytes of the in-process run:
    the exit hook that spares the interpreter its final collections runs
    after the report is written."""
    monkeypatch.chdir(ROOT)
    req = parse_request(argv)
    code, envelope = run_command(req)
    expected = render(req, envelope)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    entry = [sys.executable, "-c", "import sys; from wdreps.cli import main; sys.exit(main())"]
    report = tmp_path / "report"
    to_stdout = subprocess.run([*entry, *argv], cwd=ROOT, env=env, capture_output=True,
                               timeout=120)
    to_file = subprocess.run([*entry, *argv, "--output", str(report)], cwd=ROOT, env=env,
                             capture_output=True, timeout=120)
    assert (to_stdout.returncode, to_stdout.stdout) == (code, expected)
    assert (to_file.returncode, to_file.stdout, report.read_bytes()) == (code, b"", expected)


def _load_generator():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the golden of each generated workload is the envelope for its seed-1 document
GENERATED = {
    "dense-qt": ("dense_qt", ["--partition", "2", "--points", "-3..3"]),
    "wedge-tight": ("wedge_tight", ["--partition", "1,1,1,1", "--points", "-2..2",
                                    "--eps", "1/1" + "0" * 2000]),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_family_matches_golden(name, tmp_path, monkeypatch):
    gen = _load_generator()
    generator, options = GENERATED[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(gen.document_bytes(getattr(gen, generator)(1)))
    check(["rigidity", *options, str(path)], GOLDEN / name / "00.out", monkeypatch)


def test_tracer_binds_every_span():
    """`bench/run.py --trace 1` wraps each function that bench/tracer.py
    names at its module bindings; a deleted or renamed one fails install."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", "import tracer; tracer.Recorder().install()"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_workloads_call_every_layer_row(tmp_path, monkeypatch):
    """The check `bench/run.py --trace 1` makes after its traced pass,
    `check_bindings`, on each workload run through bench/tracer.py at one
    or two points: a call the layer rows need that a change removes (such
    as the det of a Q(t) matrix) fails here, not only in a traced run."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    gen = _load_generator()
    docs = {}
    for name, generator in (("dense-qt", gen.dense_qt), ("wedge-tight", gen.wedge_tight)):
        docs[name] = str(tmp_path / f"{name}.json")
        Path(docs[name]).write_bytes(gen.document_bytes(generator(1)))
    cases = {
        "inertia21": [run.rigidity("2,1", "corpus/inertia_pair.json", "--points", "1..2")],
        "corpus": [["validate", "corpus/sp2.json"], ["frss", "corpus/sp2.json"]],
        "dense-qt": [run.rigidity("2", docs["dense-qt"], "--points", "1..1")],
        "wedge-tight": [run.rigidity("1,1,1,1", docs["wedge-tight"], "--points", "1..1",
                                     "--eps", run.EPS_2000)],
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, invocations in cases.items():
        spans = {}
        for index, argv in enumerate(invocations):
            stats = tmp_path / f"{name}-{index}.json"
            proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(stats),
                                   *argv], cwd=ROOT, env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            for key, (calls, _, _) in json.loads(stats.read_text())["spans"].items():
                spans[key] = [spans.get(key, [0])[0] + calls]
        assert run.check_bindings(name, spans) == [], name


def test_wedge_tight_brackets_each_purity_decision_once(tmp_path, monkeypatch):
    """A scan meets the same (charpoly, eps, q, j) at many points; purity
    brackets the interval ends of each (interval, q, j) once per process,
    whichever charpoly it comes from: the wedge-tight run matches 75
    intervals over its points, and brackets 12, its distinct decisions (the
    15 distinct intervals of its 8 distinct keys, of which 3 recur under a
    second charpoly)."""
    from wdreps import wd
    from wdreps.roots import ModulusInterval

    gen = _load_generator()
    generator, options = GENERATED["wedge-tight"]
    path = tmp_path / "wedge-tight.json"
    path.write_bytes(gen.document_bytes(getattr(gen, generator)(1)))
    calls = []
    half_power_range = ModulusInterval.half_power_range
    monkeypatch.setattr(ModulusInterval, "half_power_range",
                        lambda iv, q: calls.append(q) or half_power_range(iv, q))
    wd._certified_matches.cache_clear()
    wd._matches.cache_clear()
    check(["rigidity", *options, str(path)], GOLDEN / "wedge-tight" / "00.out", monkeypatch)
    assert len(calls) == 12
