"""Byte-for-byte check of the checked-in golden envelopes: the README's
CLI examples, the rigidity cases of the corpus workload and the inertia21
case, run in-process.  The goldens under bench/golden are only read
here, never written."""

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
