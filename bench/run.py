"""Rigidity benchmark for the `wdreps` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --workload NAME --write-goldens   # default seed only

Run from the repository root.  Every invocation is a fresh
`wdreps` process (the console-script entry point, with PYTHONPATH=src),
run one at a time: a closed loop with a single client, single-threaded,
no concurrency, all on one CPU.  A *pass* is one run of a workload's
invocation list.

--trace 0 times whole passes for about S seconds (at least one), each
after SETUP_SAMPLES fresh `validate` runs of the workload's input
(setup_s), and reports wall_s, points_per_s, setup_s and peak_rss_mb,
plus ops_failed_ratio in the report line.  --trace 1 runs one untraced pass
and one pass through bench/tracer.py, checks the two produce identical
bytes, and reports the per-layer metrics; S is not used.

Times are scaled to a reference CPU speed.  On a shared virtual machine
the same instructions run up to 1.8x slower for seconds to minutes at a
time, which moves a measured wall time by more than any useful bound.
So the benchmark runs probe(), a fixed ~1 ms bit of Fraction arithmetic,
on the same CPU just before each process starts (the median of three)
and every PROBE_EVERY_S while it runs, and counts each stretch of wall
time between probes at REFERENCE_PROBE_S / (that probe's CPU time).
wall_s and setup_s are these scaled times; the measured ones are in the
report's timings.  The probes' own CPU time is left out of both.  The
traced run scales each process's span times by its average factor.

Every invocation's stdout is compared byte for byte with its golden copy
in bench/golden/, after replacing the default seed's input digest with
this seed's (a generated family differs between seeds only by a
conjugation, which changes no reported value).  Exit code, verdict, a
traceback on stderr and byte equality across passes are checked too.
Any mismatch counts as a failed invocation.

The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report with the environment block and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import gen

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"
LAYERS = json.loads((BENCH / "layers.json").read_text())
DEFAULT_SEED = 1
SETUP_SAMPLES = 8  # per pass
INVOCATION_TIMEOUT_S = 150
ENTRY = "import sys; from wdreps.cli import main; sys.exit(main())"
WORK = Path(".bench_work")
PROBE_EVERY_S = 0.1
# CPU seconds probe() takes on an idle core of the machine the bounds in
# BENCHMARK.json were set on (Xeon, 2.1 GHz, Python 3.11); a scaled time
# is the time the run would have taken at that speed.
REFERENCE_PROBE_S = 0.0012

# eps = 1/10^2000 written out, because the CLI's rational parser takes
# only integer fractions.
EPS_2000 = "1/1" + "0" * 2000


def rigidity(partition, path, *extra):
    return ["rigidity", "--partition", partition, *extra, path]


# Each workload: input for `validate` (setup_s), invocation list, and a
# generator for its family, if any ("{input}" stands for the file).
# Every invocation is expected to exit 0; rigidity ones with verdict pass.
WORKLOADS = {
    "inertia21": {
        "input": "corpus/inertia_pair.json",
        "invocations": [rigidity("2,1", "corpus/inertia_pair.json")],
    },
    "corpus": {
        "input": "corpus/sp2.json",
        "invocations": [
            # the README's CLI examples
            ["validate", "corpus/sp2.json"],
            ["purity", "--weight", "-1", "corpus/sp2.json", "--format", "table"],
            ["schur", "--partition", "2,1", "corpus/sp2.json"],
            ["frss", "corpus/sp2.json", "--format", "table"],
            ["filtration", "corpus/sp2.json", "--format", "table"],
            ["specialize", "--point", "3", "corpus/flagship.json"],
            ["scan", "--partition", "2", "--points", "-5..5", "corpus/flagship.json"],
            ["rigidity", "--partition", "2", "--points", "-25..25", "--weight", "infer",
             "corpus/flagship.json", "--format", "table"],
            # ROADMAP 1(a) rigidity cases other than inertia21
            rigidity("2", "corpus/flagship.json"),
            rigidity("3", "corpus/flagship.json"),
            rigidity("4", "corpus/flagship.json"),
            rigidity("2", "corpus/flagship_constant.json"),
            rigidity("2", "corpus/conjugated_irrational.json"),
            rigidity("2", "corpus/inertia_pair.json"),
            rigidity("2", "corpus/sp3_chain.json"),
            rigidity("3", "corpus/sp3_chain.json"),
            rigidity("2,1", "corpus/sp3_chain.json"),
        ],
    },
    "dense-qt": {
        "generator": gen.dense_qt,
        "invocations": [rigidity("2", "{input}", "--points", "-3..3")],
    },
    "wedge-tight": {
        "generator": gen.wedge_tight,
        "invocations": [rigidity("1,1,1,1", "{input}", "--points", "-2..2",
                                 "--eps", EPS_2000)],
    },
}
REQUIRED = ["src/wdreps/cli.py"] + sorted({
    arg for w in WORKLOADS.values() for inv in w["invocations"]
    for arg in inv if arg.startswith("corpus/")})


class Run(NamedTuple):
    seconds: float  # wall time, without the probes
    scaled_s: float  # the same, each stretch scaled to the reference speed
    code: int | None  # None: killed after INVOCATION_TIMEOUT_S
    out: bytes
    err: bytes


def probe() -> float:
    """CPU seconds this thread takes for a fixed bit of Fraction
    arithmetic, the kind of work `wdreps` does.  On a shared virtual
    machine the same work runs up to 1.8x slower in phases of seconds to
    minutes; the probe, run on the benchmark's CPU, measures that."""
    start = time.thread_time()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return time.thread_time() - start


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------

class Invoker:
    """Runs `wdreps` processes and checks each one's output."""

    def __init__(self, name: str, seed: int):
        self.name = name
        spec = WORKLOADS[name]
        self.input = spec.get("input")
        self.digest_swap = None
        WORK.mkdir(exist_ok=True)
        if "generator" in spec:
            data = gen.document_bytes(spec["generator"](seed))
            default = gen.document_bytes(spec["generator"](DEFAULT_SEED))
            self.input = str(WORK / f"{name}-{seed}.json")
            Path(self.input).write_bytes(data)
            self.digest_swap = (sha256(default).encode(), sha256(data).encode())
        self.invocations = [[self.input if a == "{input}" else a for a in inv]
                            for inv in spec["invocations"]]
        src = str(Path("src").resolve())
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.seen: dict[int, bytes] = {}

    def run(self, argv: list[str], prefix: list[str]) -> Run:
        """Run one process to its end, probing the CPU's speed three times
        before it starts and every PROBE_EVERY_S while it runs."""
        self.attempted += 1
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            speed = REFERENCE_PROBE_S / statistics.median(probe() for _ in range(3))
            start = last = time.perf_counter()
            proc = subprocess.Popen(prefix + argv, env=self.env, stdout=out, stderr=err)
            exited = os.pidfd_open(proc.pid)
            ready, pause, probing, scaled = False, 0.0, 0.0, 0.0
            try:
                while True:
                    ready = bool(select.select([exited], [], [], PROBE_EVERY_S)[0])
                    now = time.perf_counter()
                    # the segment since the last probe, without the probe itself
                    scaled += (now - last - pause) * speed
                    if ready or now - start > INVOCATION_TIMEOUT_S:
                        break
                    pause = probe()
                    probing += pause
                    speed = REFERENCE_PROBE_S / pause
                    last = now
            finally:
                os.close(exited)
                if not ready:
                    proc.kill()
                proc.wait()
            elapsed = now - start - probing
            out.seek(0)
            err.seek(0)
            code = proc.returncode if ready else None
            return Run(elapsed, scaled, code, out.read(), err.read())

    def untraced(self, argv) -> Run:
        return self.run(argv, [sys.executable, "-c", ENTRY])

    def traced(self, argv, stats_path: Path) -> Run:
        return self.run(argv, [sys.executable, str(BENCH / "tracer.py"), str(stats_path)])

    def golden_path(self, index: int) -> Path:
        return GOLDEN / self.name / f"{index:02d}.out"

    def expected(self, index: int) -> bytes | None:
        path = self.golden_path(index)
        if not path.exists():
            return None
        data = path.read_bytes()
        if self.digest_swap:
            data = data.replace(*self.digest_swap)
        return data

    def check(self, index: int, code, out: bytes, err: bytes) -> bool:
        """Exit code 0, verdict pass for rigidity, no traceback, the golden
        bytes, and the same bytes as every earlier pass."""
        argv = self.invocations[index]
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if b"Traceback" in err:
            problems.append("traceback on stderr")
        if argv[0] == "rigidity" and verdict(out) != "pass":
            problems.append(f"verdict {verdict(out)}")
        golden = self.expected(index)
        if golden is None:
            problems.append("no golden")
        elif out != golden:
            problems.append("differs from golden")
        if self.seen.setdefault(index, out) != out:
            problems.append("differs from an earlier pass")
        if problems:
            self.fail(argv, ", ".join(problems))
        return not problems

    def fail(self, argv, problem: str):
        self.failed += 1
        self.failures.append(f"{' '.join(argv)[:120]}: {problem}")


def verdict(out: bytes):
    text = out.decode("utf-8", "replace")
    if text.startswith("{"):
        try:
            report = json.loads(text)["result"]["report"]
        except (ValueError, KeyError, TypeError):
            return None
        return report.get("verdict")
    for line in text.splitlines():
        if line.startswith("verdict: "):
            return line[len("verdict: "):]
    return None


def defined_points(out: bytes) -> int:
    """Defined specialization points in a scan or rigidity envelope."""
    text = out.decode("utf-8", "replace")
    if text.startswith("{"):
        result = json.loads(text).get("result") or {}
        return sum(1 for p in result.get("report", {}).get("points", []) if p["defined"])
    return sum(1 for line in text.splitlines()
               if line.startswith("point ") and ": undefined (" not in line)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def total(runs: list[Run], field: str) -> float:
    return sum(getattr(r, field) for r in runs)


def measure(inv: Invoker, seconds: float) -> tuple[dict, dict, dict]:
    """Whole passes until another, as slow as the slowest so far, would
    end after `seconds`; at least one pass.  Each pass is preceded by
    SETUP_SAMPLES fresh `validate` runs, so that setup_s samples the
    whole run, not only its start.  Times are scaled to the reference
    speed; the measured ones go to the report's timings."""
    setup, passes = [], []
    began = time.perf_counter()
    while True:
        for _ in range(SETUP_SAMPLES):
            run = inv.untraced(["validate", inv.input])
            setup.append(run)
            if run.code != 0 or b"Traceback" in run.err or b'"ok": true' not in run.out:
                inv.fail(["validate", inv.input], f"exit {run.code}")
        runs, points = [], 0
        for index, argv in enumerate(inv.invocations):
            run = inv.untraced(argv)
            runs.append(run)
            if inv.check(index, run.code, run.out, run.err):
                points += defined_points(run.out)
        passes.append(runs)
        if time.perf_counter() - began + max(total(p, "seconds") for p in passes) > seconds:
            break
    wall = statistics.median(total(p, "scaled_s") for p in passes)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "wall_s": (wall, "s"),
        "points_per_s": (points / wall, "1/s"),
        "setup_s": (statistics.median(r.scaled_s for r in setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"measured_wall_s": statistics.median(total(p, "seconds") for p in passes),
            "measured_setup_s": statistics.median(r.seconds for r in setup),
            "passes_scaled_s": [total(p, "scaled_s") for p in passes],
            "passes_measured_s": [total(p, "seconds") for p in passes]}
    samples = {"setup_s": len(setup), "wall_s": len(passes),
               "points_per_pass": points, "invocations_per_pass": len(inv.invocations)}
    return metrics, info, samples


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(stats: list[dict], points: int, envelope_bytes: int, overhead: float):
    """Per-layer metrics from the tracer statistics of one pass; also
    returns the merged spans and the number of per-point samples."""
    spans: dict[str, list] = {}
    for s in stats:
        for key, (calls, self_s, incl) in s["spans"].items():
            entry = spans.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += incl
    point_s = [t for s in stats for t in s["point_s"]]

    def pick(name, col, tags):
        return sum(spans.get(name + tag, (0, 0.0, 0.0))[col] for tag in tags)

    def calls(name, tags=("", ".q", ".qt", ".nf")):
        return (pick(name, 0, tags), "count")

    def self_s(name, tags=("", ".q", ".qt", ".nf")):
        return (pick(name, 1, tags), "s")

    m = {}
    for base, fields in [("linalg.mul", ("calls", "self_s")),
                         ("linalg.rref", ("calls", "self_s")),
                         ("linalg.det", ("self_s",)),
                         ("linalg.inverse", ("self_s",)),
                         ("linalg.construct", ("self_s",)),
                         ("linalg.charpoly", ("calls", "self_s")),
                         ("linalg.jordan_chevalley", ("calls", "self_s")),
                         ("linalg.subspaces", ("self_s",)),
                         ("schur.of_matrix", ("self_s",)),
                         ("schur.derivation", ("self_s",)),
                         ("wd.frss_signature", ("self_s",))]:
        for tag in ("q", "qt"):
            for f in fields:
                fn = calls if f == "calls" else self_s
                m[f"{base}.{tag}.{f}"] = fn(base, (f".{tag}",))
    m["linalg.charpoly.q.max_dim"] = (max(s["max_charpoly_q_dim"] for s in stats), "count")
    m["fields.squarefree.calls"] = calls("fields.squarefree")
    m["fields.squarefree.self_s"] = self_s("fields.squarefree")
    m["fields.parse.self_s"] = self_s("fields.parse")
    m["schur.basis.calls"] = calls("schur.basis")
    m["schur.basis.builds"] = calls("schur.basis_build")
    m["schur.basis.self_s"] = (self_s("schur.basis")[0] + self_s("schur.basis_build")[0], "s")
    m["schur.of_matrix.calls"] = calls("schur.of_matrix")
    m["roots.root_moduli.calls"] = calls("roots.root_moduli")
    m["roots.root_moduli.self_s"] = self_s("roots.root_moduli")
    m["roots.root_moduli.max_degree"] = (max(s["max_root_degree"] for s in stats), "count")
    m["wd.validate.calls"] = calls("wd.validate")
    m["wd.validate.self_s"] = self_s("wd.validate")
    m["wd.validate.calls_per_point"] = (calls("wd.validate", (".q",))[0] / max(points, 1),
                                        "1/point")
    m["wd.inertia_closure.calls"] = calls("wd.inertia_closure")
    m["wd.inertia_closure.self_s"] = self_s("wd.inertia_closure")
    m["wd.monodromy_filtration.self_s"] = self_s("wd.monodromy_filtration")
    m["wd.purity_check.self_s"] = self_s("wd.purity_check")
    m["wd.wd_schur.self_s"] = self_s("wd.wd_schur")
    # The generic signature is the only Q(t) wd_schur and frss_signature
    # call in a scan; their inclusive times add up to it.
    m["families.generic_s"] = (pick("wd.wd_schur", 2, (".qt",))
                               + pick("wd.frss_signature", 2, (".qt",)), "s")
    m["families.specialize.self_s"] = self_s("families.specialize")
    m["families.point_s.p50"] = (statistics.median(point_s) if point_s else 0.0, "s")
    m["families.point_s.p90"] = (percentile(point_s, 0.9) if point_s else 0.0, "s")
    m["families.points"] = (points, "count")
    m["jsonio.load.self_s"] = self_s("jsonio.load")
    m["jsonio.emit.self_s"] = self_s("jsonio.emit")
    m["cli.envelope_bytes"] = (envelope_bytes, "bytes")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m, spans, len(point_s)


def check_bindings(name: str, spans: dict) -> list[str]:
    """Every span a layers.json row names for this workload was called."""
    missing = []
    for row in LAYERS["rows"]:
        for target in row["on"]:
            workload, _, tag = target.partition(":")
            if workload not in (name, "all"):
                continue
            for span in row["spans"]:
                keys = [k for k in spans if k == span or k.startswith(span + ".")]
                if tag and any(k != span for k in keys):
                    keys = [span + "." + tag]
                if not any(spans.get(k, [0])[0] for k in keys):
                    missing.append(f"no calls recorded for {span}{':' + tag if tag else ''}")
    return missing


def scale(stats: dict, factor: float) -> dict:
    """Tracer statistics with their times scaled to the reference speed,
    by the traced process's average factor."""
    stats["spans"] = {k: [calls, self_s * factor, incl * factor]
                      for k, (calls, self_s, incl) in stats["spans"].items()}
    stats["point_s"] = [t * factor for t in stats["point_s"]]
    return stats


def trace(inv: Invoker) -> tuple[dict, dict, dict]:
    """One untraced and one traced pass, invocation by invocation."""
    plain = traced = 0.0
    stats = []
    envelope_bytes = points = 0
    for index, argv in enumerate(inv.invocations):
        run = inv.untraced(argv)
        plain += run.scaled_s
        inv.check(index, run.code, run.out, run.err)
        stats_path = WORK / f"trace-{os.getpid()}-{index}.json"
        traced_run = inv.traced(argv, stats_path)
        traced += traced_run.scaled_s
        if ((traced_run.code, traced_run.out) != (run.code, run.out)
                or b"Traceback" in traced_run.err):
            inv.fail(argv, "traced run differs from the untraced run")
        try:
            stats.append(scale(json.loads(stats_path.read_text()),
                               traced_run.scaled_s / traced_run.seconds))
            stats_path.unlink()
        except (OSError, ValueError):
            inv.fail(argv, "traced run left no statistics")
            continue
        envelope_bytes += len(run.out)
        points += sum(v[0] for k, v in stats[-1]["spans"].items()
                      if k == "families.specialize")
    if not stats:
        return {}, {}, {}
    metrics, spans, npoints = layer_metrics(stats, points, envelope_bytes, traced / plain)
    inv.failures.extend(check_bindings(inv.name, spans))
    info = {"untraced_scaled_s": plain, "traced_scaled_s": traced}
    samples = {"untraced_passes": 1, "traced_passes": 1, "point_s": npoints,
               "invocations_per_pass": len(inv.invocations)}
    return metrics, info, samples


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout's own repository, read from .git; None when
    the checkout is not a git repository."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_digest": "sha256:" + digest.hexdigest(), "seed": seed}


def declared_metrics(trace_mode: bool) -> list[str]:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    return [m["name"] for m in declared["per_layer" if trace_mode else "end_to_end"]]


def run_workload(name: str, seed: int, seconds: float, trace_mode: bool) -> dict:
    # Every measured process runs on one CPU, so no run depends on where
    # the scheduler happens to place it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inv = Invoker(name, seed)
    metrics, info, samples = trace(inv) if trace_mode else measure(inv, seconds)
    declared = declared_metrics(trace_mode)
    if metrics and sorted(metrics) != sorted(declared):
        inv.failures.append("metrics differ from BENCHMARK.json")
    failed = inv.failed
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    print(f"{name} ops_failed_ratio = {failed / max(inv.attempted, 1):.6g} ratio")
    for failure in inv.failures:
        print(f"{name} FAILED {failure}")
    report = {"workload": name, "trace": int(trace_mode), "environment": environment(seed),
              "samples": samples, "attempted": inv.attempted, "failed": failed,
              "ops_failed_ratio": failed / max(inv.attempted, 1),
              "failures": inv.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "timings": info}
    print(json.dumps(report, sort_keys=True))
    return {"correct": not inv.failures and bool(metrics), "attempted": max(inv.attempted, 1),
            "failed": failed, "metrics": report["metrics"]}


def write_goldens(name: str) -> int:
    inv = Invoker(name, DEFAULT_SEED)
    directory = GOLDEN / name
    directory.mkdir(parents=True, exist_ok=True)
    for index, argv in enumerate(inv.invocations):
        run = inv.untraced(argv)
        if (run.code != 0 or b"Traceback" in run.err
                or (argv[0] == "rigidity" and verdict(run.out) != "pass")):
            print(f"refusing to write golden for {' '.join(argv)[:120]}: exit {run.code}",
                  file=sys.stderr)
            return 1
        inv.golden_path(index).write_bytes(run.out)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args()
    missing = [p for p in REQUIRED + ["BENCHMARK.json"] if not Path(p).is_file()]
    if missing:
        print(f"not a wdreps checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.write_goldens:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return max(write_goldens(name) for name in names)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)),
                     sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, as when run alone, so that
    peak_rss_mb is per workload; the last line sums the results."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        final["correct"] = final["correct"] and proc.returncode == 0 and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
