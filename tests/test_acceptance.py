"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from wdreps import (Matrix, QQ, hook_content_dim, monodromy_filtration,
                    purity_check, purity_scan, rigidity_check,
                    schur_basis, schur_of_matrix,
                    sp_construct, specht_dim, specialize_signature,
                    trace_link_check, wd_direct_sum, wd_tensor,
                    young_symmetrizer)
from wdreps.cli import CommandRequest, run_command
from wdreps.jsonio import canonical_json_bytes
from wdreps.schur import Partition

from support import (flagship_family, flagship_constant_partner, graded_dim,
                     kernel_sum_filtration_step, partitions_of, random_matrix, rank,
                     schur_trace_oracle, random_nilpotent, random_pure_rep,
                     signature_union, subspaces_equal, trivial_onedim)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FLAGSHIP_PARTITIONS = [Partition.of(1), Partition.of(2),
                       Partition.of(1, 1), Partition.of(2, 1)]
SCAN_POINTS = range(-25, 25)  # 50 points, 0 included


def report(num, name, ok, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_symmetrizer_law():
    start = time.monotonic()
    ok = True
    count = 0
    for d in range(1, 6):
        for mu in partitions_of(d):
            c, n_mu = young_symmetrizer(mu)
            cc = {}
            for p, x in c.items():
                for q, y in c.items():
                    pq = tuple(p[q[i]] for i in range(d))
                    cc[pq] = cc.get(pq, 0) + x * y
            ok = ok and ({p: v for p, v in cc.items() if v} == {p: n_mu * v for p, v in c.items()})
            ok = ok and (n_mu * specht_dim(mu) == factorial(d))
            count += 1
    elapsed = time.monotonic() - start
    ok = ok and count == 18 and elapsed < 5.0
    report(1, "symmetrizer law c*c = n*c over all 18 partitions, d <= 5", ok, elapsed)


def test_criterion_02_dimension_law():
    start = time.monotonic()
    ok = True
    for d in range(1, 6):
        for mu in partitions_of(d):
            for n in range(0, 5):
                if n ** d > 4096:
                    continue
                ok = ok and (schur_basis(mu, n).dim == hook_content_dim(mu, n))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(2, "basis dimension equals hook content for d <= 5, n <= 4", ok, elapsed)


def test_criterion_03_trace_oracle():
    rng = random.Random(20260808)
    failures = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        mus = partitions_of(d)
        mu = mus[rng.randrange(len(mus))]
        A = random_matrix(rng, n)
        power_sums = [(A ** k).trace() for k in range(1, d + 1)]
        if schur_of_matrix(A, mu).trace() != schur_trace_oracle(power_sums, mu):
            failures += 1
    report(3, "trace of the functor equals the Jacobi-Trudi/Newton oracle "
              "(100 random matrices)", failures == 0)


def test_criterion_04_functoriality():
    rng = random.Random(41507)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        mus = partitions_of(d)
        mu = mus[rng.randrange(len(mus))]
        A = random_matrix(rng, n)
        B = random_matrix(rng, n)
        ok = ok and (schur_of_matrix(A * B, mu) ==
                     schur_of_matrix(A, mu) * schur_of_matrix(B, mu))
        dim = hook_content_dim(mu, n)
        ok = ok and (schur_of_matrix(Matrix.identity(QQ, n), mu) ==
                     Matrix.identity(QQ, dim))
    report(4, "functoriality S(AB) = S(A)S(B) and S(I) = I (50 random pairs)", ok)


def test_criterion_05_filtration_oracle():
    rng = random.Random(90127)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 8)
        N = random_nilpotent(rng, n)
        filt = monodromy_filtration(N)
        keys = filt.indices()
        for k in keys:
            Mk = filt.step(k)
            # axiom: N M_k inside M_(k-2)
            if Mk.ncols:
                below = filt.step(k - 2)
                ok = ok and (rank(below.hstack(N * Mk)) == below.ncols)
            # independent kernel-sum oracle
            ok = ok and subspaces_equal(Mk, kernel_sum_filtration_step(N, k))
        # axiom: gr_k and gr_(-k) match through N^k
        for k in range(1, keys[-1] + 1):
            ok = ok and (graded_dim(filt, k) == graded_dim(filt, -k))
        if not ok:
            break
    report(5, "monodromy filtration matches the kernel-sum oracle "
              "(100 random nilpotents, dim <= 8)", ok)


def test_criterion_06_purity_calculus():
    ok = True
    for t in range(1, 5):
        rep = purity_check(sp_construct(t, trivial_onedim()), "infer")
        ok = ok and rep.verdict == "pure" and rep.weight == -(t - 1)
    rng = random.Random(61803)
    for _ in range(20):
        w1, w2 = rng.randint(-2, 2), rng.randint(-2, 2)
        a = random_pure_rep(rng, 5, w1)
        b = random_pure_rep(rng, 5, w2)
        rep = purity_check(wd_tensor(a, b), "infer")
        ok = ok and rep.verdict == "pure" and rep.weight == w1 + w2
    report(6, "Sp_t(trivial) pure of weight -(t-1); tensors add weights "
              "(20 random pure pairs)", ok)


def test_criterion_07_rigidity_desk_experiment():
    start = time.monotonic()
    ok = True
    fam = flagship_family()
    for mu in FLAGSHIP_PARTITIONS:
        checked = rigidity_check(purity_scan(fam, mu, SCAN_POINTS))
        ok = ok and checked.verdict == "pass"
        zero = [pr for pr in checked.points if pr.a == 0][0]
        if hook_content_dim(mu, 2) > 1:
            # a = 0 degenerates the chain: flagged impure, and its
            # signature differs from the specialized generic one
            ok = ok and zero.purity.verdict == "impure"
            expected = specialize_signature(checked.generic_signature, 0)
            ok = ok and zero.signature != expected
        else:
            ok = ok and zero.purity.verdict == "pure"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(7, "flagship 50-point rigidity scan passes for (1),(2),(1,1),(2,1); "
              "a=0 impure with a different signature", ok, elapsed)


def test_criterion_08_trace_linked_rigidity():
    fam1 = flagship_family()
    fam2 = flagship_constant_partner()
    link = trace_link_check(fam1, fam2)
    ok = link.equal
    r1 = rigidity_check(purity_scan(fam1, Partition.of(1), SCAN_POINTS))
    r2 = rigidity_check(purity_scan(fam2, Partition.of(1), SCAN_POINTS))
    ok = ok and r1.verdict == "pass" and r2.verdict == "pass"
    # the pure loci may differ (a = 0 degenerates only the t*E21 family);
    # every pure point of either family must carry the signature the
    # OTHER family's generic structure predicts
    pure_seen = 0
    for own, other in ((r1, r2), (r2, r1)):
        for pr in own.points:
            if pr.purity is not None and pr.purity.verdict == "pure":
                pure_seen += 1
                predicted = specialize_signature(other.generic_signature, pr.a)
                ok = ok and pr.signature == predicted
    ok = ok and pure_seen > 0
    report(8, "trace-linked pair: equal traces at every word and "
              "identical pure-point signatures", ok)


def test_criterion_09_direct_sum_scan():
    from wdreps.jsonio import load_wdrep
    fam1 = load_wdrep(str(CORPUS / "flagship.json"))
    fam2 = load_wdrep(str(CORPUS / "conjugated_irrational.json"))
    fam3 = load_wdrep(str(CORPUS / "inertia_pair.json"))
    ok = True
    for left, right in ((fam1, fam2), (fam1, fam3)):
        total = wd_direct_sum(left, right)
        mu = Partition.of(1)
        points = range(-10, 11)
        r_sum = purity_scan(total, mu, points)
        r_left = purity_scan(left, mu, points)
        r_right = purity_scan(right, mu, points)
        ok = ok and r_sum.generic_signature == \
            signature_union(r_left.generic_signature, r_right.generic_signature)
        for ps, pl, pr in zip(r_sum.points, r_left.points, r_right.points):
            if ps.signature is None:
                ok = ok and (pl.signature is None or pr.signature is None)
                continue
            ok = ok and ps.signature == signature_union(pl.signature, pr.signature)
    report(9, "scanned direct sums: signature = pointwise union of "
              "component signatures", ok)


def test_criterion_10_determinism():
    req = CommandRequest("rigidity", str(CORPUS / "flagship.json"),
                         partition="2,1", points="-25..24")
    code1, env1 = run_command(req)
    code2, env2 = run_command(req)
    ok = code1 == code2 == 0
    ok = ok and canonical_json_bytes(env1) == canonical_json_bytes(env2)
    report(10, "repeated flagship scan produces byte-identical envelopes", ok)
