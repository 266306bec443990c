"""Acceptance suite: one test per release criterion, exact tolerances,
one pass/fail line printed per criterion (run with `pytest -s` to see them)."""

import math
import time
from itertools import combinations

import pytest

from mrcodes.codespec import code_from_dict, code_to_dict
from mrcodes.errors import PropertyViolation
from mrcodes.mrcode import decode, encode, is_correctable, local_repair, verify_mr
from mrcodes.pipeline import construct, exact_failure_probability, simulate
from mrcodes.progfree import alon_construct, verify_progression_free
from reference import ReadTracker, columns, matrix, rank, zero_sum_witness

import random


@pytest.fixture(scope="module")
def code6():
    return construct(2, 101)[0]


@pytest.fixture(scope="module")
def code8():
    return construct(3, 653)[0]


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_exhaustive_mr_r2(code6):
    start = time.perf_counter()
    assert (code6.n, code6.k) == (6, 3)
    report = verify_mr(code6, mode="exhaustive")
    ok = (report.mds_subsets_checked == 20
          and sorted(report.deficient_subsets) == [(0, 1, 2), (3, 4, 5)]
          and not report.violations
          and report.local_distance_ok)
    # every 2-column subset inside a group has rank 2
    for group in code6.repair_groups:
        for pair in combinations(group, 2):
            ok = ok and rank(columns(matrix(code6), pair), 101) == 2
    elapsed = time.perf_counter() - start
    _report("criterion 1 (exhaustive MR, r=2, q=101)", ok and elapsed < 1.0,
            f"20 subsets, 2 deficient, {elapsed:.3f}s")


def test_criterion_2_exhaustive_mr_r3(code8):
    start = time.perf_counter()
    assert (code8.n, code8.k) == (8, 4)
    report = verify_mr(code8, mode="exhaustive")
    ok = (report.mds_subsets_checked == 70
          and sorted(report.deficient_subsets) == [(0, 1, 2, 3), (4, 5, 6, 7)]
          and not report.violations
          and report.local_distance_ok)
    elapsed = time.perf_counter() - start
    _report("criterion 2 (exhaustive MR, r=3, q=653)", ok and elapsed < 1.0,
            f"70 subsets, 2 deficient, {elapsed:.3f}s")


def test_criterion_3_zero_sum_characterization(code6, code8):
    ok = True
    for code in (code6, code8):
        fam = code.family
        ok = ok and zero_sum_witness(fam.elements, fam.transversals,
                                     code.field.N, code.r) is None
    planted = zero_sum_witness(
        (10, 40, 50, 20, 35, 45, 70, 12, 18),
        ((10, 40, 50), (20, 35, 45), (70, 12, 18)), 100, 2)
    ok = ok and planted == frozenset({10, 20, 70})
    _report("criterion 3 (zero-sum characterization + planted violation)", ok,
            f"witness={set(planted) if planted else None}")


def test_criterion_4_progression_free_construction():
    start = time.perf_counter()
    ok = True
    details = []
    for m in (16, 256, 4096):
        for r in (2, 3):
            d = alon_construct(m, r)
            bound = m * math.exp(-5 * math.sqrt(math.log(m) * math.log(r)))
            good = (verify_progression_free(d.elements, r) is None
                    and len(d) >= bound)
            ok = ok and good
            details.append(f"(m={m},r={r}):|D|={len(d)}>={bound:.3g}")
    elapsed = time.perf_counter() - start
    _report("criterion 4 (digit construction, 6 cases)",
            ok and elapsed < 10.0, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_5_decoder_completeness(code6):
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    G = matrix(code6)
    for size in range(7):
        for pattern in combinations(range(6), size):
            survivors = [j for j in range(6) if j not in pattern]
            expected = rank(columns(G, survivors), 101) == 3
            assert is_correctable(code6, pattern) == expected
            per_group = [sum(1 for j in pattern if j in g)
                         for g in code6.repair_groups]
            if all(c <= 1 for c in per_group) and len(survivors) >= 3:
                ok = ok and expected  # sufficient condition must decode
            for _ in range(100 if expected else 3):
                msg = [rng.randrange(101) for _ in range(3)]
                received = [s.value for s in encode(code6, msg)]
                for j in pattern:
                    received[j] = None
                if expected:
                    decoded = decode(code6, received)
                    ok = ok and [s.value for s in decoded] == msg
                else:
                    with pytest.raises(Exception):
                        decode(code6, received)
    elapsed = time.perf_counter() - start
    _report("criterion 5 (decoder completeness over all 64 patterns)",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_6_local_repair_locality(code6):
    rng = random.Random(77)
    ok = True
    for gi, group in enumerate(code6.repair_groups):
        for erased in group:
            for _ in range(100):
                msg = [rng.randrange(101) for _ in range(3)]
                cw = [s.value for s in encode(code6, msg)]
                truth = cw[erased]
                data = cw[:]
                data[erased] = None
                tracker = ReadTracker(data)
                repaired = local_repair(code6, tracker, erased)
                ok = (ok and repaired == truth
                      and len(tracker.reads) == 2
                      and set(tracker.reads) == set(group) - {erased})
    _report("criterion 6 (local repair reads exactly r=2 in-group symbols)", ok,
            "6 cases x 100 messages")


def test_criterion_7_simulation_consistency(code6):
    p, trials, seed = 0.1, 10**4, 12345
    exact = exact_failure_probability(code6, p)
    report = simulate(code6, p, trials, seed)
    observed = report.failure_rate
    stderr = math.sqrt(exact * (1 - exact) / trials)
    ok = abs(observed - exact) <= 3 * stderr
    _report("criterion 7 (simulate vs exact incorrectable probability)", ok,
            f"exact={exact:.6f} observed={observed:.6f} 3se={3 * stderr:.6f}")


def test_criterion_8_mutation_detection(code6, code8):
    ok = True
    for code in (code6, code8):
        q = code.field.q
        for i in range(code.k):
            for j in range(code.n):
                # G is derived from the field and family, so it enters from
                # outside only in a spec: caught when code_from_dict refuses
                # the spec, naming G
                doc = code_to_dict(code)
                doc["G"][i][j] = (doc["G"][i][j] + 1) % q
                try:
                    code_from_dict(doc)
                except PropertyViolation as exc:
                    if str(exc).startswith("spec keys ['G'] "):
                        continue
                ok = False
        N = code.field.N
        for j in range(code.n):
            elements = list(code.family.elements)
            elements[j] = (elements[j] + 1) % N
            g = j // code.k
            transversals = [list(t) for t in code.family.transversals]
            transversals[g][j % code.k] = elements[j]
            distinct = len(set(elements)) == len(elements)
            if distinct and zero_sum_witness(elements, transversals,
                                             N, code.r) is None:
                ok = False
    _report("criterion 8 (every single-entry mutation detected)", ok,
            "G entries and exponents, both fixtures")
