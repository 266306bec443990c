"""The brute-force MR check, the tests' oracle for verify_mr.

rank_scan computes one Gauss-Jordan rank (rank, over the library's
_row_reduce) per (r+1)-column subset and checks every r columns inside each
repair group.  It trusts no structure of G: it reads only code.G and
code.repair_groups, so it also judges a matrix no MrCode has (see raw).
Its reports, modes and errors are the ones verify_mr gives for every
MrCode.  columns(code, indices) is the tests' slice of G.
"""

import math
import random
from itertools import combinations
from types import SimpleNamespace
from typing import Sequence

from mrcodes.errors import BadParams, Mismatch, TooLarge
from mrcodes.field import FieldElement
from mrcodes.mrcode import _SAMPLED_SUBSETS, MrReport, _row_reduce

# exhaustive while its C(n, r+1) rank computations fit this
EXHAUSTIVE_SUBSET_GUARD = 10**7


def rank(matrix: Sequence[Sequence[FieldElement]]) -> int:
    """Row-echelon rank, exact field arithmetic, first-nonzero pivot.
    Mismatch unless the rows are of one length and hold FieldElements."""
    rows = [list(row) for row in matrix]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width or any(type(e) is not FieldElement for e in row) for row in rows):
        raise Mismatch("rank needs equal-length rows of FieldElements")
    return len(_row_reduce(rows, width))


def columns(code, indices):
    return tuple(tuple(row[j] for j in indices) for row in code.G)


def raw(G, repair_groups):
    """A matrix and its groups as rank_scan reads them, with no MrCode checks."""
    return SimpleNamespace(G=tuple(map(tuple, G)), repair_groups=tuple(map(tuple, repair_groups)))


def rank_scan(code, seed: int = 0, mode: str = "auto") -> MrReport:
    """verify_mr by brute force: a rank per subset plus the in-group
    distance check.  "auto" is exhaustive within EXHAUSTIVE_SUBSET_GUARD and
    samples past it; "exhaustive" raises TooLarge past it; "sampled" checks
    the repair groups plus the subsets verify_mr samples for this seed."""
    G, groups = code.G, code.repair_groups
    k, n = len(G), len(G[0])
    r = k - 1

    if mode not in ("auto", "exhaustive", "sampled"):
        raise BadParams(f"unknown verifier mode {mode!r}")
    cost = math.comb(n, k)
    if mode == "exhaustive" and cost > EXHAUSTIVE_SUBSET_GUARD:
        raise TooLarge(f"C({n}, {k}) = {cost} exceeds the exhaustive guard "
                       f"{EXHAUSTIVE_SUBSET_GUARD}")
    exhaustive = cost <= EXHAUSTIVE_SUBSET_GUARD if mode == "auto" else mode == "exhaustive"
    group_sets = {frozenset(g) for g in groups}
    if exhaustive:
        subsets = combinations(range(n), k)
    else:
        rng = random.Random(seed)
        sampled = {tuple(sorted(rng.sample(range(n), k))) for _ in range(_SAMPLED_SUBSETS)}
        sampled.update(tuple(sorted(g)) for g in groups)
        subsets = iter(sampled)
    report = MrReport(mode="exhaustive" if exhaustive else "sampled")
    for subset in subsets:
        rk = rank(columns(code, subset))
        expected = r if frozenset(subset) in group_sets else k
        report.mds_subsets_checked += 1
        if rk == r:
            report.deficient_subsets.append(tuple(subset))
        if rk != expected:
            report.violations.append((tuple(subset), rk, expected))
    for group in groups:
        for subset in combinations(group, r):
            if rank(columns(code, subset)) != r:
                report.local_distance_ok = False
                report.violations.append((tuple(subset), rank(columns(code, subset)), r))
    return report
