"""The brute-force MR check, the tests' oracle for verify_mr.

rank_scan computes one Gauss-Jordan rank (rank, over the library's
_row_reduce) per (r+1)-column subset and checks every r columns inside each
repair group.  It trusts no structure of G: it reads only code.G and
code.repair_groups, so it also judges a matrix no MrCode has (see raw).
Its reports, modes and errors are the ones verify_mr gives for every
MrCode under the lookup kernel's guard; past it verify_mr certifies by the
family lemma, which the tests check against the kernel instead.
columns(code, indices) is the tests' slice of G.
"""

import math
from itertools import combinations
from types import SimpleNamespace
from typing import Sequence

from mrcodes.errors import BadParams, Mismatch, TooLarge
from mrcodes.field import FieldElement
from mrcodes.mrcode import MrReport, _row_reduce

# its C(n, r+1) rank computations must fit this
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


def rank_scan(code, mode: str = "auto") -> MrReport:
    """verify_mr by brute force: a rank per subset plus the in-group
    distance check.  Both modes scan every subset and raise TooLarge past
    EXHAUSTIVE_SUBSET_GUARD."""
    G, groups = code.G, code.repair_groups
    k, n = len(G), len(G[0])
    r = k - 1

    if mode not in ("auto", "exhaustive"):
        raise BadParams(f"unknown verifier mode {mode!r}")
    cost = math.comb(n, k)
    if cost > EXHAUSTIVE_SUBSET_GUARD:
        raise TooLarge(f"C({n}, {k}) = {cost} exceeds the exhaustive guard "
                       f"{EXHAUSTIVE_SUBSET_GUARD}")
    group_sets = {frozenset(g) for g in groups}
    report = MrReport(mode="exhaustive")
    for subset in combinations(range(n), k):
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
