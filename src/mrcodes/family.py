"""Zero-sum transversal families in Z_N.

From a valid set D in {1..d} build the n = |D|*(r+1) residues

    a_{i,b} = i*l + b            (0 <= i <= r-1, b in D)
    a_{r,b} = N - C(r,2)*l - r*b (reduced mod N)

partitioned into transversals A_b = {a_{0,b}, ..., a_{r,b}}.  The defining
property: an (r+1)-subset of the family sums to 0 mod N exactly when it is
one of the transversals.  Construction is distrusted: the exhaustive
verifier runs on every build whose C(n, r+1) fits the enumeration guard.  It
finds the zero-sum subsets in C(n, r) lookups (_identity_subsets, which
verify_mr shares for its product-one column subsets).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Callable, Iterator, Optional, Sequence

from .errors import BadParams, BadSet, Collision, PropertyViolation, TooLarge
from .progfree import ProgressionFreeSet, verify_progression_free

_SUBSET_GUARD = 10**8


@dataclass(frozen=True)
class FamilyParams:
    N: int
    r: int
    lam: Fraction    # 0 < lam < 1/r^3
    delta: Fraction  # 0 < delta < lam/r

    def __post_init__(self):
        r = self.r
        if r < 2:
            raise BadParams("r must be >= 2")
        if not (0 < self.lam < Fraction(1, r**3)):
            raise BadParams(f"lambda={self.lam} outside (0, 1/r^3)")
        if not (0 < self.delta < self.lam / r):
            raise BadParams(f"delta={self.delta} outside (0, lambda/r)")
        if self.l < 1 or self.d < 1:
            raise BadParams(f"l={self.l}, d={self.d}: both must be >= 1")

    @property
    def l(self) -> int:
        return math.floor(self.lam * self.N)

    @property
    def d(self) -> int:
        return math.floor(self.delta * self.N)


@dataclass(frozen=True)
class ZeroSumFamily:
    params: FamilyParams
    D: ProgressionFreeSet
    blocks: tuple[tuple[int, ...], ...]       # D_0 .. D_r, each aligned to D order
    transversals: tuple[tuple[int, ...], ...]  # A_b for b in D ascending
    elements: tuple[int, ...]                  # canonical flat order: by b, then i

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def r(self) -> int:
        return self.params.r


def build_family(params: FamilyParams, D: ProgressionFreeSet) -> ZeroSumFamily:
    if D.m > params.d:
        raise BadParams(f"D.m={D.m} exceeds d={params.d}")
    if verify_progression_free(D.elements, params.r) is not None:
        raise BadSet(f"D={D.elements} fails the defining equation for r={params.r}")
    N, r, l = params.N, params.r, params.l
    offset = N - math.comb(r, 2) * l
    transversals = tuple(
        tuple(i * l + b for i in range(r)) + ((offset - r * b) % N,)
        for b in D.elements
    )
    blocks = tuple(
        tuple(tr[i] for tr in transversals) for i in range(r + 1)
    )
    elements = tuple(a for tr in transversals for a in tr)
    if len(set(elements)) != len(elements):
        raise Collision(f"residues not distinct for N={N}, r={r}, l={l}, D={D.elements}")
    for tr in transversals:
        if sum(tr) % N != 0:
            raise PropertyViolation(f"transversal {tr} does not sum to 0 mod {N}")
    family = ZeroSumFamily(params=params, D=D, blocks=blocks,
                           transversals=transversals, elements=elements)
    if math.comb(family.n, r + 1) <= _SUBSET_GUARD:
        witness = verify_zero_sum_property(elements, transversals, N, r)
        if witness is not None:
            raise PropertyViolation(f"zero-sum characterization fails at {set(witness)}")
    return family


def verify_zero_sum_property(elements, transversals, N: int, r: int) -> Optional[frozenset]:
    """Exhaustive check: an (r+1)-subset sums to 0 mod N iff it is a transversal.

    Returns None on pass, or the counterexample subset that
    combinations(elements, r + 1) meets first.
    """
    if r < 2:
        raise BadParams("r must be >= 2")
    elements = tuple(elements)
    if math.comb(len(elements), r + 1) > _SUBSET_GUARD:
        raise TooLarge(f"C({len(elements)}, {r + 1}) exceeds the enumeration guard")
    transversal_sets = {frozenset(tr) for tr in transversals}

    def value_set(subset):
        return frozenset(elements[i] for i in subset)

    # the witness by position: the first zero-sum non-transversal, or an
    # earlier subset spelling a transversal whose sum is not 0
    residues = [a % N for a in elements]
    zero_sums = _identity_subsets(residues, [-a % N for a in residues], r, add, N)
    first = next((s for s in zero_sums if value_set(s) not in transversal_sets), None)
    positions: dict[int, list[int]] = {}
    for i, a in enumerate(elements):
        positions.setdefault(a, []).append(i)
    for tr in transversal_sets:
        if len(tr) <= r + 1 and all(a in positions for a in tr):
            # combinations run in lexicographic order, so this is the earliest
            # subset spelling tr without summing to 0
            s = next((s for s in combinations(sorted(i for a in tr for i in positions[a]), r + 1)
                      if value_set(s) == tr and sum(residues[i] for i in s) % N), None)
            if s is not None and (first is None or s < first):
                first = s
    return None if first is None else value_set(first)


def _identity_subsets(values: Sequence[int], completions: Sequence[int], r: int,
                      op: Callable[[int, int], int], modulus: int) -> Iterator[tuple[int, ...]]:
    """Yield the index (r+1)-subsets, in lexicographic order, whose values
    combine under op (mod modulus) to the identity, given completions[j] =
    the inverse of values[j].  Needs r >= 2.

    Walks the r-subsets with a running combination and looks up the j with
    completions[j] equal to it, kept past the subset's last index: C(n, r)
    lookups rather than C(n, r+1) subsets.
    """
    where: dict[int, list[int]] = {}
    for j, key in enumerate(completions):
        where.setdefault(key, []).append(j)
    for head in combinations(range(len(values)), r - 1):
        acc = values[head[0]]
        for i in head[1:]:
            acc = op(acc, values[i]) % modulus
        for i in range(head[-1] + 1, len(values)):
            for j in where.get(op(acc, values[i]) % modulus, ()):
                if j > i:
                    yield head + (i, j)


def sample_zero_sum_property(elements, transversals, N: int, r: int,
                             samples: int = 10**5, seed: int = 0) -> Optional[frozenset]:
    """Randomized fallback when exhaustive enumeration would trip the guard.

    Checks all transversals plus `samples` uniformly drawn (r+1)-subsets.
    """
    transversal_sets = {frozenset(tr) for tr in transversals}
    for tr in transversals:
        if sum(tr) % N != 0:
            return frozenset(tr)
    rng = random.Random(seed)
    elements = list(elements)
    for _ in range(samples):
        subset = rng.sample(elements, r + 1)
        if (sum(subset) % N == 0) != (frozenset(subset) in transversal_sets):
            return frozenset(subset)
    return None


def trim_family(family: ZeroSumFamily, target_groups: int) -> ZeroSumFamily:
    """Keep the target_groups smallest b in D and their transversals."""
    if not 1 <= target_groups <= len(family.D.elements):
        raise BadParams(f"target_groups={target_groups} outside [1, {len(family.D.elements)}]")
    if target_groups == len(family.D.elements):
        return family
    trimmed = ProgressionFreeSet(
        m=family.D.m, r=family.D.r,
        elements=family.D.elements[:target_groups],
        method=family.D.method, alon_meta=family.D.alon_meta,
    )
    return build_family(family.params, trimmed)
