"""Sets D in {1..m} where d_0 + ... + d_{r-1} = r*d_r forces all terms equal.

For r = 2 this is the classical 3-term-AP-free condition.  Two constructors
are provided: the digit construction (large m, asymptotically dense) and an
exhaustive maximum-cardinality search for tiny m.  Both are distrusted by
default: every returned set is re-checked by the brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Optional

from .errors import ParamsTooSmall, PropertyViolation, RangeTooLarge, TooLarge

# verify_progression_free enumeration budget: |D|^r tuples
_VERIFY_GUARD = 10**8

# exhaustive_best is exponential in m
_EXHAUSTIVE_MAX_M = 24


@dataclass(frozen=True)
class AlonMeta:
    h: int          # digit base
    t: int          # highest digit position (t+1 digits total)
    B: int          # square-sum shared by all chosen elements
    size_bound: float  # m * e^{-5 sqrt(ln m ln r)}


@dataclass(frozen=True)
class ProgressionFreeSet:
    m: int
    r: int
    elements: tuple[int, ...]
    method: str  # "alon" | "exhaustive" | "user_supplied"
    alon_meta: Optional[AlonMeta] = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def verify_progression_free(candidate, r: int) -> Optional[tuple]:
    """Brute-force oracle for the defining equation.

    Returns None on pass, or a witness tuple (d_0, ..., d_{r-1}, d_r) with
    d_0 + ... + d_{r-1} = r*d_r and not all entries equal.
    """
    elems = sorted(set(candidate))
    if not elems or elems[0] < 1:
        raise ValueError("candidate must be a nonempty set of integers >= 1")
    if len(elems) ** r > _VERIFY_GUARD:
        raise TooLarge(f"|D|^r = {len(elems)}^{r} exceeds the enumeration guard")
    elem_set = set(elems)
    for combo in combinations_with_replacement(elems, r):
        s = sum(combo)
        if s % r:
            continue
        d_r = s // r
        if d_r in elem_set and any(c != d_r for c in combo):
            return combo + (d_r,)
    return None


def _max_digit(h: int, r: int) -> int:
    # largest integer strictly below h/r
    return (h + r - 1) // r - 1


def alon_construct(m: int, r: int) -> ProgressionFreeSet:
    """Digit construction: base-h digits below h/r, constant square-sum.

    h = floor(e^{sqrt(ln m * ln r)}) (natural logs), t+1 digit positions with
    t = floor(log_h m) - 1.  Elements sharing the most popular square-sum B
    form the set; convexity of z -> z^2 rules out nontrivial solutions.
    The result is re-checked by the oracle before returning.
    """
    if r < 2 or m < 2:
        raise ValueError("need r >= 2 and m >= 2")
    h = max(2, math.floor(math.exp(math.sqrt(math.log(m) * math.log(r)))))
    if _max_digit(h, r) < 1:
        # digit range is {0} only; the construction degenerates
        if m <= _EXHAUSTIVE_MAX_M:
            return exhaustive_best(m, r)
        raise ParamsTooSmall(f"h={h} <= r={r} and m={m} too large for exhaustive fallback")
    # t = floor(log_h m) - 1, computed in exact integers
    k = 0
    hp = h
    while hp <= m:
        hp *= h
        k += 1
    t = max(k - 1, 0)
    weights = [h**j for j in range(t + 1)]
    buckets: dict[int, list[int]] = {}
    for digits in product(range(_max_digit(h, r) + 1), repeat=t + 1):
        x = sum(d * w for d, w in zip(digits, weights))
        if 1 <= x <= m:
            buckets.setdefault(sum(d * d for d in digits), []).append(x)
    best_b = min(buckets, key=lambda b: (-len(buckets[b]), b))
    elements = tuple(sorted(buckets[best_b]))
    witness = verify_progression_free(elements, r)
    if witness is not None:
        raise PropertyViolation(f"digit construction produced a violation: {witness}")
    meta = AlonMeta(
        h=h, t=t, B=best_b,
        size_bound=m * math.exp(-5 * math.sqrt(math.log(m) * math.log(r))),
    )
    return ProgressionFreeSet(m=m, r=r, elements=elements, method="alon", alon_meta=meta)


def exhaustive_best(m: int, r: int) -> ProgressionFreeSet:
    """Maximum-cardinality valid subset of {1..m}; lexicographically smallest
    element list among the maximum-size subsets."""
    if r < 2 or m < 1:
        raise ValueError("need r >= 2 and m >= 1")
    if m > _EXHAUSTIVE_MAX_M:
        raise RangeTooLarge(f"m={m} > {_EXHAUSTIVE_MAX_M}")
    # sizes[L] = maximum size for {1..L}.  The defining equation is
    # translation invariant, so sizes[L] also bounds any L consecutive
    # integers, and sizes[L] <= sizes[L-1] + 1; each search uses the
    # smaller searches' results as its pruning bound.
    sizes = [0]
    for L in range(1, m + 1):
        best = _search_best(L, r, sizes + [sizes[-1] + 1])
        sizes.append(len(best))
    witness = verify_progression_free(best, r)
    if witness is not None:
        raise PropertyViolation(f"exhaustive search produced a violation: {witness}")
    return ProgressionFreeSet(m=m, r=r, elements=tuple(best), method="exhaustive")


def _search_best(m: int, r: int, bound: list[int]) -> list[int]:
    """Include-first DFS over {1..m}; bound[L] caps the size of a valid
    subset of any L consecutive integers.

    Sets are bitmasks: sums[j] has bit s set when some j-multiset of the
    current set sums to s, and means has bit r*d set for each member d.
    Appending x, the largest element so far, creates a solution exactly
    when x + (r-1 members, repeats allowed) = r*d for a member d < x; a
    tuple with x as d_r forces all terms equal to x.
    """
    best: list[int] = []
    cur: list[int] = []

    def extend(start: int, sums: list[int], means: int):
        nonlocal best
        if len(cur) + bound[m - start + 1] <= len(best):
            return
        if start > m:
            best = cur.copy()
            return
        # include-first DFS in increasing element order: the first subset
        # reaching a given size is the lexicographically smallest one
        grown = [sums[0]]
        for j in range(1, r):
            grown.append(sums[j] | grown[j - 1] << start)
        if not (means >> start) & grown[r - 1]:
            cur.append(start)
            extend(start + 1, grown, means | 1 << (r * start))
            cur.pop()
        extend(start + 1, sums, means)

    extend(1, [1] + [0] * (r - 1), 0)
    return best


def from_elements(elements, m: int, r: int) -> ProgressionFreeSet:
    """Wrap a user-supplied set, after checking it with the oracle."""
    elems = tuple(sorted(set(elements)))
    if not elems or elems[0] < 1 or elems[-1] > m:
        raise ValueError("elements must lie in [1, m]")
    witness = verify_progression_free(elems, r)
    if witness is not None:
        raise ValueError(f"supplied set violates the defining equation: {witness}")
    return ProgressionFreeSet(m=m, r=r, elements=elems, method="user_supplied")
