"""Sets D in {1..m} where d_0 + ... + d_{r-1} = r*d_r forces all terms equal.

For r = 2 this is the classical 3-term-AP-free condition.  Two constructors
are provided: the digit construction (large m, asymptotically dense) and an
exhaustive maximum-cardinality search for tiny m (a bitmask DFS that forces
both ends of each growing set and skips values the chosen elements forbid;
see exhaustive_best).  Neither falls back on the other;
pipeline._choose_set is the one place that picks between them.  Both are
distrusted by default: every returned set is re-checked by the brute-force
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Optional

from .errors import BadParams, ParamsTooSmall, PropertyViolation, RangeTooLarge, TooLarge

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
        raise BadParams("candidate must be a nonempty set of integers >= 1")
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
    The result is re-checked by the oracle before returning.  ParamsTooSmall
    when h <= r, where the only digit is 0 and the construction degenerates.
    """
    if r < 2 or m < 2:
        raise BadParams("need r >= 2 and m >= 2")
    h = max(2, math.floor(math.exp(math.sqrt(math.log(m) * math.log(r)))))
    if _max_digit(h, r) < 1:
        raise ParamsTooSmall(f"h={h} <= r={r}: the digit range is {{0}} for m={m}")
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
    return ProgressionFreeSet(r=r, elements=elements, method="alon", alon_meta=meta)


def exhaustive_best(m: int, r: int) -> ProgressionFreeSet:
    """Maximum-cardinality valid subset of {1..m}; lexicographically smallest
    element list among the maximum-size subsets.

    sizes[L] = maximum size for {1..L}; the defining equation is translation
    invariant, so it bounds any L consecutive integers, and sizes[L] <=
    sizes[L-1] + 1.  So a set of size sizes[L-1] + 1 in {1..L} holds 1 and
    L: each step is a yes/no search with both ends forced, and the last
    step's set, if it grew, is the answer.  Otherwise one unforced search
    for size sizes[m] runs.  The search drops from its candidates every
    value an element forbids (see _first_of_size).
    """
    if r < 2 or m < 1:
        raise BadParams("need r >= 2 and m >= 1")
    if m > _EXHAUSTIVE_MAX_M:
        raise RangeTooLarge(f"m={m} > {_EXHAUSTIVE_MAX_M}")
    sizes = [0]
    for L in range(1, m + 1):
        best = _first_of_size(L, r, sizes[-1] + 1, sizes + [sizes[-1] + 1], True)
        sizes.append(sizes[-1] + (best is not None))
    if best is None:
        best = _first_of_size(m, r, sizes[m], sizes, False)
    witness = verify_progression_free(best, r)
    if witness is not None:
        raise PropertyViolation(f"exhaustive search produced a violation: {witness}")
    return ProgressionFreeSet(r=r, elements=tuple(best), method="exhaustive")


def _first_of_size(m: int, r: int, target: int, bound: list[int],
                   ends: bool) -> Optional[list[int]]:
    """First valid subset of {1..m} of size target in include-first order,
    the lexicographically smallest, or None; bound[L] caps any L consecutive
    integers.  ends: the set must hold m (a branch stops once m is ruled out).

    Bitmasks: sums[j] has bit s when a j-multiset of the set sums to s,
    rev[j] bit K - s, means bit r*d per member d.  Appending x (the largest
    so far) makes a solution iff x + (r-1 members) = r*d for a member d, so
    later y = r*x - s (s in sums[r-1]) are forbidden: all the invalid y for
    r = 2, some of them for r >= 3, where the exact test still decides.
    """
    K, need = r * m, 1 << m if ends else -1
    cur: list[int] = []

    def extend(sums: list[int], rev: list[int], means: int, allowed: int) -> bool:
        if len(cur) == target:
            return True
        while allowed & need:
            x = (allowed & -allowed).bit_length() - 1
            if len(cur) + min(bound[m - x + 1], allowed.bit_count()) < target:
                return False
            allowed ^= 1 << x
            grown, rgrown = [sums[0]], [rev[0]]
            for j in range(1, r):
                grown.append(sums[j] | grown[j - 1] << x)
                rgrown.append(rev[j] | rgrown[j - 1] >> x)
            if not (means >> x) & grown[r - 1]:
                cur.append(x)
                if extend(grown, rgrown, means | 1 << (r * x),
                          allowed & ~(rgrown[r - 1] >> (K - r * x))):
                    return True
                cur.pop()
        return False

    found = extend([1] + [0] * (r - 1), [1 << K] + [0] * (r - 1), 0, (2 << m) - 2)
    return cur if found else None

