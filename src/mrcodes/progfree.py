"""Sets D in {1..m} where d_0 + ... + d_{r-1} = r*d_r forces all terms equal.

For r = 2 this is the classical 3-term-AP-free condition.  Two constructors,
neither falling back on the other: the digit construction for large m, which
counts its buckets before building one, and an exact maximum search for tiny
m, one loop over a stack of bitmask levels (see exhaustive_best).
_choose_set picks a code's D from the two.  Neither constructor runs the
brute-force oracle: a set is proved when a family is made from it, so a
losing candidate is never checked, and a D too long for a code is refused
before the oracle meets it.  The sweep's sizes and sets depend on r alone:
bounded caches (_sizes, _best) keep them per r for the life of the process.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

from .errors import BadParams, ParamsTooSmall, RangeTooLarge, TooLarge
from .field import _check_int

_VERIFY_GUARD = 10**8  # verify_progression_free's enumeration budget: C(|D|+r-1, r) multisets
_EXHAUSTIVE_MAX_M = 24  # exhaustive_best is exponential in m
_CACHE_BOUND = 1024  # entries each of _sizes and _best keep, 24 per r; both take checked ints


@dataclass(frozen=True)
class AlonMeta:
    h: int          # digit base
    t: int          # highest digit position (t+1 digits total)
    B: int          # square-sum shared by all chosen elements
    size_bound: float  # m * e^{-5 sqrt(ln m ln r)}

    def __post_init__(self):
        for name, kind in (("h", int), ("t", int), ("B", int), ("size_bound", float)):
            if type(getattr(self, name)) is not kind:
                raise BadParams(f"{name}={getattr(self, name)!r} is not of type {kind.__name__}")


@dataclass(frozen=True)
class ProgressionFreeSet:
    r: int
    elements: tuple[int, ...]
    method: str
    alon_meta: Optional[AlonMeta] = None

    def __post_init__(self):
        _check_int("r", self.r)
        if type(self.elements) is not tuple:
            raise BadParams(f"elements={self.elements!r} is not a tuple")
        for e in self.elements:
            _check_int("element", e)
        if self.method not in ("alon", "exhaustive", "user_supplied"):
            raise BadParams(f"method={self.method!r} is not alon, exhaustive or user_supplied")
        if self.alon_meta is not None and not isinstance(self.alon_meta, AlonMeta):
            raise BadParams(f"alon_meta={self.alon_meta!r} is not an AlonMeta")
        if self.alon_meta is not None and self.method != "alon":
            raise BadParams(f"a {self.method} set carries digit-construction meta")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def verify_progression_free(candidate, r: int) -> Optional[tuple]:
    """Brute-force oracle for the defining equation.

    Returns None on pass, or a witness tuple (d_0, ..., d_{r-1}, d_r) with
    d_0 + ... + d_{r-1} = r*d_r and not all entries equal.
    """
    _check_int("r", r)
    if r < 2:
        raise BadParams("need r >= 2")
    if not isinstance(candidate, Iterable):
        raise BadParams(f"candidate={candidate!r} is not a collection")
    elems = list(candidate)
    for e in elems:
        _check_int("element", e)
    elems = sorted(set(elems))
    if not elems or elems[0] < 1:
        raise BadParams("candidate must be a nonempty set of integers >= 1")
    count = math.comb(len(elems) + r - 1, r)
    if count > _VERIFY_GUARD:
        raise TooLarge(f"C(|D|+r-1, r) = {count} multisets for |D|={len(elems)}, r={r} "
                       f"exceed the enumeration guard {_VERIFY_GUARD}")
    elem_set = set(elems)
    for combo in combinations_with_replacement(elems, r):
        s = sum(combo)
        if s % r:
            continue
        d_r = s // r
        if d_r in elem_set and combo[0] != combo[-1]:  # sorted: not all equal
            return combo + (d_r,)
    return None


def alon_construct(m: int, r: int) -> ProgressionFreeSet:
    """Digit construction: base-h digits below h/r, constant square-sum.

    h = floor(e^{sqrt(ln m * ln r)}) (natural logs), t+1 digit positions with
    t = floor(log_h m) - 1.  Elements sharing the most popular square-sum B
    (the smallest such B > 0 on a tie) form the set; convexity of z -> z^2
    rules out nontrivial solutions.  Buckets are counted first, by a DP over
    digit positions that steps only from sums some digit vector reaches;
    only B's is built.  ParamsTooSmall when h <= r: the only digit is 0.
    """
    _check_int("m", m)
    _check_int("r", r)
    if r < 2 or m < 2:
        raise BadParams("need r >= 2 and m >= 2")
    h = max(2, math.floor(math.exp(math.sqrt(math.log(m) * math.log(r)))))
    top = (h - 1) // r  # the largest digit below h/r
    if top < 1:
        raise ParamsTooSmall(f"h={h} <= r={r}: the digit range is {{0}} for m={m}")
    t, hp = 0, h * h  # t = max(floor(log_h m) - 1, 0), in exact integers
    while hp <= m:
        hp, t = hp * h, t + 1
    # ways[j][s]: j-digit vectors of square-sum s.  All nonzero ones lie in
    # [1, m]: h <= m and top < h/2 give x < h^(t+1) <= m
    squares = [dig * dig for dig in range(top + 1)]
    ways = [[1]]
    for _ in range(t + 1):
        row = [0] * (len(ways[-1]) + squares[-1])
        for s, c in enumerate(ways[-1]):
            if c:
                for sq in squares:
                    row[s + sq] += c
        ways.append(row)
    w = ways[-1]
    best_b = w.index(max(w[1:]), 1)
    # top digit first, each ascending: sorted x
    level = [(best_b, 0)]
    for j in range(t, -1, -1):
        hj = h**j
        level = [(s, x + dig * hj) for rest, x in level
                 for dig in range(min(top, math.isqrt(rest)) + 1)
                 if (s := rest - dig * dig) < len(ways[j]) and ways[j][s]]
    elements = tuple(x for _, x in level)
    meta = AlonMeta(h=h, t=t, B=best_b,
                    size_bound=m * math.exp(-5 * math.sqrt(math.log(m) * math.log(r))))
    return ProgressionFreeSet(r=r, elements=elements, method="alon", alon_meta=meta)


def exhaustive_best(m: int, r: int) -> ProgressionFreeSet:
    """Maximum-cardinality valid subset of {1..m}; lexicographically smallest
    element list among the maximum-size subsets.

    sizes[L] = maximum size for {1..L}; by translation invariance it bounds
    any L consecutive integers, and sizes[L] <= sizes[L-1] + 1, so a set of
    size sizes[L-1] + 1 in {1..L} holds 1 and L.  Each step is a yes/no
    search with both ends forced, and steps L < m cut mirror images (d ->
    L+1-d keeps the equation).  The uncut last step's set, if it grew, is
    the answer; else an unforced search for size sizes[m] runs.
    """
    _check_int("m", m)
    _check_int("r", r)
    if r < 2 or m < 1:
        raise BadParams("need r >= 2 and m >= 1")
    if m > _EXHAUSTIVE_MAX_M:
        raise RangeTooLarge(f"m={m} > {_EXHAUSTIVE_MAX_M}")
    return _best(m, r)


@functools.lru_cache(maxsize=_CACHE_BOUND)
def _sizes(last: int, r: int) -> tuple[int, ...]:
    """sizes[0..last], sizes[L] the best size on {1..L}: one mirror-cut step per L."""
    if last == 0:
        return (0,)
    sizes = [*_sizes(last - 1, r)]
    grew = _first_of_size(last, r, sizes[-1] + 1, sizes + [sizes[-1] + 1], True, True)
    return (*sizes, sizes[-1] + (grew is not None))


@functools.lru_cache(maxsize=_CACHE_BOUND)
def _best(m: int, r: int) -> ProgressionFreeSet:
    """exhaustive_best(m, r) from the sweep through L = m - 1 (see there)."""
    sizes = [*_sizes(m - 1, r)]
    best = (_first_of_size(m, r, sizes[-1] + 1, sizes + [sizes[-1] + 1], True, False)
            or _first_of_size(m, r, sizes[-1], sizes + [sizes[-1]], False, False))
    return ProgressionFreeSet(r=r, elements=tuple(best), method="exhaustive")


def _choose_set(d: int, r: int) -> ProgressionFreeSet:
    """Pick D for the given bound: exhaustive_best where feasible, else the
    digit set unless the capped set (any valid subset of {1..24} stays valid
    for larger d) is larger.  Its search is skipped when the digit set
    reaches twice the best size on {1..12}, which bounds each half of
    {1..24}, since the defining equation is translation invariant."""
    if d <= _EXHAUSTIVE_MAX_M:
        return exhaustive_best(d, r)
    try:
        alon = alon_construct(d, r)
    except ParamsTooSmall:  # digit range {0}: the construction degenerates
        return exhaustive_best(_EXHAUSTIVE_MAX_M, r)
    if len(alon) >= 2 * _sizes((_EXHAUSTIVE_MAX_M + 1) // 2, r)[-1]:
        return alon
    return max(alon, _best(_EXHAUSTIVE_MAX_M, r), key=len)  # a tie keeps the digit set


def _first_of_size(m: int, r: int, target: int, bound: list[int],
                   ends: bool, mirror: bool) -> Optional[list[int]]:
    """First valid subset of {1..m} of size target in include-first order
    (the lexicographically smallest), or None; bound[L] caps any L
    consecutive integers.  ends: the set must hold m.  mirror (every set
    holds 1 and m): cut sets with more elements in [m-h+1, m] than in
    [1, h], h = m//2 (at x > h after elements <= h).

    Bitmasks: sums[j] has bit s when a j-multiset of the set sums to s,
    rev[j] bit K - s, means bit r*d per member d.  Appending x (the largest
    so far) makes a solution iff x + (r-1 members) = r*d for a member d, so
    later y = r*x - s (s in sums[r-1]) are forbidden: all the invalid y for
    r = 2, some of them for r >= 3, where the exact test still decides.
    One loop over a stack of parent levels: a child is entered only if its
    allowed holds m (ends) or anything; the target-th element returns.
    """
    K, need = r * m, 1 << m if ends else -1
    h = m // 2 if mirror and m > 1 else m
    caps = [0] + bound[m:0:-1]  # caps[x] = bound[m - x + 1], the cap on [x, m]
    cur, levels, left, js = [], [], target, range(1, r)
    sums, rev, means, allowed = [1] + [0] * (r - 1), [1 << K] + [0] * (r - 1), 0, (2 << m) - 2
    while True:
        if allowed & need:
            x = (allowed & -allowed).bit_length() - 1
            if not (caps[x] < left or allowed.bit_count() < left
                    or x > h >= cur[-1] and 2 * (target - left) + (x <= m - h) < target):
                allowed ^= 1 << x
                g, rg = 1, 1 << K
                grown, rgrown = [g], [rg]
                for j in js:
                    g = sums[j] | g << x
                    rg = rev[j] | rg >> x
                    grown.append(g)
                    rgrown.append(rg)
                if not (means >> x) & g:
                    if left == 1:
                        return cur + [x]
                    child = allowed & ~(rg >> (K - r * x))
                    if child & need:
                        cur.append(x)
                        levels.append((sums, rev, means, allowed))
                        sums, rev, means, allowed = grown, rgrown, means | 1 << (r * x), child
                        left -= 1
                continue
        if not levels:
            return None
        sums, rev, means, allowed = levels.pop()  # pruned or spent: back to the parent
        cur.pop()
        left += 1
