"""Zero-sum transversal families in Z_N.

A family is its parameters and a valid set D in {1..d}, which fix the
n = |D|*(r+1) residues (FamilyParams derives l = floor(lambda*N) and
d = floor(delta*N) once, when it is made)

    a_{i,b} = i*l + b            (0 <= i <= r-1, b in D)
    a_{r,b} = N - C(r,2)*l - r*b (reduced mod N)

partitioned into transversals A_b = {a_{0,b}, ..., a_{r,b}}.  The defining
property: an (r+1)-subset of the family sums to 0 mod N exactly when it is
one of the transversals.  With lambda and delta in range (r^3*l < N and
r*d <= l) the residues are distinct, the last block needs no reduction and
every transversal sums to exactly N, and the property holds exactly when D
satisfies the defining equation: so ZeroSumFamily proves D when it is made,
and no family holds an unproved D.  verify_mr checks the property on the
code (construct and `mrcodes verify` run it) with the lookup kernel
(_identity_subsets), which finds the subsets summing to 0 mod N by meet in
the middle; _kernel_cost picks its split and counts its work, and the
kernel refuses, with TooLarge, a count past _KERNEL_GUARD; past it
verify_mr certifies the property by this lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BadParams, BadSet, Mismatch, TooLarge
from .field import _check_int
from .progfree import ProgressionFreeSet, verify_progression_free

_KERNEL_GUARD = 3 * 10**6  # lookups plus index entries
_MAX_N = 10**3  # the desk-scale bound on a family's, and so a code's, length n


@dataclass(frozen=True)
class FamilyParams:
    N: int
    r: int
    lam: Fraction    # 0 < lam < 1/r^3
    delta: Fraction  # 0 < delta < lam/r
    l: int = dc_field(init=False, repr=False)  # floor(lam*N), derived once
    d: int = dc_field(init=False, repr=False)  # floor(delta*N), derived once

    def __post_init__(self):
        _check_int("N", self.N)
        _check_int("r", self.r)
        for name, value in (("lambda", self.lam), ("delta", self.delta)):
            if not isinstance(value, Fraction):
                raise BadParams(f"{name}={value!r} is not a Fraction")
        r = self.r
        if r < 2:
            raise BadParams("r must be >= 2")
        if not (0 < self.lam < Fraction(1, r**3)):
            raise BadParams(f"lambda={self.lam} outside (0, 1/r^3)")
        if not (0 < self.delta < self.lam / r):
            raise BadParams(f"delta={self.delta} outside (0, lambda/r)")
        # exact floors: a Fraction's denominator is positive
        l = self.lam.numerator * self.N // self.lam.denominator
        d = self.delta.numerator * self.N // self.delta.denominator
        if l < 1 or d < 1:
            raise BadParams(f"l={l}, d={d}: both must be >= 1")
        for name, value in (("l", l), ("d", d)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ZeroSumFamily:
    params: FamilyParams
    D: ProgressionFreeSet
    blocks: tuple[tuple[int, ...], ...] = dc_field(init=False)        # D_0 .. D_r, in D order
    transversals: tuple[tuple[int, ...], ...] = dc_field(init=False)  # A_b, b in D ascending
    elements: tuple[int, ...] = dc_field(init=False)  # canonical flat order: by b, then i

    def __post_init__(self):
        """Proves D before the residues are made: n within _MAX_N first, so
        an oversized D never meets the set oracle, then D's r, D strictly
        increasing in [1, d], and the set oracle."""
        N, r, l, d = self.params.N, self.params.r, self.params.l, self.params.d
        D = self.D.elements
        if len(D) * (r + 1) > _MAX_N:
            raise TooLarge(f"n={len(D) * (r + 1)} exceeds the desk-scale bound {_MAX_N}")
        if self.D.r != r:
            raise Mismatch(f"D was checked for r={self.D.r}, the family has r={r}")
        if not D or min(D) < 1 or max(D) > d:
            raise BadParams(f"D={D} is not a nonempty subset of [1, d={d}]")
        if any(a >= b for a, b in zip(D, D[1:])):
            raise BadParams(f"D={D} is not strictly increasing")
        if verify_progression_free(D, r) is not None:
            raise BadSet(f"D={D} fails the defining equation for r={r}")
        offset = N - math.comb(r, 2) * l
        transversals = tuple(tuple(i * l + b for i in range(r)) + ((offset - r * b) % N,)
                             for b in D)
        blocks = tuple(tuple(tr[i] for tr in transversals) for i in range(r + 1))
        for name, value in (("blocks", blocks), ("transversals", transversals),
                            ("elements", tuple(a for tr in transversals for a in tr))):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def r(self) -> int:
        return self.params.r


def build_family(params: FamilyParams, D: ProgressionFreeSet) -> ZeroSumFamily:
    """The family of (params, D); ZeroSumFamily refuses an unproved D."""
    return ZeroSumFamily(params, D)


def _kernel_cost(n: int, r: int) -> tuple[int, int]:
    """(cost, t) for _identity_subsets on n values: the split t in [1, r-1]
    with the fewest C(n, r-t+1) lookups plus C(n, t) index entries (the
    smaller t on a tie), and that sum, which bounds the prefixes, lookups and
    entries the kernel builds.  Needs r >= 2."""
    return min((math.comb(n, r - t + 1) + math.comb(n, t), t) for t in range(1, r))


def _identity_subsets(values: Sequence[int], r: int, N: int) -> Iterator[tuple[int, ...]]:
    """Yield the index (r+1)-subsets, in lexicographic order, whose values
    sum to 0 mod N.  Needs r >= 2.

    Meet in the middle: with t from _kernel_cost, index the t-subsets
    (tails) by minus their sum, then walk the (r-t)-subset heads with a
    running sum plus one running index i, and look up the tails that start
    past i.  Tails are indexed in combinations order, so the hits come out
    in lexicographic order.  TooLarge, before any subset, when the cost
    exceeds _KERNEL_GUARD.
    """
    n = len(values)
    cost, t = _kernel_cost(n, r)
    if cost > _KERNEL_GUARD:
        raise TooLarge(f"the lookup kernel's cost for n={n}, r={r} = {cost} "
                       f"exceeds its guard {_KERNEL_GUARD}")
    tails: dict[int, list[tuple[int, ...]]] = {}
    # a tail starts past at least r-t+1 indices; a head leaves i and a tail after it
    for tail, total in _running(values, range(r - t + 1, n), t, N):
        tails.setdefault(-total % N, []).append(tail)
    for head, acc in _running(values, range(n - t - 1), r - t, N):
        for i in range(head[-1] + 1, n - t):
            for tail in tails.get((acc + values[i]) % N, ()):
                if tail[0] > i:
                    yield head + (i,) + tail


def _running(values: Sequence[int], indices: range, size: int,
             N: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (subset, its values' sum mod N) for each subset of indices of
    the given size >= 1, in combinations order.  Only prefixes that can
    still grow to that size inside indices are built, and the subsets are
    made lazily, so no level is held in memory."""
    if size == 1:
        return (((j,), values[j] % N) for j in indices)
    prefixes = _running(values, range(indices.start, indices.stop - 1), size - 1, N)
    return ((prefix + (j,), (acc + values[j]) % N)
            for prefix, acc in prefixes for j in range(prefix[-1] + 1, indices.stop))
