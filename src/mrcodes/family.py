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
and no family holds an unproved D.  verify_mr (mrcode) certifies the
property on the code by this lemma, and its lookup kernel audits it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import BadParams, BadSet, Mismatch, TooLarge
from .field import _check_int
from .progfree import ProgressionFreeSet, verify_progression_free

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
    # D_0 .. D_r in D order; A_b for b in D ascending; the canonical flat
    # order, by b, then i
    blocks: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False)
    transversals: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False)
    elements: tuple[int, ...] = dc_field(init=False, repr=False)

    def __post_init__(self):
        """Proves D before the residues are made: n within _MAX_N first, so
        an oversized D never meets the set oracle, then D's r, D strictly
        increasing in [1, d], and the set oracle."""
        if not isinstance(self.params, FamilyParams):
            raise BadParams(f"params={self.params!r} is not a FamilyParams")
        if not isinstance(self.D, ProgressionFreeSet):
            raise BadParams(f"D={self.D!r} is not a ProgressionFreeSet")
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
