"""The brute-force zero-sum check, the tests' oracle for the family formula.

zero_sum_witness walks every (r+1)-subset of the elements, sharing nothing
with the lookup kernel that verify_mr runs.  family_residues computes the
residues a_{i,b} of any D, proved or not, from the family's formula.
"""

import math
from itertools import combinations


def family_residues(params, D):
    """(elements, transversals) of the family on D with these parameters,
    from a_{i,b} = i*l + b (i < r) and a_{r,b} = N - C(r,2)*l - r*b mod N,
    in the family's order: by b in D's order, then i.  No check of D."""
    N, r, l = params.N, params.r, params.l
    transversals = tuple(tuple(i * l + b for i in range(r))
                         + ((N - math.comb(r, 2) * l - r * b) % N,) for b in D)
    return tuple(a for tr in transversals for a in tr), transversals


def zero_sum_witness(elements, transversals, N, r):
    """None when an (r+1)-subset of elements sums to 0 mod N exactly when it
    is a transversal, else the first subset, in combinations order, that
    breaks this."""
    transversal_sets = {frozenset(tr) for tr in transversals}
    for subset in combinations(elements, r + 1):
        is_zero = sum(subset) % N == 0
        if is_zero != (frozenset(subset) in transversal_sets):
            return frozenset(subset)
    return None
