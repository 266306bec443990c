"""The brute-force zero-sum check, the tests' oracle for the family formula.

zero_sum_witness walks every (r+1)-subset of the elements, sharing nothing
with the lookup kernel that verify_mr runs.
"""

from itertools import combinations


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
