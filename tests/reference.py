"""The tests' brute-force references, on plain ints mod q.

Each is the slow, obvious path that a fast path of the library is checked
against.  They read only public data: q, the values of code.G,
code.repair_groups, and a family's exponents and D.  None runs an algorithm
of the library: one Gauss-Jordan here (gauss_jordan) gives rank, solve and
the decode plan's inverse, the closed-form column is computed with pow,
factors come from trial division by every integer, and the digit set from
a list of every digit vector.
"""

import math
from itertools import combinations, combinations_with_replacement, product

from mrcodes.errors import (BadParams, BadSymbol, Inconsistent, LengthMismatch, Mismatch,
                            NotCorrectable, ParamsTooSmall, PropertyViolation, TooLarge)
from mrcodes.mrcode import MrReport
from mrcodes.progfree import AlonMeta, ProgressionFreeSet

# rank_scan's C(n, r+1) rank computations must fit this
EXHAUSTIVE_SUBSET_GUARD = 10**7


# --- the field and the sets ---

def prime_factors(n):
    """n's distinct prime factors, ascending, by trial division by every
    f >= 2 while f * f is at most what is left; () for n < 2."""
    factors, f = [], 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)


def first_witness(elems, r):
    """The set oracle's first witness, (d_0, ..., d_{r-1}, d_r) with the
    first r a sorted multiset of elems summing to r * d_r and some entry
    unlike d_r, or None: every entry is compared with d_r."""
    elem_set = set(elems)
    for combo in combinations_with_replacement(sorted(elem_set), r):
        s = sum(combo)
        if s % r == 0 and s // r in elem_set and any(c != s // r for c in combo):
            return combo + (s // r,)
    return None


def digit_set(m, r):
    """The digit construction by enumeration: every vector of t+1 base-h
    digits in [0, (h-1)//r], h = floor(e^sqrt(ln m ln r)) (at least 2) and
    t = floor(log_h m) - 1 (at least 0), is bucketed by square-sum, and
    the set is the largest bucket of values in [1, m], the smallest
    square-sum on a tie."""
    if r < 2 or m < 2:
        raise BadParams("need r >= 2 and m >= 2")
    h = max(2, math.floor(math.exp(math.sqrt(math.log(m) * math.log(r)))))
    top = (h - 1) // r
    if top < 1:
        raise ParamsTooSmall("the digit range is {0}")
    k, hp = 0, h
    while hp <= m:
        hp *= h
        k += 1
    t = max(k - 1, 0)
    weights = [h**j for j in range(t + 1)]
    buckets = {}
    for digits in product(range(top + 1), repeat=t + 1):
        x = sum(d * w for d, w in zip(digits, weights))
        if 1 <= x <= m:
            buckets.setdefault(sum(d * d for d in digits), []).append(x)
    best_b = min(buckets, key=lambda b: (-len(buckets[b]), b))
    meta = AlonMeta(h=h, t=t, B=best_b,
                    size_bound=m * math.exp(-5 * math.sqrt(math.log(m) * math.log(r))))
    return ProgressionFreeSet(r=r, elements=tuple(sorted(buckets[best_b])), method="alon",
                              alon_meta=meta)


# --- linear algebra over GF(q) ---

def gauss_jordan(rows, ncols, q):
    """Reduce the first ncols columns of rows (lists of residues mod q) in
    place, first-nonzero pivot; later columns ride along.  Returns the pivot
    columns."""
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = pow(rows[rk][col], -1, q)
        rows[rk] = [x * inv % q for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rk])]
        pivots.append(col)
    return pivots


def rank(matrix, q):
    """The rank of an int matrix mod q; Mismatch unless its rows are of one length."""
    rows = [list(row) for row in matrix]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise Mismatch("rank needs equal-length rows")
    return len(gauss_jordan(rows, width, q))


def solve(matrix, rhs, q):
    """The x with matrix . x = rhs mod q, or None unless there is exactly one."""
    ncols = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if len(gauss_jordan(rows, ncols, q)) < ncols or any(row[-1] for row in rows[ncols:]):
        return None
    return [row[-1] for row in rows[:ncols]]


def matrix(code):
    """G's values, as a list of int rows."""
    return [[e.value for e in row] for row in code.G]


def columns(G, indices):
    """The columns of the int matrix G at indices, in that order."""
    return [[row[j] for j in indices] for row in G]


def closed_form_column(x, r, q):
    """(x, x^2, ..., x^r, x^(r+1) + (-1)^(r+1)) mod q."""
    return [pow(x, e, q) for e in range(1, r + 1)] + [(pow(x, r + 1, q) + (-1) ** (r + 1)) % q]


# --- the MR claim and the family lemma ---

def rank_scan(G, groups, q):
    """verify_mr's exhaustive report by brute force on the int matrix G: a
    rank per (r+1)-column subset, then every r columns inside each group.
    TooLarge past EXHAUSTIVE_SUBSET_GUARD subsets."""
    k, n = len(G), len(G[0])
    r = k - 1
    cost = math.comb(n, k)
    if cost > EXHAUSTIVE_SUBSET_GUARD:
        raise TooLarge(f"C({n}, {k}) = {cost} exceeds the exhaustive guard "
                       f"{EXHAUSTIVE_SUBSET_GUARD}")
    group_sets = {frozenset(g) for g in groups}
    report = MrReport(mode="exhaustive")
    for subset in combinations(range(n), k):
        rk = rank(columns(G, subset), q)
        expected = r if frozenset(subset) in group_sets else k
        report.mds_subsets_checked += 1
        if rk == r:
            report.deficient_subsets.append(subset)
        if rk != expected:
            report.violations.append((subset, rk, expected))
    for group in groups:
        for subset in combinations(group, r):
            rk = rank(columns(G, subset), q)
            if rk != r:
                report.local_distance_ok = False
                report.violations.append((subset, rk, r))
    return report


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
        if (sum(subset) % N == 0) != (frozenset(subset) in transversal_sets):
            return frozenset(subset)
    return None


def brute_force_check(elems, r):
    """The set oracle by ordered tuples: True when no r elements sum to r
    times an element unless all r+1 are equal."""
    return not any(sum(tup[:r]) == r * tup[r] and len(set(tup)) > 1
                   for tup in product(sorted(elems), repeat=r + 1))


# --- the codec ---

def _symbols(code, symbols):
    q = code.field.q
    for x in symbols:
        if x is not None and (type(x) is not int or not 0 <= x < q):
            raise BadSymbol(f"symbol {x!r} is not an integer in [0, {q})")
    return list(symbols)


def encode(code, message):
    """message . G mod q, one dot product per column."""
    msg, q = _symbols(code, message), code.field.q
    return [sum(m * g for m, g in zip(msg, col)) % q for col in zip(*matrix(code))]


def correctable(code, erased):
    """True iff the surviving columns have rank k."""
    survivors = [j for j in range(code.n) if j not in erased]
    return rank(columns(matrix(code), survivors), code.field.q) == code.k


def repair_coefficients(code, erased_index, others):
    """The c with G_erased = sum c_i G_others[i], by one solve."""
    G = matrix(code)
    c = solve(columns(G, others), [row[erased_index] for row in G], code.field.q)
    if c is None:
        raise PropertyViolation(f"repair system for column {erased_index} unsolvable; "
                                f"code structure violated")
    return tuple(c)


def _pivots(code, erased):
    """The first k present columns, left to right, that raise the rank."""
    G, q, pivots = matrix(code), code.field.q, []
    for j in range(code.n):
        if j not in erased and rank(columns(G, pivots + [j]), q) > len(pivots):
            pivots.append(j)
            if len(pivots) == code.k:
                break
    return pivots


def decode(code, received):
    """Local repair of every single-erasure group, greedy pivots among the
    known columns, solve, then a re-encode check of every present symbol."""
    if len(received) != code.n:
        raise LengthMismatch(f"received length {len(received)} != n={code.n}")
    erased = frozenset(j for j, s in enumerate(received) if s is None)
    if not correctable(code, erased):
        raise NotCorrectable(f"erasure pattern {sorted(erased)} is not correctable")
    working, q, G = _symbols(code, received), code.field.q, matrix(code)
    for group in code.repair_groups:
        missing = [j for j in group if working[j] is None]
        if len(missing) == 1:
            others = [j for j in group if j != missing[0]]
            coeffs = repair_coefficients(code, missing[0], others)
            working[missing[0]] = sum(c * working[j] for c, j in zip(coeffs, others)) % q
    pivots = _pivots(code, {j for j, s in enumerate(working) if s is None})
    message = solve([[G[i][j] for i in range(code.k)] for j in pivots],
                    [working[j] for j in pivots], q)
    for j, value in enumerate(encode(code, message)):
        if j not in erased and value != working[j]:
            raise Inconsistent(f"symbol at column {j} contradicts the decoded message")
    return message


def plan(code, erased):
    """(correctable, pivots, inverse): a survivors rank check, greedy
    pivots, and the inverse of their k x k block from k solves."""
    if not correctable(code, erased):
        return False, (), ()
    pivots, G, k, q = _pivots(code, erased), matrix(code), code.k, code.field.q
    block = [[G[i][j] for i in range(k)] for j in pivots]
    inverse_cols = [solve(block, [int(i == c) for i in range(k)], q) for c in range(k)]
    return True, tuple(pivots), tuple(zip(*inverse_cols))


def failure_probabilities(code, ps):
    """The 2^n pattern enumeration, each pattern judged by the rank of its
    survivors; one failure probability per p in ps."""
    failing = [0] * (code.n + 1)
    for size in range(code.n + 1):
        for pattern in combinations(range(code.n), size):
            failing[size] += not correctable(code, set(pattern))
    return [sum(count * p**size * (1 - p) ** (code.n - size)
                for size, count in enumerate(failing)) for p in ps]


class ReadTracker:
    """Sequence proxy recording which positions get read."""

    def __init__(self, data):
        self.data, self.reads = data, []

    def __getitem__(self, i):
        self.reads.append(i)
        return self.data[i]

    def __len__(self):
        return len(self.data)
