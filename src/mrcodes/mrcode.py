"""The (r+1) x n generator matrix, its verifier, and erasure decoding.

Column j is built from exponent a = elements[j] of the zero-sum family:
rows 1..r hold gamma^(l*a), row r+1 holds gamma^((r+1)*a) + (-1)^(r+1).
Columns are in the family's canonical order, so repair group i occupies
the contiguous index block [i*(r+1), (i+1)*(r+1)).

The structural claim verified at runtime: an (r+1)-column subset is rank
deficient (rank r) exactly when it is a repair group, and every r columns
inside a group are independent.  Message recovery from erasures reduces to
linear algebra over GF(q), all done by one Gauss-Jordan (_row_reduce): a
decode plan is one reduction of the present columns beside I_k, which gives
the verdict, the pivot columns and their inverse together.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (BadSymbol, Inconsistent, LengthMismatch, Mismatch,
                     MultipleErasuresInGroup, NotCorrectable, NotInGroup,
                     PropertyViolation, TooLarge)
from .family import ZeroSumFamily, _identity_subsets
from .field import Field, FieldElement

_MAX_N = 10**3
_EXHAUSTIVE_SUBSET_GUARD = 10**7
_SAMPLED_SUBSETS = 10**5

Matrix = tuple[tuple[FieldElement, ...], ...]


class _DecodePlan(NamedTuple):
    """What decode needs for one erasure set, derived from G alone."""
    erased: frozenset[int]
    correctable: bool
    pivots: tuple[int, ...] = ()
    # message = inverse . (symbols at pivots), all mod q
    inverse: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class MrCode:
    field: Field
    family: ZeroSumFamily
    r: int
    n: int
    k: int
    G: Matrix                                 # (r+1) rows x n columns
    repair_groups: tuple[tuple[int, ...], ...]
    # Codec state derived from this object's own G, never shared between codes:
    # the columns of G as ints, the local-repair coefficients per erased
    # column, and the plan of the last erasure set decoded.
    _int_columns: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False, compare=False)
    _repair_coeffs: dict = dc_field(init=False, repr=False, compare=False,
                                    default_factory=dict)
    _plan: Optional[_DecodePlan] = dc_field(init=False, repr=False, compare=False,
                                            default=None)

    def __post_init__(self):
        object.__setattr__(self, "_int_columns",
                           tuple(zip(*((e.value for e in row) for row in self.G))))

    @property
    def h(self) -> int:
        """Global erasures correctable beyond one per group."""
        return self.n * self.r // (self.r + 1) - self.k

    def group_of(self, column: int) -> int:
        return column // (self.r + 1)

    def columns(self, indices: Sequence[int]) -> Matrix:
        return tuple(tuple(row[j] for j in indices) for row in self.G)


@dataclass(frozen=True)
class ErasurePattern:
    erased: frozenset[int]

    @classmethod
    def from_indices(cls, indices, n: int) -> "ErasurePattern":
        indices = list(indices)
        if len(indices) != len(set(indices)):
            raise ValueError("duplicate erasure indices")
        if any(not 0 <= i < n for i in indices):
            raise ValueError(f"erasure index out of range [0, {n})")
        return cls(frozenset(indices))

    @classmethod
    def from_group_positions(cls, pairs, r: int, n: int) -> "ErasurePattern":
        """pairs of (group_index, position_in_group), zero-based."""
        return cls.from_indices((g * (r + 1) + p for g, p in pairs), n)


def build_code(field: Field, family: ZeroSumFamily) -> MrCode:
    if family.params.N != field.N:
        raise Mismatch(f"family N={family.params.N} != field N={field.N}")
    r = family.r
    n = family.n
    if n > _MAX_N:
        raise Mismatch(f"n={n} exceeds the desk-scale bound {_MAX_N}")
    sign = field.minus_one_pow(r + 1)
    G = tuple(
        tuple(field.gamma_pow(ell * a) for a in family.elements)
        for ell in range(1, r + 1)
    ) + (
        tuple(field.gamma_pow((r + 1) * a) + sign for a in family.elements),
    )
    groups = tuple(tuple(range(i * (r + 1), (i + 1) * (r + 1)))
                   for i in range(n // (r + 1)))
    return MrCode(field=field, family=family, r=r, n=n, k=r + 1,
                  G=G, repair_groups=groups)


def _row_reduce(rows: list[list[FieldElement]], ncols: int) -> list[int]:
    """Gauss-Jordan on the first ncols columns of rows, in place: exact field
    arithmetic, first-nonzero pivot, stopping once every row has a pivot.

    Returns the pivot columns; any columns after ncols are carried along by
    the same row operations.  The pivots are the lexicographically first
    basis among the reduced columns.
    """
    pivots: list[int] = []
    for col in range(ncols):
        rk = len(pivots)
        if rk == len(rows):
            break
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = rows[rk][col].inv()
        rows[rk] = [x * inv for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        pivots.append(col)
    return pivots


def rank(matrix: Sequence[Sequence[FieldElement]]) -> int:
    """Row-echelon rank, exact field arithmetic, first-nonzero pivot."""
    rows = [list(row) for row in matrix]
    return len(_row_reduce(rows, len(rows[0]) if rows else 0))


@dataclass
class MrReport:
    mode: str  # "exhaustive" | "sampled"
    mds_subsets_checked: int = 0
    deficient_subsets: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)
    local_distance_ok: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations and self.local_distance_ok


def _is_exhaustive(code: MrCode, mode: str) -> bool:
    """Whether this mode checks every (r+1)-column subset; see _scan_subsets."""
    within_guard = math.comb(code.n, code.k) <= _EXHAUSTIVE_SUBSET_GUARD
    if mode == "exhaustive" and not within_guard:
        raise TooLarge(f"C({code.n}, {code.k}) exceeds the exhaustive guard")
    return within_guard if mode == "auto" else mode == "exhaustive"


def _scan_subsets(code: MrCode, seed: int, mode: str, subset_rank) -> MrReport:
    """Report subset_rank(subset) against the expected rank (r for a repair
    group, r+1 otherwise) over the (r+1)-column subsets.

    Exhaustive when C(n, r+1) is within the guard; otherwise all repair
    groups plus uniformly sampled subsets (flagged in report.mode).
    mode forces one behavior: "exhaustive" raises TooLarge past the guard,
    "sampled" always samples.
    """
    r, k = code.r, code.k
    group_sets = {frozenset(g) for g in code.repair_groups}
    exhaustive = _is_exhaustive(code, mode)
    if exhaustive:
        subsets = combinations(range(code.n), k)
    else:
        rng = random.Random(seed)
        sampled = {tuple(sorted(rng.sample(range(code.n), k)))
                   for _ in range(_SAMPLED_SUBSETS)}
        sampled.update(tuple(g) for g in code.repair_groups)
        subsets = iter(sampled)
    report = MrReport(mode="exhaustive" if exhaustive else "sampled")
    for subset in subsets:
        rk = subset_rank(subset)
        expected = r if frozenset(subset) in group_sets else k
        report.mds_subsets_checked += 1
        if rk == r:
            report.deficient_subsets.append(tuple(subset))
        if rk != expected:
            report.violations.append((tuple(subset), rk, expected))
    return report


def _closed_form_values(code: MrCode) -> Optional[list[int]]:
    """The first-row values x_j when G is the closed-form matrix, else None.

    Closed form: column j is (x, x^2, ..., x^r, x^(r+1) + (-1)^(r+1)) with
    x = x_j nonzero and the x_j pairwise distinct.  Reads only G and q.
    """
    q, r, n = code.field.q, code.r, code.n
    G = code.G
    if code.k != r + 1 or len(G) != code.k or any(len(row) != n for row in G):
        return None
    xs = [e.value for e in G[0]]
    if 0 in xs or len(set(xs)) != n:
        return None
    sign = 1 if (r + 1) % 2 == 0 else q - 1
    for j, x in enumerate(xs):
        power = x
        for ell in range(1, r):
            power = power * x % q
            if G[ell][j].value != power:
                return None
        if G[r][j].value != (power * x + sign) % q:
            return None
    return xs


def verify_mr(code: MrCode, seed: int = 0, mode: str = "auto") -> MrReport:
    """Check that the deficient (r+1)-column subsets are the repair groups.

    When G has the closed form (see _closed_form_values), the determinant of
    any r+1 of its columns is V(x) * (prod x - 1) with V the Vandermonde
    determinant of their first-row values, so a subset is deficient (rank r)
    exactly when its values multiply to 1 mod q, and otherwise has rank
    r+1.  Every r columns have rank r (their top r rows are a scaled
    Vandermonde matrix), so the in-group distance check always passes.  Any
    other G gets the rank scan (_rank_scan) and its report.  Subset choice
    and report mode: see _scan_subsets; exhaustive closed-form reports come
    from _identity_subsets in C(n, r) lookups and equal the scan's.
    """
    xs = _closed_form_values(code)
    if xs is None:
        return _rank_scan(code, seed, mode)
    r, k, q = code.r, code.k, code.field.q
    if not _is_exhaustive(code, mode):
        return _scan_subsets(code, seed, mode,
                             lambda subset: r if math.prod(xs[j] for j in subset) % q == 1 else k)
    deficient = list(_identity_subsets(xs, [pow(x, -1, q) for x in xs], r, mul, q))
    # the scan's violations, in its order: the symmetric difference of the
    # deficient subsets and the groups (only k-sets of columns can match)
    deficient_sets = set(map(frozenset, deficient))
    columns = frozenset(range(code.n))
    odd = deficient_sets.symmetric_difference(map(frozenset, code.repair_groups))
    violations = sorted((tuple(sorted(s)),) + ((r, k) if s in deficient_sets else (k, r))
                        for s in odd if len(s) == k and s <= columns)
    return MrReport(mode="exhaustive", mds_subsets_checked=math.comb(code.n, k),
                    deficient_subsets=deficient, violations=violations)


def _rank_scan(code: MrCode, seed: int = 0, mode: str = "auto") -> MrReport:
    """verify_mr by brute force: a rank per subset plus the in-group
    distance check.  Trusts no structure of G."""
    report = _scan_subsets(code, seed, mode, lambda subset: rank(code.columns(subset)))
    r = code.r
    for group in code.repair_groups:
        for subset in combinations(group, r):
            if rank(code.columns(subset)) != r:
                report.local_distance_ok = False
                report.violations.append((tuple(subset), rank(code.columns(subset)), r))
    return report


def _symbol(code: MrCode, x) -> int:
    """x as an int in [0, q); BadSymbol unless x is such an int (bool
    excluded) or a FieldElement of the code's field."""
    if isinstance(x, FieldElement):
        if x.field.q != code.field.q:
            raise BadSymbol(f"symbol {x!r} is not an element of GF({code.field.q})")
        return x.value
    if type(x) is not int or not 0 <= x < code.field.q:
        raise BadSymbol(f"symbol {x!r} is not an integer in [0, {code.field.q})")
    return x


def encode(code: MrCode, message: Sequence) -> list[FieldElement]:
    if len(message) != code.k:
        raise LengthMismatch(f"message length {len(message)} != k={code.k}")
    msg = [_symbol(code, x) for x in message]
    field, q = code.field, code.field.q
    return [FieldElement(sum(map(mul, msg, col)) % q, field) for col in code._int_columns]


def _repair_coefficients(code: MrCode, erased_index: int, others: list[int]) -> tuple[int, ...]:
    """The c with G_erased = sum c_i G_others[i], memoised per column."""
    coeffs = code._repair_coeffs.get(erased_index)
    if coeffs is None:
        # g_erased is in the span of the other r group columns (group rank
        # is r, any r of them independent): reducing [G_others | g_erased]
        # leaves c beside the r pivots and a zero row below them
        r = len(others)
        rows = [[code.G[i][j] for j in others] + [code.G[i][erased_index]]
                for i in range(code.k)]
        if len(_row_reduce(rows, r)) < r or any(row[r] for row in rows[r:]):
            raise PropertyViolation(f"repair system for column {erased_index} unsolvable; "
                                    f"code structure violated")
        coeffs = code._repair_coeffs[erased_index] = tuple(row[r].value for row in rows[:r])
    return coeffs


def local_repair(code: MrCode, received: Sequence, erased_index: int) -> FieldElement:
    """Recover one erased symbol from the r other symbols of its group.

    Reads exactly the r in-group positions; nothing outside the group is
    touched.
    """
    if not 0 <= erased_index < code.n:
        raise NotInGroup(f"column {erased_index} out of range [0, {code.n})")
    group = code.repair_groups[code.group_of(erased_index)]
    others = [j for j in group if j != erased_index]
    symbols = []
    for j in others:
        s = received[j]
        if s is None:
            raise MultipleErasuresInGroup(f"group {code.group_of(erased_index)} "
                                          f"has another erasure at column {j}")
        symbols.append(_symbol(code, s))
    coeffs = _repair_coefficients(code, erased_index, others)
    return FieldElement(sum(map(mul, coeffs, symbols)) % code.field.q, code.field)


def _erased_indices(code: MrCode, pattern) -> frozenset[int]:
    if isinstance(pattern, ErasurePattern):
        return pattern.erased
    return ErasurePattern.from_indices(pattern, code.n).erased


def is_correctable(code: MrCode, pattern) -> bool:
    """True iff the surviving columns span the full message space."""
    erased = _erased_indices(code, pattern)
    survivors = [j for j in range(code.n) if j not in erased]
    return rank(code.columns(survivors)) == code.k


def _build_plan(code: MrCode, erased: frozenset[int]) -> _DecodePlan:
    """One reduction of [G_S | I_k], S the present columns in order: fewer
    than k pivots means not correctable; otherwise the pivots are the k
    columns a greedy left-to-right choice would take, and the right block
    is the inverse of their k x k block G_P."""
    present = [j for j in range(code.n) if j not in erased]
    width, field, k = len(present), code.field, code.k
    rows = [[code.G[i][j] for j in present]
            + [field.one if c == i else field.zero for c in range(k)] for i in range(k)]
    pivots = _row_reduce(rows, width)
    if len(pivots) < k:
        return _DecodePlan(erased, correctable=False)
    # message * G_P = symbols at the pivots, so message = symbols . G_P^-1
    inverse = tuple(zip(*([x.value for x in row[width:]] for row in rows)))
    return _DecodePlan(erased, correctable=True,
                       pivots=tuple(present[c] for c in pivots), inverse=inverse)


def decode(code: MrCode, received: Sequence) -> list[FieldElement]:
    """Recover the message from a codeword with None marking erasures.

    The message is solved from k independent present columns (chosen
    greedily left to right) and cross-checked against every present symbol;
    Inconsistent names the first present column that contradicts it.  The
    column choice and its inverse are kept for the last erasure set decoded,
    so a run of blocks sharing one pattern pays for them once.
    """
    if len(received) != code.n:
        raise LengthMismatch(f"received length {len(received)} != n={code.n}")
    erased = frozenset(j for j, s in enumerate(received) if s is None)
    plan = code._plan  # read once: another caller may replace it meanwhile
    if plan is None or plan.erased != erased:
        plan = _build_plan(code, erased)
        object.__setattr__(code, "_plan", plan)
    if not plan.correctable:
        raise NotCorrectable(f"erasure pattern {sorted(erased)} is not correctable")
    symbols = [None if s is None else _symbol(code, s) for s in received]
    q = code.field.q
    pivot_symbols = [symbols[j] for j in plan.pivots]
    message = [sum(map(mul, row, pivot_symbols)) % q for row in plan.inverse]
    for j, (s, col) in enumerate(zip(symbols, code._int_columns)):
        if s is not None and sum(map(mul, message, col)) % q != s:
            raise Inconsistent(f"symbol at column {j} contradicts the decoded message")
    return [FieldElement(m, code.field) for m in message]
