"""The (r+1) x n generator matrix, its verifier, and erasure decoding.

A code is its field and its zero-sum family.  Its repair groups and G's rows
(as ints) are derived from the two when the code is made: column j is
(x, x^2, ..., x^r, x^(r+1) + (-1)^(r+1)) (see _closed_form_rows) with
x = gamma^a, a = elements[j] of the family in its canonical order, so
repair group i, columns [i*(r+1), (i+1)*(r+1)), is the transversal of
b = D[i].  G's FieldElements, the rows packed for encoding and the map from
each column to its group, peers and repair coefficients are built on first
use, so construct, verify_mr and the spec reader and writer never build
them.  MrCode reads r and n from the family (k = r+1), whose D was proved
when it was made (so n is within family._MAX_N and the exponents, and so
the x, are distinct), and checks that the family's N is the field's.

The structural claim verified at runtime: an (r+1)-column subset is rank
deficient (rank r) exactly when it is a repair group.  By the closed form,
r+1 columns are deficient exactly when their x multiply to 1 mod q, that
is (gamma being primitive) when their exponents sum to 0 mod N, which is
all verify_mr reads; every r columns are independent.  Local repair reads
only the x (one Lagrange interpolation, the last row checked).  A decode
plan is one Gauss-Jordan (_row_reduce) of the present columns beside I_k,
which gives the verdict, the pivot columns and their inverse together;
is_correctable returns the verdict for an erasure set given as a plain
collection of column indices.

verify_mr certifies the structural claim by the family lemma, exactly, in
O(n).  Its "exhaustive" mode audits the lemma with the lookup kernel
(_identity_subsets), which finds the (r+1)-subsets summing to 0 mod N by
meet in the middle; _kernel_cost picks its split and counts its work, and
the kernel refuses, with TooLarge, a count past _KERNEL_GUARD.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import repeat
from operator import add, lshift, mul
from struct import pack, unpack
from typing import Iterator, NamedTuple, Optional

from .errors import (BadParams, BadSymbol, Inconsistent, LengthMismatch, Mismatch,
                     MultipleErasuresInGroup, NotCorrectable, NotInGroup,
                     PropertyViolation, TooLarge)
from .family import ZeroSumFamily
from .field import Field, FieldElement

Matrix = tuple[tuple[FieldElement, ...], ...]

_KERNEL_GUARD = 3 * 10**6  # lookups plus index entries


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
    r: int = dc_field(init=False, repr=False)
    n: int = dc_field(init=False, repr=False)
    k: int = dc_field(init=False, repr=False)
    repair_groups: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False)
    # State derived from this object's own fields, never shared between codes:
    # G's rows as ints (the first holds the x) and the last erasure set's
    # decode plan.  The column map and the packed rows are cached properties,
    # built on first use.
    _rows: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False, compare=False)
    _plan: Optional[_DecodePlan] = dc_field(init=False, repr=False, compare=False,
                                            default=None)

    def __post_init__(self):
        field, family = self.field, self.family
        if not isinstance(field, Field):
            raise BadParams(f"field={field!r} is not a Field")
        if not isinstance(family, ZeroSumFamily):
            raise BadParams(f"family={family!r} is not a ZeroSumFamily")
        r, n, k, q = family.r, family.n, family.r + 1, field.q
        if family.params.N != field.N:
            raise Mismatch(f"family N={family.params.N} != field N={field.N}")
        xs = tuple(pow(field.gamma, a, q) for a in family.elements)
        for name, value in (("r", r), ("n", n), ("k", k),
                            ("repair_groups", tuple(tuple(range(i, i + k))
                                                    for i in range(0, n, k))),
                            ("_rows", tuple(map(tuple, _closed_form_rows(xs, r, q))))):
            object.__setattr__(self, name, value)

    @cached_property
    def G(self) -> Matrix:
        """(r+1) rows x n columns of FieldElements, built from _rows on first read."""
        field = self.field
        return tuple(tuple(FieldElement(v, field) for v in row) for row in self._rows)

    @cached_property
    def _groups(self) -> dict[int, tuple[int, tuple[int, ...], Optional[tuple[int, ...]]]]:
        """Each column e's group index, its r peers and the c with G_e = sum
        c_i G_peers[i], None if there is none.  c_i = x_e L_i(x_e) / x_i, L_i
        the Lagrange basis over the peers' x, fits rows 1..r (x, ..., x^r),
        so only the last row is checked."""
        q, xs, last, groups = self.field.q, self._rows[0], self._rows[-1], {}
        for i, g in enumerate(self.repair_groups):
            for p, e in enumerate(g):
                peers = g[:p] + g[p + 1:]
                c = tuple(math.prod((xs[e] - xs[m]) * pow(xs[j] - xs[m], -1, q)
                                    for m in peers if m != j) * xs[e] * pow(xs[j], -1, q) % q
                          for j in peers)
                ok = sum(c_i * last[j] for c_i, j in zip(c, peers)) % q == last[e]
                groups[e] = (i, peers, c if ok else None)
        return groups

    @cached_property
    def _packed(self) -> tuple[int, tuple[int, ...]]:
        """(words, rows): each row of G as one integer with a slot of `words`
        64-bit words per column, enough for a sum of k products of values
        below q; _codeword reads it."""
        words = -(-(self.k * (self.field.q - 1) ** 2).bit_length() // 64)
        slots = "<" + f"Q{8 * words - 8}x" * self.n
        return words, tuple(int.from_bytes(pack(slots, *row), "little") for row in self._rows)

    @property
    def h(self) -> int:
        """Global erasures correctable beyond one per group."""
        return self.n * self.r // (self.r + 1) - self.k


def _closed_form_rows(xs: Sequence[int], r: int, q: int) -> list[list[int]]:
    """The r+1 rows of G whose first row is xs (residues mod q): the column
    of x is (x, x^2, ..., x^r, x^(r+1) + (-1)^(r+1)) mod q, each row the one
    above times the first."""
    rows = [list(xs)]
    for _ in range(r):
        rows.append([y * x % q for y, x in zip(rows[-1], xs)])
    rows[r] = [(y + (-1) ** (r + 1)) % q for y in rows[r]]
    return rows


def build_code(field: Field, family: ZeroSumFamily) -> MrCode:
    return MrCode(field, family)


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


@dataclass
class MrReport:
    mode: str  # "exhaustive" | "certificate"
    mds_subsets_checked: int = 0
    deficient_subsets: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)
    # every r columns independent: always so, since any r distinct nonzero x
    # give a scaled Vandermonde block in the top r rows
    local_distance_ok: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations and self.local_distance_ok


def verify_mr(code: MrCode, mode: str = "auto") -> MrReport:
    """Check that the deficient (r+1)-column subsets are the repair groups.

    G has the closed form (MrCode derives its rows when the code is made),
    so the determinant of any r+1 of its columns is V(x) * (prod x - 1) with
    V the Vandermonde determinant of their first-row values: a subset is
    deficient (rank r) exactly when its x multiply to 1 mod q, and otherwise
    has rank r+1.  The x are gamma^a for the family's exponents a, and gamma
    is primitive (of order N), so prod gamma^a = 1 exactly when sum a = 0
    mod N: this check reads only the exponents and N, never G.  Mode "auto"
    answers with mode "certificate", which lists the repair groups: group p
    is a transversal (column p*(r+1) + i holds block i's a_{i,b}, b = D[p]).
    Mode "exhaustive" runs the lookup kernel (_identity_subsets) over every
    subset instead, and passes its TooLarge on: it audits the lemma.

    The family lemma makes the certificate exact.  ZeroSumFamily holds only a D
    strictly increasing in [1, d] that passes the set oracle, and
    FamilyParams gives r^3*l < N and r*d <= l.  Take r+1 columns, c_i
    of them in block i, beta the sum of their b in blocks below r and
    beta_r in block r.  Their exponents sum to l*E + beta - r*beta_r + c_r*N,
    E = sum_{i<r} i*c_i - C(r,2)*c_r, with |l*E| <= l*(r^3 - r)/2 < N/2 and
    |beta - r*beta_r| <= r*(r+1)*d < 3N/8, so to 0 mod N exactly when
    l*E = r*beta_r - beta.  c_r = 0 gives l*E >= 0 > -beta = r*beta_r - beta,
    and c_r >= 2 gives E <= 1-r, l*E < (1-r)*d <= -beta.  So c_r = 1, and
    |r*beta_r - beta| <= r*(d-1) < l forces E = 0 and beta = r*b_r: r
    members of D summing to r times a member, so all equal to b_r, and the
    r distinct columns in blocks below r sit one in each: a transversal.
    """
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    if mode not in ("auto", "exhaustive"):
        raise BadParams(f"unknown verifier mode {mode!r}")
    n, r, k = code.n, code.r, code.k
    if mode == "exhaustive":
        deficient = list(_identity_subsets(code.family.elements, r, code.field.N))
    else:
        deficient, mode = list(code.repair_groups), "certificate"
    # the violations in lexicographic order: the symmetric difference of the
    # deficient subsets and the groups, both sorted index tuples
    deficient_set = set(deficient)
    violations = sorted((s, r, k) if s in deficient_set else (s, k, r)
                        for s in deficient_set.symmetric_difference(code.repair_groups))
    return MrReport(mode=mode, mds_subsets_checked=math.comb(n, k),
                    deficient_subsets=deficient, violations=violations)


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


def _length(symbols, what: str) -> int:
    """len(symbols); BadParams unless they are held by position, as in a list."""
    if type(symbols) is list or type(symbols) is tuple:
        return len(symbols)
    if isinstance(symbols, Mapping) or not (hasattr(symbols, "__len__")
                                            and hasattr(symbols, "__getitem__")):
        raise BadParams(f"{what} is a {type(symbols).__name__}, not a sequence of symbols")
    return len(symbols)


def _symbol(code: MrCode, x) -> int:
    """x as an int in [0, q); BadSymbol unless x is such an int (bool
    excluded) or a FieldElement of the code's field holding one."""
    q = code.field.q
    if type(x) is int and 0 <= x < q:
        return x
    if isinstance(x, FieldElement):
        if x.field.q != q:
            raise BadSymbol(f"symbol {x!r} is not an element of GF({q})")
        if type(x.value) is not int:
            raise BadSymbol(f"symbol {x!r} holds a {type(x.value).__name__}, not an int")
        return x.value
    raise BadSymbol(f"symbol {x!r} is not an integer in [0, {q})")


def _codeword(code: MrCode, message: list[int]) -> list[int]:
    """message . G mod q, as ints: one sum of k products of packed rows of G
    holds every column's value, read out 64 bits at a time."""
    words, rows = code._packed
    size = code.n * words
    values = unpack(f"<{size}Q", sum(map(mul, message, rows)).to_bytes(8 * size, "little"))
    slots = values[::words]
    for w in range(1, words):
        slots = map(add, slots, map(lshift, values[w::words], repeat(64 * w)))
    return list(map(code.field.q.__rmod__, slots))


def encode(code: MrCode, message: Sequence) -> list[FieldElement]:
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    if _length(message, "message") != code.k:
        raise LengthMismatch(f"message length {len(message)} != k={code.k}")
    field = code.field
    return [FieldElement(v, field)
            for v in _codeword(code, [_symbol(code, x) for x in message])]


def local_repair(code: MrCode, received: Sequence, erased_index: int) -> FieldElement:
    """Recover one erased symbol from the r other symbols of its group.

    Reads exactly the r in-group positions; nothing outside the group is
    touched.
    """
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    if type(erased_index) is not int:
        raise BadParams(f"column {erased_index!r} is not an int")
    if not 0 <= erased_index < code.n:
        raise NotInGroup(f"column {erased_index} out of range [0, {code.n})")
    if _length(received, "received") != code.n:
        raise LengthMismatch(f"received length {len(received)} != n={code.n}")
    index, others, coeffs = code._groups[erased_index]
    symbols = []
    for j in others:
        s = received[j]
        if s is None:
            raise MultipleErasuresInGroup(f"group {index} has another erasure at column {j}")
        symbols.append(_symbol(code, s))
    if coeffs is None:
        raise PropertyViolation(f"repair system for column {erased_index} unsolvable; "
                                f"code structure violated")
    return FieldElement(sum(map(mul, coeffs, symbols)) % code.field.q, code.field)


def _build_plan(code: MrCode, erased: frozenset[int]) -> _DecodePlan:
    """One reduction of [G_S | I_k], S the present columns in order: fewer
    than k pivots means not correctable; otherwise the pivots are the k
    columns a greedy left-to-right choice would take, and the right block
    is the inverse of their k x k block G_P."""
    present = [j for j in range(code.n) if j not in erased]
    width, field, k = len(present), code.field, code.k
    zero, one = FieldElement(0, field), FieldElement(1, field)  # immutable: shared by the rows
    rows = [[code.G[i][j] for j in present]
            + [one if c == i else zero for c in range(k)] for i in range(k)]
    pivots = _row_reduce(rows, width)
    if len(pivots) < k:
        return _DecodePlan(erased, correctable=False)
    # message * G_P = symbols at the pivots, so message = symbols . G_P^-1
    inverse = tuple(zip(*([x.value for x in row[width:]] for row in rows)))
    return _DecodePlan(erased, correctable=True,
                       pivots=tuple(present[c] for c in pivots), inverse=inverse)


def is_correctable(code: MrCode, erased) -> bool:
    """True iff the surviving columns span the full message space: the
    verdict of the decode plan for this erasure set.  erased is any
    collection of distinct int column indices in [0, n); BadParams if not."""
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    if not isinstance(erased, Iterable):
        raise BadParams(f"erasure indices {erased!r} are not a collection")
    indices = list(erased)
    if any(type(i) is not int for i in indices):
        raise BadParams(f"erasure indices must be ints: {indices!r}")
    if len(indices) != len(set(indices)):
        raise BadParams("duplicate erasure indices")
    if any(not 0 <= i < code.n for i in indices):
        raise BadParams(f"erasure index out of range [0, {code.n})")
    return _build_plan(code, frozenset(indices)).correctable


def decode(code: MrCode, received: Sequence) -> list[FieldElement]:
    """Recover the message from a codeword with None marking erasures.

    The message is solved from k independent present columns (chosen
    greedily left to right) and cross-checked against every present symbol;
    Inconsistent names the first present column that contradicts it.  The
    column choice and its inverse are kept for the last erasure set decoded,
    so a run of blocks sharing one pattern pays for them once.
    """
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    if _length(received, "received") != code.n:
        raise LengthMismatch(f"received length {len(received)} != n={code.n}")
    erased = frozenset([j for j, s in enumerate(received) if s is None])
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
    codeword = _codeword(code, message)
    for j in erased:
        codeword[j] = None
    if codeword != symbols:
        j = next(j for j, (c, s) in enumerate(zip(codeword, symbols)) if c != s)
        raise Inconsistent(f"symbol at column {j} contradicts the decoded message")
    return [FieldElement(m, code.field) for m in message]
