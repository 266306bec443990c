import random
from itertools import combinations
from typing import Optional

import pytest

import mrcodes.mrcode
from mrcodes.errors import (BadSymbol, Inconsistent, LengthMismatch, Mismatch, MrCodesError,
                            MultipleErasuresInGroup, NotCorrectable, NotInGroup,
                            PropertyViolation, TooLarge)
from mrcodes.field import FieldElement, make_field
from mrcodes.mrcode import (ErasurePattern, _build_plan, _closed_form_values, _DecodePlan,
                            _rank_scan, build_code, decode, encode, is_correctable,
                            local_repair, rank, verify_mr)
from mrcodes.pipeline import construct


@pytest.fixture(scope="module")
def code6():
    return construct(2, 101)[0]


@pytest.fixture(scope="module")
def code8():
    return construct(3, 653)[0]


class ReadTracker:
    """Sequence proxy recording which positions get read."""

    def __init__(self, data):
        self.data = data
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return self.data[i]

    def __len__(self):
        return len(self.data)


def column(code, j):
    return [code.G[i][j].value for i in range(code.k)]


class TestBuild:
    def test_shape(self, code6):
        assert code6.n == 6 and code6.k == 3 and code6.r == 2
        assert code6.repair_groups == ((0, 1, 2), (3, 4, 5))
        assert code6.h == 1  # 6*2/3 - 3

    def test_worked_columns(self, code6):
        # canonical exponent order: (1, 7, 92, 2, 8, 90)
        assert code6.family.elements == (1, 7, 92, 2, 8, 90)
        assert column(code6, 0) == [2, 4, 7]      # a=1: (2, 4, 2^3 - 1)
        assert column(code6, 3) == [4, 16, 63]    # a=2: 2^6 - 1 = 63
        assert column(code6, 2) == [58, 31, 80]   # a=92

    def test_sign_term_even_r(self, code8):
        # r=3: (-1)^(r+1) = +1
        a = code8.family.elements[0]
        g = code8.field.gamma
        q = code8.field.q
        assert code8.G[3][0].value == (pow(g, 4 * a, q) + 1) % q

    def test_mismatched_field(self, code6):
        from mrcodes.field import make_field
        with pytest.raises(Mismatch):
            build_code(make_field(13), code6.family)


class TestRank:
    def test_zero_matrix(self, code6):
        z = code6.field.zero
        assert rank([[z] * 3] * 3) == 0

    def test_identity(self, code6):
        f = code6.field
        eye = [[f.one if i == j else f.zero for j in range(3)] for i in range(3)]
        assert rank(eye) == 3

    def test_repair_group_deficient(self, code6):
        assert rank(code6.columns((0, 1, 2))) == 2
        # cross-check via determinant over GF(101)
        m = [[code6.G[i][j].value for j in (0, 1, 2)] for i in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % 101
        assert det == 0


class TestVerify:
    def test_exhaustive_r2(self, code6):
        report = verify_mr(code6)
        assert report.ok and report.mode == "exhaustive"
        assert report.mds_subsets_checked == 20
        assert sorted(report.deficient_subsets) == [(0, 1, 2), (3, 4, 5)]
        assert report.local_distance_ok

    def test_exhaustive_r3(self, code8):
        report = verify_mr(code8)
        assert report.ok
        assert report.mds_subsets_checked == 70
        assert sorted(report.deficient_subsets) == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_vandermonde_subrank(self, code6):
        for subset in combinations(range(6), 3):
            assert rank([code6.G[i][j] for j in subset] for i in range(2)) == 2

    def test_zero_sum_iff_deficient(self, code6, code8):
        for code in (code6, code8):
            N = code.field.N
            for subset in combinations(range(code.n), code.k):
                expo = sum(code.family.elements[j] for j in subset) % N
                assert (expo == 0) == (rank(code.columns(subset)) == code.r)


class TestEncode:
    def test_rows(self, code6):
        assert [s.value for s in encode(code6, [1, 0, 0])] == [2, 27, 58, 4, 54, 65]
        assert [s.value for s in encode(code6, [0, 0, 1])] == [7, 88, 80, 63, 4, 5]
        assert [s.value for s in encode(code6, [0, 0, 0])] == [0] * 6

    def test_length_check(self, code6):
        with pytest.raises(LengthMismatch):
            encode(code6, [1, 0])


class TestLocalRepair:
    def test_worked_example(self, code6):
        received = [s.value for s in encode(code6, [0, 0, 1])]
        assert received[0] == 7
        tracker = ReadTracker([None] + received[1:])
        repaired = local_repair(code6, tracker, 0)
        assert repaired == 7
        assert sorted(tracker.reads) == [1, 2]  # exactly r in-group reads

    def test_group2_example(self, code6):
        received = [s.value for s in encode(code6, [1, 0, 0])]
        assert received[5] == 65  # column of a=90
        received[5] = None
        assert local_repair(code6, received, 5) == 65

    def test_multiple_erasures(self, code6):
        received = [s.value for s in encode(code6, [1, 2, 3])]
        received[0] = received[1] = None
        with pytest.raises(MultipleErasuresInGroup):
            local_repair(code6, received, 0)

    def test_bad_index(self, code6):
        with pytest.raises(NotInGroup):
            local_repair(code6, [0] * 6, 6)

    def test_agrees_with_global_decode(self, code6):
        rng = random.Random(11)
        for _ in range(25):
            msg = [rng.randrange(101) for _ in range(3)]
            cw = encode(code6, msg)
            j = rng.randrange(6)
            received = [s.value for s in cw]
            received[j] = None
            assert local_repair(code6, received, j) == cw[j]
            decoded = decode(code6, received)
            assert [s.value for s in decoded] == msg


class TestCorrectable:
    def test_empty(self, code6):
        assert is_correctable(code6, ())

    def test_whole_group(self, code6):
        assert not is_correctable(code6, (0, 1, 2))

    def test_transversal(self, code6):
        assert is_correctable(code6, (0, 3))
        assert is_correctable(code6, (2, 4))

    def test_characterization(self, code6, code8):
        # <= r erased per group is not required; the true criterion is
        # "at most r columns erased... survivors rank k"; check the sufficient
        # condition: <= 1 erasure per group and >= k survivors
        for code in (code6, code8):
            for size in range(code.n + 1):
                for pattern in combinations(range(code.n), size):
                    per_group = [sum(1 for j in pattern if j in g)
                                 for g in code.repair_groups]
                    survivors = code.n - size
                    if all(c <= 1 for c in per_group) and survivors >= code.k:
                        assert is_correctable(code, pattern)

    def test_erasure_pattern_validation(self, code6):
        with pytest.raises(ValueError):
            ErasurePattern.from_indices([0, 0], 6)
        with pytest.raises(ValueError):
            ErasurePattern.from_indices([6], 6)
        p = ErasurePattern.from_group_positions([(1, 2)], r=2, n=6)
        assert p.erased == frozenset({5})


class TestDecode:
    def test_round_trip(self, code6):
        cw = [s.value for s in encode(code6, [1, 0, 0])]
        cw[0] = cw[3] = None
        assert [s.value for s in decode(code6, cw)] == [1, 0, 0]

    def test_not_correctable(self, code6):
        cw = [s.value for s in encode(code6, [1, 0, 0])]
        cw[0] = cw[1] = cw[2] = cw[3] = None  # full group plus one
        with pytest.raises(NotCorrectable):
            decode(code6, cw)

    def test_corruption_detected(self, code6):
        cw = [s.value for s in encode(code6, [5, 6, 7])]
        cw[4] = (cw[4] + 1) % 101
        with pytest.raises(Inconsistent):
            decode(code6, cw)

    def test_random_round_trips(self, code6, code8):
        rng = random.Random(5)
        for code in (code6, code8):
            q = code.field.q
            for _ in range(50):
                msg = [rng.randrange(q) for _ in range(code.k)]
                cw = [s.value for s in encode(code6 if code is code6 else code, msg)]
                while True:
                    pattern = [j for j in range(code.n) if rng.random() < 0.25]
                    if is_correctable(code, pattern):
                        break
                for j in pattern:
                    cw[j] = None
                assert [s.value for s in decode(code, cw)] == msg


def test_mutation_breaks_verifier(code6):
    for i in range(code6.k):
        for j in range(code6.n):
            G = [list(row) for row in code6.G]
            G[i][j] = G[i][j] + 1
            mutated = type(code6)(field=code6.field, family=code6.family,
                                  r=code6.r, n=code6.n, k=code6.k,
                                  G=tuple(tuple(r) for r in G),
                                  repair_groups=code6.repair_groups)
            assert not verify_mr(mutated).ok, f"mutation at ({i},{j}) undetected"


class TestClosedFormVerify:
    """verify_mr's determinant shortcut against the rank scan it replaces."""

    @pytest.mark.parametrize("r,q", [(2, 101), (3, 653), (2, 1601), (4, 1283)])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_matches_rank_scan(self, r, q, mode):
        code = construct(r, q)[0]
        assert _closed_form_values(code) is not None
        report = verify_mr(code, mode=mode)
        assert report == _rank_scan(code, mode=mode)
        assert report.ok and report.mode == mode

    def test_sampled_seed(self, code8):
        assert verify_mr(code8, seed=5, mode="sampled") == _rank_scan(code8, seed=5,
                                                                      mode="sampled")

    def test_mutations_fall_back_to_rank_scan(self, code6):
        q = code6.field.q
        for i in range(code6.k):
            for j in range(code6.n):
                for value in range(q):
                    if value == code6.G[i][j].value:
                        continue
                    mutated = _with_entry(code6, i, j, value)
                    assert _closed_form_values(mutated) is None, (i, j, value)
                    report = verify_mr(mutated, mode="exhaustive")
                    assert not report.ok, (i, j, value)
                    assert report == _rank_scan(mutated, mode="exhaustive"), (i, j, value)

    def test_product_one_subset_reported(self, code6):
        # closed-form G whose x-values 2*3*17 = 102 = 1 (mod 101) lie in
        # different repair groups: the fast path must report what the rank
        # scan reports
        f = code6.field
        xs = [2, 3, 5, 17, 7, 11]
        rows = [[f.element(pow(x, ell, 101)) for x in xs] for ell in (1, 2)]
        rows.append([f.element(pow(x, 3, 101) - 1) for x in xs])
        code = type(code6)(field=f, family=code6.family, r=2, n=6, k=3,
                           G=tuple(tuple(row) for row in rows),
                           repair_groups=code6.repair_groups)
        assert _closed_form_values(code) == xs
        report = verify_mr(code, mode="exhaustive")
        assert report == _rank_scan(code, mode="exhaustive")
        assert (0, 1, 3) in report.deficient_subsets and not report.ok

    def test_tampered_repair_groups(self, code6):
        code = type(code6)(field=code6.field, family=code6.family, r=2, n=6, k=3,
                           G=code6.G, repair_groups=((0, 1, 3), (2, 4, 5)))
        report = verify_mr(code)
        assert report == _rank_scan(code)
        assert not report.ok

    def test_guard_picks_the_mode(self, code6, monkeypatch):
        # C(6, 3) = 20 subsets: auto samples past the guard, exhaustive refuses
        monkeypatch.setattr(mrcodes.mrcode, "_EXHAUSTIVE_SUBSET_GUARD", 19)
        report = verify_mr(code6)
        assert report.mode == "sampled" and report == _rank_scan(code6)
        with pytest.raises(TooLarge):
            verify_mr(code6, mode="exhaustive")
        monkeypatch.setattr(mrcodes.mrcode, "_EXHAUSTIVE_SUBSET_GUARD", 20)
        assert verify_mr(code6).mode == "exhaustive"

    @pytest.mark.parametrize("groups", [
        ((2, 1, 0), (5, 3, 4)),
        ((0, 1), (2, 3, 4, 5)),
        ((0, 1, 2), (3, 4, -1)),
        ((0, 1, 2), (0, 1, 2)),
    ], ids=["permuted", "wrong-size", "out-of-range", "duplicated"])
    def test_odd_repair_groups(self, code6, groups):
        code = type(code6)(field=code6.field, family=code6.family, r=2, n=6, k=3,
                           G=code6.G, repair_groups=groups)
        assert verify_mr(code, mode="exhaustive") == _rank_scan(code, mode="exhaustive")


def _with_entry(code, i, j, value):
    G = [list(row) for row in code.G]
    G[i][j] = code.field.element(value)
    return type(code)(field=code.field, family=code.family, r=code.r, n=code.n,
                      k=code.k, G=tuple(tuple(row) for row in G),
                      repair_groups=code.repair_groups)


@pytest.mark.parametrize("bad", [101 + 27, -1, 2.5, True])
def test_bad_symbols_rejected(code6, bad):
    with pytest.raises(BadSymbol):
        encode(code6, [bad, 0, 0])
    received = [s.value for s in encode(code6, [1, 2, 3])]
    received[1] = bad
    with pytest.raises(BadSymbol):
        decode(code6, received)
    received[0] = None
    with pytest.raises(BadSymbol):
        local_repair(code6, received, 0)


def _solve(matrix: list[list[FieldElement]], rhs: list[FieldElement],
           zero: FieldElement) -> Optional[list[FieldElement]]:
    """Solve matrix * x = rhs by Gauss-Jordan; None if inconsistent.

    Requires the solution, when it exists, to be unique (full column rank).
    """
    rows = [row[:] + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    rk = 0
    for col in range(ncols):
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
        rk += 1
    if rk < ncols:
        return None  # underdetermined; callers guarantee full column rank
    for i in range(rk, len(rows)):
        if rows[i][-1]:
            return None  # inconsistent
    solution = [zero] * ncols
    for i, col in enumerate(pivots):
        solution[col] = rows[i][-1]
    return solution


def _ref_element(code, x):
    """A FieldElement passes; anything else must be an int in [0, q)."""
    if isinstance(x, FieldElement):
        return x
    if type(x) is not int or not 0 <= x < code.field.q:
        raise BadSymbol(f"symbol {x!r} is not an integer in [0, {code.field.q})")
    return code.field.element(x)


def _reference_encode(code, message):
    zero = code.field.zero
    msg = [_ref_element(code, x) for x in message]
    return [sum((m * code.G[i][j] for i, m in enumerate(msg)), zero) for j in range(code.n)]


def _reference_decode(code, received):
    """Decoding by FieldElement arithmetic with no memo: local repair of every
    single-erasure group, greedy pivots among the known columns, _solve, then
    a re-encode check of every originally present symbol."""
    if len(received) != code.n:
        raise LengthMismatch(f"received length {len(received)} != n={code.n}")
    erased = frozenset(j for j, s in enumerate(received) if s is None)
    if not is_correctable(code, ErasurePattern(erased)):
        raise NotCorrectable(f"erasure pattern {sorted(erased)} is not correctable")
    working = [None if s is None else _ref_element(code, s) for s in received]
    zero = code.field.zero
    for group in code.repair_groups:
        missing = [j for j in group if working[j] is None]
        if len(missing) == 1:
            others = [j for j in group if j != missing[0]]
            A = [[code.G[i][j] for j in others] for i in range(code.k)]
            coeffs = _solve(A, [code.G[i][missing[0]] for i in range(code.k)], zero)
            if coeffs is None:
                raise AssertionError("repair system unsolvable; code structure violated")
            working[missing[0]] = sum((c * working[j] for c, j in zip(coeffs, others)), zero)
    known = [j for j in range(code.n) if working[j] is not None]
    pivot_cols = []
    for j in known:
        if rank(code.columns(pivot_cols + [j])) > len(pivot_cols):
            pivot_cols.append(j)
        if len(pivot_cols) == code.k:
            break
    At = [[code.G[i][j] for i in range(code.k)] for j in pivot_cols]
    message = _solve(At, [working[j] for j in pivot_cols], zero)
    if message is None:
        raise AssertionError("pivot system unsolvable despite full rank")
    for j in range(code.n):
        if j not in erased:
            value = sum((m * code.G[i][j] for i, m in enumerate(message)), zero)
            if value != working[j]:
                raise Inconsistent(f"symbol at column {j} contradicts the decoded message")
    return message


def _outcome(decoder, code, received):
    """The decoded values, or the class of the typed error raised."""
    try:
        return [s.value for s in decoder(code, received)]
    except MrCodesError as exc:
        return type(exc)


def _assert_agrees(code, received):
    expected = _outcome(_reference_decode, code, received)
    assert _outcome(decode, code, received) == expected, received
    return expected


def _codeword(code, rng):
    return [s.value for s in _reference_encode(code, [rng.randrange(code.field.q)
                                                      for _ in range(code.k)])]


def _pattern(code, rng, cls):
    """A seeded erasure set of the given class."""
    groups = code.repair_groups
    if cls == "local":
        chosen = rng.sample(groups, rng.randint(1, len(groups)))
        return frozenset(rng.choice(g) for g in chosen)
    if cls == "global":
        while True:
            heavy = rng.choice(groups)
            erased = set(rng.sample(heavy, rng.randint(2, code.r + 1)))
            erased.update(rng.choice(g) for g in groups if g != heavy and rng.random() < 0.3)
            if is_correctable(code, erased):
                return frozenset(erased)
    if cls == "uncorrectable":
        if rng.random() < 0.5:
            survivors = set(rng.choice(groups))
        else:
            survivors = set(rng.sample(range(code.n), rng.randint(0, code.r)))
        return frozenset(range(code.n)) - survivors
    raise ValueError(cls)


def _received(codeword, erased):
    return [None if j in erased else s for j, s in enumerate(codeword)]


def _corrupt(code, received, rng):
    j = rng.choice([j for j, s in enumerate(received) if s is not None])
    received = list(received)
    received[j] = (received[j] + rng.randrange(1, code.field.q)) % code.field.q
    return received


class TestDecodeMatchesReference:
    """decode (int loops, last-pattern plan) against _reference_decode."""

    def test_encode_matches_reference(self, code8):
        rng = random.Random(3)
        for code in (code8, construct(2, 1601)[0]):
            for _ in range(20):
                msg = [rng.randrange(code.field.q) for _ in range(code.k)]
                assert encode(code, msg) == _reference_encode(code, msg)

    def test_all_patterns_r2_q101(self, code6):
        rng = random.Random(1)
        classes = set()
        for size in range(code6.n + 1):
            for erased in combinations(range(code6.n), size):
                received = _received(_codeword(code6, rng), set(erased))
                classes.add(_assert_agrees(code6, received) is NotCorrectable)
                if size < code6.n:
                    _assert_agrees(code6, _corrupt(code6, received, rng))
        assert classes == {True, False}

    @pytest.mark.parametrize("r,q", [(3, 653), (2, 1601)])
    def test_seeded_classes(self, r, q):
        code = construct(r, q)[0]
        rng = random.Random(q)
        seen = {}
        for cls in ("local", "global", "uncorrectable", "corrupted"):
            for _ in range(40):
                base = rng.choice(("local", "global")) if cls == "corrupted" else cls
                received = _received(_codeword(code, rng), _pattern(code, rng, base))
                if cls == "corrupted":
                    received = _corrupt(code, received, rng)
                got = _assert_agrees(code, received)
                seen.setdefault(cls, set()).add(got if isinstance(got, type) else list)
        assert seen["local"] == seen["global"] == {list}
        assert seen["uncorrectable"] == {NotCorrectable}
        assert Inconsistent in seen["corrupted"]

    def test_plan_hits_misses_and_replacements(self, monkeypatch):
        code = construct(2, 1601)[0]
        rng = random.Random(8)
        a, b = _pattern(code, rng, "local"), _pattern(code, rng, "global")
        u = _pattern(code, rng, "uncorrectable")
        runs = [a] * 5 + [b] * 3 + [a] * 4 + [u] * 3 + [a] * 2
        cases = []
        for i, erased in enumerate(runs):
            received = _received(_codeword(code, rng), erased)
            if i in (2, 6, 10):
                received = _corrupt(code, received, rng)
            cases.append((received, _outcome(_reference_decode, code, received)))
        builds = []
        original = mrcodes.mrcode._build_plan
        monkeypatch.setattr(mrcodes.mrcode, "_build_plan",
                            lambda c, e: builds.append(e) or original(c, e))
        for received, expected in cases:
            assert _outcome(decode, code, received) == expected
        assert len(builds) == 5  # a, b, a, u, a: one plan per change of pattern

    def test_codes_do_not_share_plans(self, code6):
        other = construct(2, 103)[0]
        rng = random.Random(4)
        for erased in ({0, 3}, {0, 3}, {1, 2}, {1, 2}):
            for code in (code6, other, code6):
                _assert_agrees(code, _received(_codeword(code, rng), erased))
        assert code6._plan is not other._plan

    def test_mutated_copy_does_not_reuse_plan(self, code6):
        # no group has exactly one erasure, so the reference never local-repairs
        # through the columns a mutation breaks
        rng = random.Random(6)
        codeword = _codeword(code6, rng)
        differing = 0
        for erased in ({0, 1}, {3, 5}):
            for i in range(code6.k):
                for j in range(code6.n):
                    original = _assert_agrees(code6, _received(codeword, erased))
                    mutated = _with_entry(code6, i, j, (code6.G[i][j].value + 1) % 101)
                    differing += original != _assert_agrees(mutated,
                                                            _received(codeword, erased))
                    _assert_agrees(mutated, _received(_codeword(mutated, rng), erased))
        assert differing > 0

    @pytest.mark.parametrize("bad", [101 + 27, -1, 2.5, True, make_field(103).element(7)])
    def test_bad_symbol_on_plan_hit(self, code6, bad):
        received = _received([s.value for s in encode(code6, [4, 5, 6])], {0, 3})
        assert [s.value for s in decode(code6, received)] == [4, 5, 6]
        received[1] = bad
        with pytest.raises(BadSymbol):
            decode(code6, received)

    def test_foreign_field_element_rejected(self, code6):
        foreign = make_field(103).element(7)
        with pytest.raises(BadSymbol):
            encode(code6, [foreign, 0, 0])
        received = [s.value for s in encode(code6, [1, 2, 3])]
        received[0], received[1] = None, foreign
        with pytest.raises(BadSymbol):
            local_repair(code6, received, 0)

    def test_local_repair_every_column(self):
        code = construct(2, 1601)[0]
        rng = random.Random(2)
        codeword = _codeword(code, rng)
        for j in range(code.n):
            assert local_repair(code, _received(codeword, {j}), j) == codeword[j]


def _reference_plan(code, erased):
    """A decode plan built the old way: is_correctable, k pivots chosen
    greedily with rank, and the inverse from k calls to _solve."""
    if not is_correctable(code, ErasurePattern(erased)):
        return _DecodePlan(erased, correctable=False)
    pivots = []
    for j in range(code.n):
        if j not in erased and rank(code.columns(pivots + [j])) > len(pivots):
            pivots.append(j)
            if len(pivots) == code.k:
                break
    At = [[code.G[i][j] for i in range(code.k)] for j in pivots]
    f = code.field
    inverse_cols = [[x.value for x in _solve(At, [f.one if i == c else f.zero
                                                  for i in range(code.k)], f.zero)]
                    for c in range(code.k)]
    return _DecodePlan(erased, correctable=True, pivots=tuple(pivots),
                       inverse=tuple(zip(*inverse_cols)))


def test_plan_matches_reference_and_closed_form_rule():
    # every erasure set of an n = 12 code: the one-reduction plan equals the
    # old construction, and the verdict is the closed-form rule (at least
    # r+1 survivors, and not exactly one repair group)
    code = construct(2, 401)[0]
    assert code.n == 12
    groups = {frozenset(g) for g in code.repair_groups}
    verdicts = set()
    for mask in range(1 << code.n):
        erased = frozenset(j for j in range(code.n) if mask >> j & 1)
        plan = _build_plan(code, erased)
        assert plan == _reference_plan(code, erased), sorted(erased)
        survivors = frozenset(range(code.n)) - erased
        assert plan.correctable == (len(survivors) >= code.k and survivors not in groups)
        verdicts.add(plan.correctable)
    assert verdicts == {True, False}


class TestTamperedRepairGroups:
    """Groups that are not the deficient column triples of G."""

    @pytest.fixture
    def tampered(self, code6):
        return type(code6)(field=code6.field, family=code6.family, r=2, n=6, k=3,
                           G=code6.G, repair_groups=((0, 1, 3), (2, 4, 5)))

    def test_local_repair_raises_property_violation(self, tampered):
        received = [s.value for s in encode(tampered, [1, 2, 3])]
        received[0] = None
        with pytest.raises(PropertyViolation):
            local_repair(tampered, received, 0)

    def test_decode_does_not_use_groups(self, tampered):
        received = [s.value for s in encode(tampered, [1, 2, 3])]
        received[0] = None
        assert [s.value for s in decode(tampered, received)] == [1, 2, 3]
