import random
from itertools import combinations

import pytest

from mrcodes.errors import (BadSymbol, Inconsistent, LengthMismatch, Mismatch,
                            MultipleErasuresInGroup, NotCorrectable, NotInGroup)
from mrcodes.mrcode import (ErasurePattern, _closed_form_values, _rank_scan, build_code,
                            decode, encode, is_correctable, local_repair, rank, verify_mr)
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
