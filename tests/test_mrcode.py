import dataclasses
import math
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mrcodes.family
import mrcodes.mrcode
import mrcodes.progfree
from mrcodes.codespec import code_from_dict, code_to_dict, load_code, save_code
from mrcodes.errors import (BadParams, BadSet, BadSymbol, Inconsistent, LengthMismatch,
                            Mismatch, MrCodesError, MultipleErasuresInGroup, NotCorrectable,
                            NotInGroup, PropertyViolation, TooLarge)
from mrcodes.family import FamilyParams, ZeroSumFamily, build_family
from mrcodes.field import Field, FieldElement, make_field
from mrcodes.mrcode import (MrCode, _build_plan, _closed_form_rows, _identity_subsets,
                            build_code, decode, encode, is_correctable, local_repair, verify_mr)
from mrcodes.pipeline import choose_params, construct
from mrcodes.progfree import ProgressionFreeSet, verify_progression_free
import reference
from reference import (ReadTracker, closed_form_column, columns, family_residues, matrix, rank,
                       rank_scan)


@pytest.fixture(scope="module")
def code6():
    return construct(2, 101)[0]


@pytest.fixture(scope="module")
def code8():
    return construct(3, 653)[0]


BENCH_SPEC = Path(__file__).resolve().parents[1] / "bench" / "data" / "r2_q1601.json"


def _user_family(r, q, D):
    """The family on D with the default parameters."""
    return ZeroSumFamily(choose_params(r, q), ProgressionFreeSet(r, D, "user_supplied"))


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


_ZERO = [[0] * 3] * 3
_EYE = [[int(i == j) for j in range(3)] for i in range(3)]


class TestRank:
    def test_zero_matrix(self):
        assert rank(_ZERO, 101) == 0

    def test_identity(self):
        assert rank(_EYE, 101) == 3

    def test_repair_group_deficient(self, code6):
        m = columns(matrix(code6), (0, 1, 2))
        assert rank(m, 101) == 2
        # cross-check via determinant over GF(101)
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % 101
        assert det == 0

    @pytest.mark.parametrize("rows", [[[1], [1, 1]], [[1, 1], [1]]],
                             ids=["short-first-row", "short-last-row"])
    def test_not_a_matrix_of_field_elements(self, rows):
        with pytest.raises(Mismatch):
            rank(rows, 101)

    def test_matches_the_library_reduction(self, code6):
        # kept while the decoder's reduction exists: it finds as many pivots
        # as the int rank on the inputs above
        from mrcodes.mrcode import _row_reduce
        for m in (_ZERO, _EYE, columns(matrix(code6), (0, 1, 2))):
            rows = [list(map(code6.field.element, row)) for row in m]
            assert len(_row_reduce(rows, 3)) == rank(m, 101)


class TestVerify:
    def test_exhaustive_r2(self, code6):
        report = verify_mr(code6, mode="exhaustive")
        assert report.ok and report.mode == "exhaustive"
        assert report.mds_subsets_checked == 20
        assert sorted(report.deficient_subsets) == [(0, 1, 2), (3, 4, 5)]
        assert report.local_distance_ok

    def test_exhaustive_r3(self, code8):
        report = verify_mr(code8, mode="exhaustive")
        assert report.ok
        assert report.mds_subsets_checked == 70
        assert sorted(report.deficient_subsets) == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_vandermonde_subrank(self, code6):
        for subset in combinations(range(6), 3):
            assert rank(columns(matrix(code6)[:2], subset), 101) == 2

    def test_zero_sum_iff_deficient(self, code6, code8):
        for code in (code6, code8):
            N, G = code.field.N, matrix(code)
            for subset in combinations(range(code.n), code.k):
                expo = sum(code.family.elements[j] for j in subset) % N
                assert (expo == 0) == (rank(columns(G, subset), code.field.q) == code.r)


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
            is_correctable(code6, [0, 0])
        with pytest.raises(ValueError):
            is_correctable(code6, [6])


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

    @pytest.mark.parametrize("corrupted,erased,named", [
        (4, (), 4), (5, (), 5), (0, (), 2), (0, (2,), 4), (3, (2, 4), 5)])
    def test_inconsistent_names_first_contradicting_column(self, code6, corrupted, erased,
                                                           named):
        # the pivots are columns 0, 1 and 3: a corrupted pivot shows up at
        # the first present column after them that it changes
        received = [s.value for s in encode(code6, [5, 6, 7])]
        received[corrupted] = (received[corrupted] + 1) % 101
        for j in erased:
            received[j] = None
        with pytest.raises(Inconsistent, match=f"^symbol at column {named} "):
            decode(code6, received)

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
            value = (code6.G[i][j].value + 1) % code6.field.q
            assert _caught(code6, i, j, value), f"mutation at ({i},{j}) undetected"


class TestClosedFormVerify:
    """verify_mr's determinant shortcut against the brute-force rank scan."""

    @pytest.mark.parametrize("r,q", [(2, 101), (3, 653), (2, 1601), (4, 1283), (2, 257)])
    @pytest.mark.parametrize("mode", ["exhaustive"])
    def test_matches_rank_scan(self, r, q, mode):
        code = construct(r, q)[0]
        report = verify_mr(code, mode=mode)
        assert report == rank_scan(matrix(code), code.repair_groups, q)
        assert report.ok and report.mode == mode

    @pytest.mark.parametrize("q", [101, 1601, 4294967291])
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_column_matches_pow_form(self, r, q):
        # the running product against one pow per entry
        rng = random.Random(q * 10 + r)
        xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(200)]
        for x, col in zip(xs, zip(*_closed_form_rows(xs, r, q))):
            assert list(col) == closed_form_column(x, r, q), x

    def test_mutations_are_caught_and_not_mr(self, code6):
        # every single-entry mutation is caught, and the rank scan over the
        # raw matrix finds none of them MR: refusing them refuses no MR code
        q, G6 = code6.field.q, matrix(code6)
        for i in range(code6.k):
            for j in range(code6.n):
                for value in range(q):
                    if value == G6[i][j]:
                        continue
                    assert _caught(code6, i, j, value), (i, j, value)
                    G = [list(row) for row in G6]
                    G[i][j] = value
                    assert not rank_scan(G, code6.repair_groups, q).ok, (i, j, value)

    def test_product_one_subset_reported(self, code6):
        # D = (1, 2, 3) is not progression free (1 + 3 = 2 * 2), and its
        # residues' 7 + 90 + 3 and 1 + 90 + 9 sum to 0 mod 100 across
        # transversals: the kernel finds what the rank scan finds on the
        # closed-form columns of those residues, and no family holds that D
        # (at d = 2 it is past d; raising delta to d = 3 keeps l = 6, and so
        # the residues, and the set oracle refuses it)
        field, D = code6.field, (1, 2, 3)
        params = code6.family.params
        elements, _ = family_residues(params, D)
        G = [list(row) for row in zip(*(closed_form_column(pow(field.gamma, a, field.q), 2,
                                                          field.q) for a in elements))]
        report = rank_scan(G, ((0, 1, 2), (3, 4, 5), (6, 7, 8)), field.q)
        assert list(_identity_subsets(elements, 2, field.N)) == report.deficient_subsets
        assert not report.ok
        assert report.violations == [((0, 5, 7), 2, 3), ((1, 5, 6), 2, 3)]
        with pytest.raises(BadParams, match=r"^D=\(1, 2, 3\) is not a nonempty subset "):
            _user_family(2, 101, D)
        wider = FamilyParams(N=100, r=2, lam=params.lam, delta=Fraction(31, 1000))
        assert (wider.l, wider.d) == (6, 3)
        with pytest.raises(BadSet, match=r"^D=\(1, 2, 3\) fails the defining equation "):
            ZeroSumFamily(wider, ProgressionFreeSet(2, D, "user_supplied"))

    def test_a_deficient_subset_off_the_groups_is_a_violation(self, code6, off_group_subset):
        # the kernel's extra subset is deficient and no group: rank r where
        # the rule wants k
        report = verify_mr(code6, mode="exhaustive")
        assert report.deficient_subsets == [(0, 1, 2), off_group_subset, (3, 4, 5)]
        assert report.violations == [(off_group_subset, 2, 3)]
        assert not report.ok

    def test_guard_picks_the_mode(self, code6, monkeypatch):
        # the lookup kernel's cost is C(6, 2) + C(6, 1) = 21 and the rank
        # scan's C(6, 3) = 20 subsets: auto certifies, with the rank scan's
        # report, on both sides of the kernel's guard, and exhaustive passes
        # on the kernel's own refusal past it
        G6 = matrix(code6)
        expected = rank_scan(G6, code6.repair_groups, 101)
        report = verify_mr(code6)
        assert report.mode == "certificate"
        assert dataclasses.replace(report, mode="exhaustive") == expected
        monkeypatch.setattr(mrcodes.mrcode, "_KERNEL_GUARD", 20)
        monkeypatch.setattr(reference, "EXHAUSTIVE_SUBSET_GUARD", 19)
        assert verify_mr(code6) == report
        message = "^the lookup kernel's cost for n=6, r=2 = 21 exceeds its guard 20$"
        with pytest.raises(TooLarge, match=message):
            list(_identity_subsets(code6.family.elements, 2, code6.field.N))
        with pytest.raises(TooLarge, match=message):
            verify_mr(code6, mode="exhaustive")
        with pytest.raises(TooLarge):
            rank_scan(G6, code6.repair_groups, 101)
        # the certificate runs no set oracle, so past the oracle's own guard
        # it still certifies
        monkeypatch.setattr(mrcodes.progfree, "_VERIFY_GUARD", 2)
        with pytest.raises(TooLarge, match=r"^C\(\|D\|\+r-1, r\) = 3 multisets "):
            verify_progression_free(code6.family.D.elements, 2)
        assert verify_mr(code6) == report
        monkeypatch.setattr(mrcodes.mrcode, "_KERNEL_GUARD", 21)
        assert verify_mr(code6) == report
        assert verify_mr(code6, mode="exhaustive") == expected

    def test_unknown_mode(self, code6):
        with pytest.raises(BadParams):
            verify_mr(code6, mode="exhaustve")


def _user_code(code, D):
    """code with its family rebuilt on D."""
    return dataclasses.replace(code, family=ZeroSumFamily(
        code.family.params, ProgressionFreeSet(code.r, D, "user_supplied")))


def _suite_codes():
    code6 = construct(2, 101)[0]
    code12 = construct(2, 401)[0]
    yield "r2_q101", code6
    yield "r3_q653", construct(3, 653)[0]
    yield "r2_q401", code12
    yield "r4_q1283", construct(4, 1283)[0]
    yield "bench-spec", load_code(BENCH_SPEC)
    # a family of (2, 401), d = 8, on a D construct does not pick
    yield "family-valid", _user_code(code12, (1, 2, 4, 8))


def _check_certificate(code):
    """The certificate against the kernel's report: equal but for the mode."""
    report = verify_mr(code)
    assert report.mode == "certificate"
    assert report == dataclasses.replace(verify_mr(code, mode="exhaustive"), mode="certificate")
    return report


def test_certificate_matches_the_kernel():
    # one report per code, and every code passes
    reports = {name: _check_certificate(code) for name, code in _suite_codes()}
    assert [name for name, report in reports.items() if not report.ok] == []


# The families no code can hold, with the error class and message prefix
# their refusal raises.  At (2, 101) d = 2; at (2, 401) d = 8, and the set
# oracle's witness (1, 3, 2) of (1, 2, 3, 4) picks the residues at columns
# 0, 7 and 5, which sum to 0 mod N: the kernel finds them on the raw residues.
_UNPROVED = [
    ("not-progression-free", 101, (1, 2, 3), BadParams,
     "D=(1, 2, 3) is not a nonempty subset of [1, d=2]"),
    ("family-ap", 401, (1, 2, 3, 4), BadSet,
     "D=(1, 2, 3, 4) fails the defining equation for r=2"),
    ("family-unsorted", 401, (2, 1, 4, 5), BadParams,
     "D=(2, 1, 4, 5) is not strictly increasing"),
    ("family-past-d", 401, (1, 2, 4, 9), BadParams,
     "D=(1, 2, 4, 9) is not a nonempty subset of [1, d=8]"),
]


@pytest.mark.parametrize("q,D,error,prefix", [case[1:] for case in _UNPROVED],
                         ids=[case[0] for case in _UNPROVED])
def test_unproved_families_are_refused(q, D, error, prefix):
    # the certificate reads no D: a D the lemma does not cover never
    # reaches a code, by build_family or by ZeroSumFamily
    code = construct(2, q)[0]
    params, pfs = code.family.params, ProgressionFreeSet(2, D, "user_supplied")
    for make in (lambda: build_family(params, pfs),
                 lambda: dataclasses.replace(code, family=ZeroSumFamily(params, pfs))):
        with pytest.raises(error, match="^" + re.escape(prefix)):
            make()
    if error is BadSet:
        elements, _ = family_residues(params, D)
        zero_sums = list(_identity_subsets(elements, 2, params.N))
        assert (0, 5, 7) in zero_sums
        assert verify_progression_free(D, 2) == (1, 3, 2)


@pytest.mark.parametrize("D,error", [((1, 2, 4, 9), BadParams), ((2, 1, 4, 5), BadParams),
                                     ((1, 2, 3, 4), BadSet)],
                         ids=["past-d", "unsorted", "ap"])
def test_replace_cannot_unseal_a_family(D, error):
    # dataclasses.replace reruns ZeroSumFamily's checks, so neither a family
    # nor a code over one can take a D that build_family refuses
    code = construct(2, 401)[0]
    pfs = ProgressionFreeSet(2, D, "user_supplied")
    with pytest.raises(error) as refused:
        build_family(code.family.params, pfs)
    for make in (lambda: dataclasses.replace(code.family, D=pfs),
                 lambda: dataclasses.replace(code, family=dataclasses.replace(code.family,
                                                                              D=pfs))):
        with pytest.raises(error, match="^" + re.escape(str(refused.value)) + "$"):
            make()


_AP = ProgressionFreeSet(2, (1, 2, 3), "user_supplied")
_F101 = build_family(choose_params(2, 101), ProgressionFreeSet(2, (1, 2), "user_supplied"))


@pytest.mark.parametrize("make,expected", [
    (lambda: Field(100), "Field(q=100)"),
    (lambda: ZeroSumFamily(choose_params(2, 1601), _AP),
     f"ZeroSumFamily(params={choose_params(2, 1601)!r}, D={_AP!r})"),
    (lambda: MrCode(make_field(103), _F101), f"MrCode(field=Field(q=103), family={_F101!r})"),
], ids=["field-not-prime", "family-unproved", "code-other-N"])
def test_a_refused_object_keeps_its_repr(make, expected):
    # a refusal leaves the object half made, without its derived fields; a
    # traceback or debugger showing it still prints its init fields
    with pytest.raises(MrCodesError) as refused:
        make()
    assert repr(refused.traceback[-1].frame.f_locals["self"]) == expected


_PRIMES = (101, 401, 653, 1283, 1601, 5003, 20011)


@st.composite
def _top_of_range_codes(draw):
    """A code with l within 2r of its largest value, d within 1 of l // r
    (r*d = l when r divides l), lambda and delta strictly inside the
    integers' windows, and up to 5 distinct elements of [1, d] in any
    order: valid, failing the set oracle, or out of order."""
    r = draw(st.integers(2, 4))
    q = draw(st.sampled_from([p for p in _PRIMES if p - 1 > r**4]))  # so l can reach r
    N = q - 1
    top = -(-N // r**3) - 1  # the largest l with r^3*l < N
    l = draw(st.integers(max(r, top - 2 * r), top))
    d = draw(st.integers(max(1, l // r - 1), l // r))
    lam = (Fraction(l, N) + min(Fraction(l + 1, N), Fraction(1, r**3))) / 2
    delta = (Fraction(d, N) + min(Fraction(d + 1, N), lam / r)) / 2
    params = FamilyParams(N=N, r=r, lam=lam, delta=delta)
    assert (params.l, params.d) == (l, d)
    D = draw(st.lists(st.integers(1, d), min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        D.sort()
    return q, params, ProgressionFreeSet(r, tuple(D), "user_supplied")


@settings(deadline=None, max_examples=200, derandomize=True)
@given(case=_top_of_range_codes())
def test_certificate_matches_the_kernel_at_the_top_of_the_ranges(case):
    # a drawn D out of order or failing the set oracle is refused with
    # build_family's error; any other is certified as the kernel reports
    q, params, D = case
    if list(D.elements) != sorted(D.elements):
        error, rest = BadParams, "is not strictly increasing$"
    elif verify_progression_free(D.elements, params.r) is not None:
        error, rest = BadSet, f"fails the defining equation for r={params.r}$"
    else:
        _check_certificate(build_code(make_field(q), ZeroSumFamily(params, D)))
        return
    for make in (ZeroSumFamily, build_family):
        with pytest.raises(error, match=f"^D={re.escape(str(D.elements))} {rest}"):
            make(params, D)


def _caught(code, i, j, value) -> bool:
    """Whether the code's spec with entry (i, j) of G set to value is
    refused, naming G, where a G enters from outside: code_from_dict."""
    doc = code_to_dict(code)
    doc["G"][i][j] = value
    try:
        code_from_dict(doc)
    except PropertyViolation as exc:
        return str(exc).startswith("spec keys ['G'] ")
    return False


@pytest.mark.parametrize("defect", ["missing-row", "ragged-row", "extra-column", "gf103-entry",
                                    "int-entry", "family-N", "zero-x", "repeated-x",
                                    "middle-row", "last-row-sign"])
def test_code_checks_its_shape_once_when_made(code6, defect):
    # r, n, k and G come from the field and family, so a field or family
    # that disagrees with them is refused when the code is made.  A G
    # enters only through a spec, and code_from_dict refuses, naming G, one
    # that is not the closed form over the family's x
    if defect == "family-N":
        with pytest.raises(Mismatch, match="^family N=100 != field N=102$"):
            MrCode(make_field(103), code6.family)
        return
    if defect == "repeated-x":
        # D = (1, 7) would give exponent 7 twice (a_{1,1} = l + 1 = a_{0,7}),
        # so x twice; 7 is past d = 2, and the family refuses it
        elements, _ = family_residues(code6.family.params, (1, 7))
        assert elements.count(7) == 2
        with pytest.raises(BadParams, match=r"^D=\(1, 7\) is not a nonempty subset of "
                                            r"\[1, d=2\]$"):
            build_code(code6.field, _user_family(2, 101, (1, 7)))
        return
    doc = code_to_dict(code6)
    G = doc["G"]
    if defect == "zero-x":
        for i, v in enumerate(closed_form_column(0, code6.r, 101)):
            G[i][1] = v
    elif defect == "middle-row":
        G[1][0] = (G[1][0] + 1) % 101
    elif defect == "last-row-sign":
        G[2][0] = (G[2][0] + 2) % 101  # x^3 + 1 where the form has x^3 - 1
    elif defect == "missing-row":
        del G[-1]
    elif defect == "ragged-row":
        del G[1][-1]
    elif defect == "extra-column":
        doc["G"] = [row + row[:1] for row in G]
    elif defect == "gf103-entry":
        G[0][0] = 102  # a residue of GF(103), not of GF(101)
    elif defect == "int-entry":
        G[2][5] = str(G[2][5])  # an entry of the wrong type
    with pytest.raises(PropertyViolation, match=r"^spec keys \['G'\] "):
        code_from_dict(doc)


@pytest.mark.parametrize("r,q,D", [(2, 101, None), (3, 653, None), (2, 1601, None),
                                   (4, 1283, None), (2, 1601, (1, 2, 4, 5))],
                         ids=["r2-q101", "r3-q653", "r2-q1601", "r4-q1283", "r2-q1601-D1245"])
def test_code_is_built_on_its_own_family(r, q, D):
    # G's x are gamma to the family's exponents, however the family was
    # built, and a code made through build_family is the code its spec
    # rebuilds
    if D is None:
        code = construct(r, q)[0]
    else:
        code = build_code(make_field(q), _user_family(r, q, D))
    field = code.field
    assert code._rows[0] == tuple(pow(field.gamma, a, q) for a in code.family.elements)
    assert code.G == tuple(tuple(map(field.element, row))
                           for row in _closed_form_rows(code._rows[0], r, q))
    if D is None:
        assert code_from_dict(code_to_dict(code)) == code


@pytest.mark.parametrize("name", ["G", "_rows", "repair_groups", "_groups", "_packed"])
def test_code_derived_values_cannot_be_replaced(code6, name):
    # _rows and the repair groups are fields the code derives (init=False);
    # G, the group map and the packed rows are no fields at all but
    # properties built on first use
    error, match = ((ValueError, "init=False") if name in ("_rows", "repair_groups")
                    else (TypeError, f"'{name}'"))
    with pytest.raises(error, match=match):
        dataclasses.replace(code6, **{name: getattr(code6, name)})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(code6, name, getattr(code6, name))


def test_codec_state_is_built_on_first_use(tmp_path):
    # construct, verify_mr and the spec writer and reader build none of G,
    # the packed rows or the column map; encode packs, local_repair maps
    # and, reading only the x, never builds G
    lazy = {"G", "_packed", "_groups"}
    code, _ = construct(3, 5003)
    for mode in ("auto", "exhaustive"):
        verify_mr(code, mode=mode)
    path = tmp_path / "spec.json"
    save_code(code, path)
    loaded = load_code(path)
    assert code_from_dict(code_to_dict(code)) == loaded == code
    for c in (code, loaded):
        assert lazy.isdisjoint(vars(c))
    codeword = encode(loaded, list(range(loaded.k)))
    assert lazy & set(vars(loaded)) == {"_packed"}
    assert local_repair(loaded, [None] + codeword[1:], 0) == codeword[0]
    assert lazy & set(vars(loaded)) == {"_packed", "_groups"}


def _count_elements(monkeypatch) -> list:
    """Count FieldElement constructions from here on, through the
    __post_init__ hook that bench/tracer.py counts through too."""
    built = []
    post_init = FieldElement.__post_init__
    monkeypatch.setattr(FieldElement, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    return built


@pytest.mark.parametrize("make", [lambda: construct(2, 1601)[0],
                                  lambda: construct(3, 5003)[0],
                                  lambda: load_code(BENCH_SPEC)],
                         ids=["construct-2-1601", "construct-3-5003", "load-r2-q1601"])
def test_g_is_built_on_first_read(monkeypatch, make):
    # G holds k*n FieldElements: 90, 128 and 90 here, none built until read
    built = _count_elements(monkeypatch)
    code = make()
    code_to_dict(code)
    assert len(built) == 0
    G = code.G
    assert len(built) == code.k * code.n
    field = code.field
    assert G == tuple(tuple(map(field.element, row))
                      for row in _closed_form_rows(code._rows[0], code.r, field.q))
    assert code.G is G


def test_code_past_the_length_bound_is_too_large(code6, monkeypatch):
    # the bound is checked where the family is made, so a family that did
    # not come through construct cannot pass it either
    monkeypatch.setattr(mrcodes.family, "_MAX_N", 5)
    with pytest.raises(TooLarge, match="^n=6 exceeds the desk-scale bound 5$"):
        MrCode(code6.field, _user_family(2, 101, (1, 2)))


def test_bad_arguments_are_typed_errors(code6):
    with pytest.raises(BadParams):
        is_correctable(code6, [7])
    for erased, message in ((frozenset({99}), "out of range"), (frozenset({1.5}), "must be ints"),
                            (5, "not a collection")):
        with pytest.raises(BadParams, match=message):
            is_correctable(code6, erased)
    with pytest.raises(LengthMismatch):
        local_repair(code6, [1, 2], 0)


@pytest.mark.parametrize("bad", [101 + 27, -1, 2.5, True, FieldElement(2.5, make_field(101)),
                                 FieldElement(True, make_field(101))])
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


def _outcome(decoder, code, received):
    """The decoded values, or the class of the typed error raised."""
    try:
        return decoder(code, received)
    except MrCodesError as exc:
        return type(exc)


def _decoded(code, received):
    return [s.value for s in decode(code, received)]


def _assert_agrees(code, received):
    expected = _outcome(reference.decode, code, received)
    assert _outcome(_decoded, code, received) == expected, received
    return expected


def _codeword(code, rng):
    return reference.encode(code, [rng.randrange(code.field.q) for _ in range(code.k)])


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
    """decode (int loops, last-pattern plan) against reference.decode."""

    def test_encode_matches_reference(self, code8):
        rng = random.Random(3)
        for code in (code8, construct(2, 1601)[0]):
            for _ in range(20):
                msg = [rng.randrange(code.field.q) for _ in range(code.k)]
                assert encode(code, msg) == reference.encode(code, msg)

    def test_two_word_slots(self):
        # at q = 4294967291 a packed column slot of G needs two 64-bit words
        code = construct(3, 4294967291, target_n=8)[0]
        q, rng = code.field.q, random.Random(5)
        for msg in [[q - 1] * code.k] + [[rng.randrange(q) for _ in range(code.k)]
                                         for _ in range(20)]:
            assert encode(code, msg) == reference.encode(code, msg)
        outcomes = []
        for cls in ("local", "global", "uncorrectable", "corrupted") * 4:
            received = _received(_codeword(code, rng),
                                 _pattern(code, rng, "global" if cls == "corrupted" else cls))
            if cls == "corrupted":
                received = _corrupt(code, received, rng)
            outcomes.append(_assert_agrees(code, received))
        assert {Inconsistent, NotCorrectable} <= {o for o in outcomes if isinstance(o, type)}
        assert any(isinstance(o, list) for o in outcomes)

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
            cases.append((received, _outcome(reference.decode, code, received)))
        builds = []
        original = mrcodes.mrcode._build_plan
        monkeypatch.setattr(mrcodes.mrcode, "_build_plan",
                            lambda c, e: builds.append(e) or original(c, e))
        for received, expected in cases:
            assert _outcome(_decoded, code, received) == expected
        assert len(builds) == 5  # a, b, a, u, a: one plan per change of pattern

    def test_codes_do_not_share_plans(self, code6):
        other = construct(2, 103)[0]
        rng = random.Random(4)
        for erased in ({0, 3}, {0, 3}, {1, 2}, {1, 2}):
            for code in (code6, other, code6):
                _assert_agrees(code, _received(_codeword(code, rng), erased))
        assert code6._plan is not other._plan

    def test_mutated_copy_does_not_reuse_plan(self, code6):
        # each copy is the code over another family of the same n: the plan
        # code6 keeps for an erasure set must not answer for it
        rng = random.Random(6)
        codeword = _codeword(code6, rng)
        # l = 10 or 11 where code6 has 6, and d = 4 where it has 2
        copies = [dataclasses.replace(code6, family=ZeroSumFamily(
            FamilyParams(N=100, r=2, lam=lam, delta=Fraction(1, 24)),
            ProgressionFreeSet(2, D, "user_supplied")))
                  for lam, D in ((Fraction(1, 10), (1, 3)), (Fraction(1, 10), (2, 3)),
                                 (Fraction(1, 9), (1, 4)))]
        differing = 0
        for erased in ({0, 1}, {3, 5}):
            for mutated in copies:
                original = _assert_agrees(code6, _received(codeword, erased))
                differing += original != _assert_agrees(mutated, _received(codeword, erased))
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


def _altered_last_row(code):
    """code with G's last row changed at column 0 before G or the repair map
    is built: group (0, 1, 2) then has full rank, so none of its columns is
    spanned by its peers."""
    last = code._rows[-1]
    rows = code._rows[:-1] + (((last[0] + 1) % code.field.q,) + last[1:],)
    object.__setattr__(code, "_rows", rows)
    return code


@pytest.mark.parametrize("make, unsolvable", [
    (lambda: construct(2, 101)[0], 0),
    (lambda: load_code(BENCH_SPEC), 0),
    (lambda: construct(3, 653)[0], 0),
    (lambda: construct(4, 1283)[0], 0),
    (lambda: _altered_last_row(construct(2, 101)[0]), 3),
], ids=["2-101", "bench-2-1601", "3-653", "4-1283", "altered-last-row"])
def test_repair_map_matches_the_reduction(make, unsolvable):
    # each column's interpolated coefficients are the reduction's, None
    # where the reduction finds no solution; local_repair returns the
    # reduction's symbol or raises its PropertyViolation
    code = make()
    codeword = _codeword(code, random.Random(5))
    found = 0
    for i, group in enumerate(code.repair_groups):
        for e in group:
            peers = tuple(j for j in group if j != e)
            try:
                expected = reference.repair_coefficients(code, e, peers)
            except PropertyViolation as exc:
                found += 1
                assert code._groups[e] == (i, peers, None)
                with pytest.raises(PropertyViolation, match=f"^{re.escape(str(exc))}$"):
                    local_repair(code, _received(codeword, {e}), e)
                continue
            assert code._groups[e] == (i, peers, expected)
            value = sum(c * codeword[j] for c, j in zip(expected, peers)) % code.field.q
            assert value == codeword[e]
            assert local_repair(code, _received(codeword, {e}), e) == value
    assert found == unsolvable


def test_plan_matches_reference_and_closed_form_rule():
    # every erasure set of three small codes: the one-reduction plan equals
    # the old construction, the verdict is the closed-form rule (at least
    # r+1 survivors, and not exactly one repair group), and the pivots are
    # ROADMAP direction 2's rule: the first r present columns, then the
    # first later one whose x is not the inverse of their x's product
    for r, q, n in ((2, 401, 12), (3, 653, 8), (4, 1283, 10)):
        code = construct(r, q)[0]
        assert code.n == n
        xs = [x.value for x in code.G[0]]
        groups = {frozenset(g) for g in code.repair_groups}
        verdicts = set()
        for mask in range(1 << n):
            erased = frozenset(j for j in range(n) if mask >> j & 1)
            plan = _build_plan(code, erased)
            assert plan == (erased, *reference.plan(code, erased)), (r, sorted(erased))
            survivors = frozenset(range(n)) - erased
            assert plan.correctable == (len(survivors) >= code.k and survivors not in groups)
            verdicts.add(plan.correctable)
            present = sorted(survivors)
            product_inverse = pow(math.prod(xs[j] for j in present[:r]), -1, q)
            last = next((j for j in present[r:] if xs[j] != product_inverse), None)
            pivots = () if last is None else (*present[:r], last)
            assert plan.pivots == pivots, (r, sorted(erased))
        assert verdicts == {True, False}


class TestTamperedRepairGroups:
    """A group whose columns are no longer deficient: G's last row is changed
    at column 0, so group (0, 1, 2) has full rank."""

    @pytest.fixture
    def tampered(self):
        return _altered_last_row(construct(2, 101)[0])

    def test_local_repair_raises_property_violation(self, tampered):
        with pytest.raises(PropertyViolation, match="^repair system for column 0 unsolvable; "):
            local_repair(tampered, [None, 7, 9, 1, 2, 3], 0)

    def test_local_repair_reads_only_its_group(self, tampered):
        # column 2's peers 0 and 1 do not span it: local_repair reads those
        # two and nothing else, then refuses
        tracker = ReadTracker([5, 7, None, 1, 2, 3])
        with pytest.raises(PropertyViolation, match="^repair system for column 2 unsolvable; "):
            local_repair(tampered, tracker, 2)
        assert tracker.reads == [0, 1]
