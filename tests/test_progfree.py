import math
import random
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

import mrcodes.progfree
from mrcodes.errors import BadParams, ParamsTooSmall, RangeTooLarge, TooLarge
from mrcodes.pipeline import choose_params
from mrcodes.progfree import (AlonMeta, ProgressionFreeSet, _first_of_size, alon_construct,
                              exhaustive_best, verify_progression_free)
from reference import brute_force_check, digit_set, first_witness


@st.composite
def _planted_solution(draw):
    """(r, a set) holding x, x + r*g and their mean x + (r-k)*g over k
    copies of x and r - k of x + r*g: for r >= 3 a term repeats."""
    r = draw(st.integers(2, 6))
    x, g, k = draw(st.integers(1, 20)), draw(st.integers(1, 5)), draw(st.integers(1, r - 1))
    return r, draw(st.sets(st.integers(1, 60), max_size=5)) | {x, x + r * g, x + (r - k) * g}


class TestVerify:
    def test_pass_example(self):
        assert verify_progression_free({1, 2, 4, 5}, 2) is None

    def test_fail_example(self):
        witness = verify_progression_free({1, 2, 3}, 2)
        assert witness == (1, 3, 2)  # 1 + 3 = 2*2
        assert sum(witness[:2]) == 2 * witness[2]

    def test_singleton(self):
        assert verify_progression_free({5}, 4) is None

    def test_guard(self):
        # the guard counts the C(|D|+r-1, r) multisets the check walks:
        # 216 071 394 here, over 10^8, and C(17, 14) = 680 for the
        # exhaustive set at r = 14, though 4^14 is over 10^8
        with pytest.raises(TooLarge, match="216071394 multisets"):
            verify_progression_free(range(1, 120), 5)
        assert exhaustive_best(24, 14).elements == (1, 2, 16, 17)
        assert verify_progression_free((1, 2, 16, 17), 14) is None

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_r_below_2(self, r):
        with pytest.raises(BadParams, match="^need r >= 2$"):
            verify_progression_free([1, 2, 4], r)

    def test_agrees_with_ordered_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            r = rng.choice([2, 3])
            cand = sorted(rng.sample(range(1, 30), rng.randint(1, 6)))
            assert (verify_progression_free(cand, r) is None) == brute_force_check(cand, r)

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(case=st.one_of(
        st.tuples(st.integers(2, 6), st.sets(st.integers(1, 40), min_size=1, max_size=8)),
        _planted_solution()))
    @example(case=(3, {1, 2, 4}))  # only 1 + 1 + 4 = 3*2
    @example(case=(4, {1, 2, 4}))  # only 1 + 1 + 2 + 4 = 4*2
    @example(case=(6, {1, 2, 4}))  # each solution repeats a term: r > |D|
    def test_first_witness_matches_the_all_terms_loop(self, case):
        # "not all equal" read off a sorted multiset's ends gives the same
        # first witness as comparing every term with d_r
        r, elems = case
        assert verify_progression_free(elems, r) == first_witness(elems, r)


class TestAlon:
    def test_m16_r2(self):
        d = alon_construct(16, 2)
        assert d.elements == (1, 4)
        assert d.method == "alon"
        assert d.alon_meta.h == 4 and d.alon_meta.t == 1 and d.alon_meta.B == 1

    def test_m16_r2_size_bound(self):
        d = alon_construct(16, 2)
        bound = 16 * math.exp(-5 * math.sqrt(math.log(16) * math.log(2)))
        assert bound == pytest.approx(0.015625, rel=1e-9)
        assert len(d) >= bound

    def test_tiny_m_falls_back(self):
        # h = 2 <= r: the digit range is {0}; the fallback to the exhaustive
        # set is progfree._choose_set's, not the constructor's
        with pytest.raises(ParamsTooSmall):
            alon_construct(2, 2)

    @pytest.mark.parametrize("m", [16, 256, 4096])
    @pytest.mark.parametrize("r", [2, 3])
    def test_size_bound_and_oracle(self, m, r):
        d = alon_construct(m, r)
        assert verify_progression_free(d.elements, r) is None
        assert len(d) >= m * math.exp(-5 * math.sqrt(math.log(m) * math.log(r)))

    @pytest.mark.parametrize("m", [16, 256, 4096])
    @pytest.mark.parametrize("r", [2, 3])
    def test_digit_soundness(self, m, r):
        d = alon_construct(m, r)
        h, t, B = d.alon_meta.h, d.alon_meta.t, d.alon_meta.B
        for x in d.elements:
            digits = []
            v = x
            for _ in range(t + 1):
                digits.append(v % h)
                v //= h
            assert v == 0
            assert all(dig < h / r for dig in digits)
            assert sum(dig * dig for dig in digits) == B


class TestExhaustive:
    def test_m8_r2(self):
        d = exhaustive_best(8, 2)
        assert d.elements == (1, 2, 4, 5)

    def test_m3_r3(self):
        d = exhaustive_best(3, 3)
        assert d.elements == (1, 2)  # {1,2,3} invalid: 1+2+3 = 3*2
        assert verify_progression_free((1, 2, 3), 3) is not None

    def test_m1(self):
        assert exhaustive_best(1, 2).elements == (1,)

    def test_range_guard(self):
        with pytest.raises(RangeTooLarge):
            exhaustive_best(25, 2)

    @pytest.mark.parametrize("m,r", [(6, 2), (10, 2), (7, 3), (10, 3)])
    def test_is_maximum_and_valid(self, m, r):
        from itertools import combinations
        d = exhaustive_best(m, r)
        assert brute_force_check(d.elements, r)
        # no set of size |d|+1 is valid
        for cand in combinations(range(1, m + 1), len(d) + 1):
            assert not brute_force_check(cand, r)


def test_subset_closure():
    rng = random.Random(3)
    base = exhaustive_best(12, 2)
    for _ in range(20):
        k = rng.randint(1, len(base))
        sub = rng.sample(base.elements, k)
        assert verify_progression_free(sub, 2) is None


def reference_exhaustive_best(m, r):
    """Unpruned exhaustive search, the oracle for the pruned one: include-
    first DFS re-running the whole-set check at every node."""
    best = []

    def extend(start, cur):
        nonlocal best
        if len(cur) + (m - start + 1) <= len(best):
            return
        if start > m:
            if len(cur) > len(best):
                best = cur.copy()
            return
        cur.append(start)
        if verify_progression_free(cur, r) is None:
            extend(start + 1, cur)
        cur.pop()
        extend(start + 1, cur)

    extend(1, [])
    return tuple(best)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_exhaustive_matches_reference_search(r):
    # r >= 3 uses the forbidden-value mask only as a bound beside the exact test
    for m in range(1, 25):
        assert exhaustive_best(m, r).elements == reference_exhaustive_best(m, r), m


def test_r2_sizes_are_3ap_free_maxima():
    # OEIS A003002: the size of a largest subset of {1..m} with no 3-term
    # arithmetic progression
    sizes = [len(exhaustive_best(m, 2)) for m in range(1, 25)]
    assert sizes == [1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 10]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_mirror_cut_keeps_every_yes_no_answer(r):
    # each sweep step asks whether a set of size sizes[L-1] + 1 holding 1
    # and L exists; the cut searches only sets whose bottom half is at least
    # as full as their top half, so it must answer as the uncut search does
    sizes = [0]
    for L in range(1, (24 if r < 5 else 20) + 1):
        bound = sizes + [sizes[-1] + 1]
        uncut = _first_of_size(L, r, sizes[-1] + 1, bound, True, False)
        cut = _first_of_size(L, r, sizes[-1] + 1, bound, True, True)
        assert (cut is None) == (uncut is None), L
        if cut is not None:
            assert cut[0] == 1 and cut[-1] == L and verify_progression_free(cut, r) is None
            h = L // 2
            assert sum(x <= h for x in cut) >= sum(x > L - h for x in cut), L
        sizes.append(sizes[-1] + (uncut is not None))


# the recursive search that the flat loop replaced, copied unchanged: the
# oracle for _first_of_size
def reference_first_of_size(m: int, r: int, target: int, bound: list[int],
                            ends: bool, mirror: bool) -> Optional[list[int]]:
    """First valid subset of {1..m} of size target in include-first order,
    the lexicographically smallest, or None; bound[L] caps any L consecutive
    integers.  ends: the set must hold m (a branch stops once m is ruled out).
    mirror (every set holds 1 and m): cut sets with more elements in
    [m-h+1, m] than in [1, h], h = m//2 (at x > h after elements <= h).

    Bitmasks: sums[j] has bit s when a j-multiset of the set sums to s,
    rev[j] bit K - s, means bit r*d per member d.  Appending x (the largest
    so far) makes a solution iff x + (r-1 members) = r*d for a member d, so
    later y = r*x - s (s in sums[r-1]) are forbidden: all the invalid y for
    r = 2, some of them for r >= 3, where the exact test still decides.
    """
    K, need = r * m, 1 << m if ends else -1
    h = m // 2 if mirror and m > 1 else m
    cur: list[int] = []

    def extend(sums: list[int], rev: list[int], means: int, allowed: int) -> bool:
        if len(cur) == target:
            return True
        while allowed & need:
            x = (allowed & -allowed).bit_length() - 1
            if (len(cur) + min(bound[m - x + 1], allowed.bit_count()) < target
                    or x > h >= cur[-1] and 2 * len(cur) + (x <= m - h) < target):
                return False
            allowed ^= 1 << x
            grown, rgrown = [sums[0]], [rev[0]]
            for j in range(1, r):
                grown.append(sums[j] | grown[j - 1] << x)
                rgrown.append(rev[j] | rgrown[j - 1] >> x)
            if not (means >> x) & grown[r - 1]:
                cur.append(x)
                if extend(grown, rgrown, means | 1 << (r * x),
                          allowed & ~(rgrown[r - 1] >> (K - r * x))):
                    return True
                cur.pop()
        return False

    found = extend([1] + [0] * (r - 1), [1 << K] + [0] * (r - 1), 0, (2 << m) - 2)
    return cur if found else None


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_flat_search_matches_recursive_search(monkeypatch, r):
    # every call the sweeps make for m <= 24: the mirror-cut steps, each
    # uncut last step and the unforced searches
    calls = []
    real = mrcodes.progfree._first_of_size

    def spy(m, r, target, bound, ends, mirror):
        found = real(m, r, target, bound, ends, mirror)
        calls.append(((m, r, target, list(bound), ends, mirror), found))
        return found

    monkeypatch.setattr(mrcodes.progfree, "_first_of_size", spy)
    for m in range(1, 25):
        exhaustive_best(m, r)
    assert {args[4:] for args, _ in calls} == {(True, True), (True, False), (False, False)}
    for args, found in calls:
        assert found == reference_first_of_size(*args), args


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_exhaustive_best_does_not_depend_on_call_order(r):
    # the caches fill in whatever order m comes: shuffled on a cold cache,
    # ascending on another cold one, and the unpruned search agree
    order = random.Random(r).sample(range(1, 25), 24)
    shuffled = {m: exhaustive_best(m, r) for m in order}
    mrcodes.progfree._sizes.cache_clear()
    mrcodes.progfree._best.cache_clear()
    for m in range(1, 25):
        assert exhaustive_best(m, r) == shuffled[m]
        assert shuffled[m].elements == reference_exhaustive_best(m, r), m


def test_a_search_that_raises_keeps_no_answer(monkeypatch):
    # the sweep step at L = 7 raises: sizes through L = 6 are kept, nothing
    # from L = 7 on is, and the next call resumes at L = 7 with the
    # oracle's set (sizes[9] = sizes[10] = 5: the unforced search runs too)
    real, steps = mrcodes.progfree._first_of_size, []

    def failing(m, *rest):
        if m == 7:
            raise RuntimeError("interrupted")
        return real(m, *rest)

    monkeypatch.setattr(mrcodes.progfree, "_first_of_size", failing)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        exhaustive_best(10, 2)
    assert mrcodes.progfree._best.cache_info().currsize == 0
    assert mrcodes.progfree._sizes.cache_info().currsize == 7
    monkeypatch.setattr(mrcodes.progfree, "_first_of_size",
                        lambda m, *rest: steps.append(m) or real(m, *rest))
    assert exhaustive_best(10, 2).elements == reference_exhaustive_best(10, 2)
    assert steps == [7, 8, 9, 10, 10]


@pytest.mark.parametrize("make", [
    lambda: ProgressionFreeSet(2, (1, 2), "bogus"),
    lambda: ProgressionFreeSet(2, (1, 2), 7),
    lambda: ProgressionFreeSet(2, (1, 2), "exhaustive", AlonMeta(4, 1, 1, 0.5)),
    lambda: ProgressionFreeSet(2, (1, 2), "user_supplied", AlonMeta(4, 1, 1, 0.5)),
    lambda: AlonMeta("abc", 1, 1, 0.5),
    lambda: AlonMeta(4, None, 1, 0.5),
    lambda: AlonMeta(4, 1, [1], 0.5),
    lambda: AlonMeta(4, 1, True, 0.5),
    lambda: AlonMeta(4, 1, 1, 1),
    lambda: ProgressionFreeSet(2, (1, 2), "alon", {"h": 4}),
    lambda: ProgressionFreeSet("2", (1, 2), "user_supplied"),
    lambda: ProgressionFreeSet(2, (1, "a"), "user_supplied"),
    lambda: ProgressionFreeSet(2, (1, True), "user_supplied"),
    lambda: ProgressionFreeSet(2, 5, "user_supplied"),
], ids=["method-bogus", "method-int", "meta-on-exhaustive", "meta-on-user-supplied",
        "h-str", "t-none", "B-list", "B-bool", "size-bound-int", "meta-dict",
        "r-str", "element-str", "element-bool", "elements-int"])
def test_set_labels_are_typed(make):
    with pytest.raises(BadParams):
        make()


# the d that construct reaches in the tests and the benchmark, beside the
# direct calls above; (2, 2) and (25, 25) have the digit range {0}
_USED = sorted({(16, 2), (256, 2), (4096, 2), (16, 3), (256, 3), (4096, 3), (33, 2),
                (10416, 2), (2, 2), (25, 25)}
               | {(choose_params(r, q).d, r) for r, q in [
                   (2, 401), (2, 1601), (2, 500009), (2, 1000000007), (3, 5003),
                   (3, 100000007), (3, 4294967291), (4, 20011)]})


def _same_as_reference(m, r):
    try:
        expected = digit_set(m, r)
    except ParamsTooSmall:
        with pytest.raises(ParamsTooSmall):
            alon_construct(m, r)
    else:
        # dataclass equality: elements, h, t, B (the largest bucket, ties to
        # the smallest B) and the size bound; the constructor runs no
        # oracle, so the set is proved here
        D = alon_construct(m, r)
        assert D == expected, (m, r)
        assert verify_progression_free(D.elements, r) is None, (m, r)


@pytest.mark.parametrize("m,r", _USED)
def test_counted_digit_set_matches_enumeration(m, r):
    _same_as_reference(m, r)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_counted_digit_set_matches_enumeration_seeded(r):
    rng = random.Random(17 + r)
    for m in [rng.randint(2, 10**6) for _ in range(12)] + [10**6]:
        _same_as_reference(m, r)


def _digit_set_or_refusal(construct, m, r):
    try:
        return construct(m, r)
    except ParamsTooSmall:
        return ParamsTooSmall


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_digit_set_matches_enumeration_for_every_small_m(r):
    # every m below 3000, and d = 10416 and 83334 of (2, 500009) and
    # (2, 4000037): equal elements and meta, or ParamsTooSmall from both
    for m in [*range(2, 3000), 10416, 83334]:
        assert (_digit_set_or_refusal(alon_construct, m, r)
                == _digit_set_or_refusal(digit_set, m, r)), m


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_every_nonzero_digit_vector_is_in_range(r):
    # the counted construction keeps no range filter: wherever the digit
    # range is not {0}, the largest vector, all digits top, is at most m
    rng = random.Random(31 + r)
    for m in list(range(2, 400)) + [rng.randint(400, 10**7) for _ in range(40)]:
        try:
            meta = alon_construct(m, r).alon_meta
        except ParamsTooSmall:
            continue
        top = (meta.h - 1) // r
        assert top * sum(meta.h**j for j in range(meta.t + 1)) <= m, (m, r)


@pytest.mark.parametrize("call,message", [
    (lambda: exhaustive_best(24, 2.0), "r=2.0 is not an int"),
    (lambda: exhaustive_best(True, 2), "m=True is not an int"),
    (lambda: alon_construct(10416, "2"), "r='2' is not an int"),
    (lambda: alon_construct(10416.0, 2), "m=10416.0 is not an int"),
    (lambda: verify_progression_free([1.5, 2, 4], 2), "element=1.5 is not an int"),
    (lambda: verify_progression_free([1, 2, 4], 2.0), "r=2.0 is not an int"),
    # well typed but out of range
    (lambda: verify_progression_free([], 2), "candidate must be a nonempty set of integers >= 1"),
    (lambda: verify_progression_free([0, 3], 2),
     "candidate must be a nonempty set of integers >= 1"),
    (lambda: exhaustive_best(0, 2), "need r >= 2 and m >= 1"),
    (lambda: exhaustive_best(5, 1), "need r >= 2 and m >= 1"),
], ids=["eb-r-float", "eb-m-bool", "alon-r-str", "alon-m-float", "verify-element-float",
        "verify-r-float", "verify-empty", "verify-zero", "eb-m-zero", "eb-r-one"])
def test_wrong_typed_inputs_are_bad_params(call, message):
    with pytest.raises(BadParams) as refusal:
        call()
    assert str(refusal.value) == message
