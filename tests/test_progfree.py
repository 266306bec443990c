import math
import random

import pytest

import mrcodes.progfree
from mrcodes.errors import PropertyViolation, RangeTooLarge, TooLarge
from mrcodes.progfree import (alon_construct, exhaustive_best, from_elements,
                              verify_progression_free)


def brute_force_check(elems, r):
    """Independent oracle: fully ordered tuple enumeration."""
    from itertools import product
    elems = sorted(elems)
    for tup in product(elems, repeat=r + 1):
        if sum(tup[:r]) == r * tup[r] and len(set(tup)) > 1:
            return False
    return True


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
        with pytest.raises(TooLarge):
            verify_progression_free(range(1, 101), 5)

    def test_agrees_with_ordered_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            r = rng.choice([2, 3])
            cand = sorted(rng.sample(range(1, 30), rng.randint(1, 6)))
            assert (verify_progression_free(cand, r) is None) == brute_force_check(cand, r)


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
        d = alon_construct(2, 2)
        assert d.elements == (1, 2)  # 1+2=3 is odd, never 2*d
        assert d.method == "exhaustive"

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


def test_from_elements_rejects_bad_set():
    with pytest.raises(ValueError):
        from_elements([1, 2, 3], m=10, r=2)
    d = from_elements([1, 4], m=10, r=2)
    assert d.method == "user_supplied"


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


@pytest.mark.parametrize("r", [2, 3, 4])
def test_exhaustive_matches_reference_search(r):
    for m in range(1, 25):
        assert exhaustive_best(m, r).elements == reference_exhaustive_best(m, r), m


@pytest.mark.parametrize("build", [lambda: alon_construct(16, 2),
                                   lambda: exhaustive_best(8, 2)],
                         ids=["alon", "exhaustive"])
def test_rejected_construction_is_property_violation(monkeypatch, build):
    monkeypatch.setattr(mrcodes.progfree, "verify_progression_free",
                        lambda candidate, r: (1, 3, 2))
    with pytest.raises(PropertyViolation):
        build()
