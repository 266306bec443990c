import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import mrcodes.mrcode
from mrcodes.errors import BadParams, BadSet, Mismatch, TooLarge
from mrcodes.family import FamilyParams, ZeroSumFamily, build_family
from mrcodes.mrcode import _identity_subsets, _kernel_cost
from mrcodes.progfree import ProgressionFreeSet
from reference import family_residues, zero_sum_witness


@pytest.fixture
def params_r2():
    return FamilyParams(N=100, r=2, lam=Fraction(1, 16), delta=Fraction(1, 48))


@pytest.fixture
def family_r2(params_r2):
    return build_family(params_r2, ProgressionFreeSet(r=2, elements=(1, 2), method="user_supplied"))


def test_params_derived(params_r2):
    assert params_r2.l == 6 and params_r2.d == 2


_open_unit = st.fractions(0, 1).filter(lambda f: 0 < f < 1)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(r=st.integers(2, 6), N=st.integers(-10, 10**15),
       lam_frac=_open_unit, delta_frac=_open_unit)
def test_params_derive_l_and_d_as_exact_floors(r, N, lam_frac, delta_frac):
    # l and d are set once from integer floors; they equal the Fraction floors
    lam = Fraction(1, r**3) * lam_frac
    delta = lam / r * delta_frac
    l, d = math.floor(lam * N), math.floor(delta * N)
    if l < 1 or d < 1:
        with pytest.raises(BadParams, match=f"^l={l}, d={d}: both must be >= 1$"):
            FamilyParams(N=N, r=r, lam=lam, delta=delta)
    else:
        params = FamilyParams(N=N, r=r, lam=lam, delta=delta)
        assert (params.l, params.d) == (l, d)


@pytest.mark.parametrize("name", ["l", "d"])
def test_params_derived_values_cannot_be_replaced(params_r2, name):
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(params_r2, **{name: 1})
    assert "l=" not in repr(params_r2) and "d=" not in repr(params_r2)


@pytest.mark.parametrize("lam,delta", [
    (Fraction(1, 8), Fraction(1, 48)),   # lam = 1/r^3, not strict
    (Fraction(1, 16), Fraction(1, 32)),  # delta = lam/r, not strict
    (Fraction(0), Fraction(1, 48)),
    (Fraction(-1, 16), Fraction(-1, 48)),
    (Fraction(1, 16), Fraction(-1, 48)),
    (Fraction(1, 16), Fraction(0)),
])
def test_params_rejected(lam, delta):
    with pytest.raises(BadParams):
        FamilyParams(N=100, r=2, lam=lam, delta=delta)


def _scaled(bound):
    """A Fraction near bound: p/s of it with p in -2..12, so 0, negatives,
    bound itself (p = s) and both sides of it come up often."""
    return st.builds(lambda p, s: bound * Fraction(p, s), st.integers(-2, 12), st.integers(1, 10))


@st.composite
def _lam_delta(draw):
    r = draw(st.integers(2, 6))
    lam = draw(st.one_of(_scaled(Fraction(1, r**3)), st.fractions(-1, 1, max_denominator=10**6)))
    delta = draw(st.one_of(_scaled(lam / r), st.fractions(-1, 1, max_denominator=10**6)))
    return r, lam, delta


@settings(deadline=None, max_examples=300, derandomize=True)
@given(case=_lam_delta())
def test_params_range_checks_match_the_fraction_comparisons(case):
    # the integer cross-products accept and refuse, with the same message,
    # exactly what 0 < lam < 1/r^3 and 0 < delta < lam/r on Fractions do;
    # N is large enough that l, d >= 1 holds wherever both are in range
    r, lam, delta = case
    N = 10**18
    if not 0 < lam < Fraction(1, r**3):
        with pytest.raises(BadParams, match=rf"^lambda={lam} outside \(0, 1/r\^3\)$"):
            FamilyParams(N=N, r=r, lam=lam, delta=delta)
    elif not 0 < delta < lam / r:
        with pytest.raises(BadParams, match=rf"^delta={delta} outside \(0, lambda/r\)$"):
            FamilyParams(N=N, r=r, lam=lam, delta=delta)
    else:
        params = FamilyParams(N=N, r=r, lam=lam, delta=delta)
        assert (params.l, params.d) == (math.floor(lam * N), math.floor(delta * N))


def test_params_require_positive_l_d():
    with pytest.raises(BadParams):
        FamilyParams(N=40, r=2, lam=Fraction(1, 16), delta=Fraction(1, 48))  # d=0


@pytest.mark.parametrize("kwargs", [
    {"r": "2"}, {"r": True}, {"r": 2.0}, {"N": 100.5}, {"N": None},
    {"lam": 0.0625}, {"lam": 1}, {"delta": 0.02}, {"delta": "1/48"},
], ids=["r-str", "r-bool", "r-float", "N-float", "N-none", "lam-float", "lam-int",
        "delta-float", "delta-str"])
def test_params_check_their_types(kwargs):
    valid = {"N": 100, "r": 2, "lam": Fraction(1, 16), "delta": Fraction(1, 48)}
    with pytest.raises(BadParams):
        FamilyParams(**valid | kwargs)


def test_worked_example_blocks(family_r2):
    assert family_r2.blocks == ((1, 2), (7, 8), (92, 90))
    assert family_r2.transversals == ((1, 7, 92), (2, 8, 90))
    assert family_r2.elements == (1, 7, 92, 2, 8, 90)
    assert family_r2.n == 6


def test_transversal_sums(family_r2):
    for tr in family_r2.transversals:
        assert sum(tr) % 100 == 0
    assert 1 + 7 + 92 == 100


def test_block_ranges(family_r2):
    p = family_r2.params
    r, l, d, N = p.r, p.l, p.d, p.N
    for i in range(r):
        assert all(i * l + 1 <= a <= i * l + d for a in family_r2.blocks[i])
    lo = N - (r * (r - 1) // 2) * l - r * d
    hi = N - (r * (r - 1) // 2) * l - r
    assert all(lo <= a <= hi for a in family_r2.blocks[r])


def test_r3_worked_example():
    params = FamilyParams(N=652, r=3, lam=Fraction(1, 54), delta=Fraction(1, 216))
    assert params.l == 12 and params.d == 3
    fam = build_family(params, ProgressionFreeSet(r=3, elements=(1, 2), method="user_supplied"))
    assert fam.transversals == ((1, 13, 25, 613), (2, 14, 26, 610))
    assert fam.n == 8
    assert zero_sum_witness(fam.elements, fam.transversals, 652, 3) is None


def test_family_is_its_params_and_D(family_r2):
    params = FamilyParams(N=652, r=3, lam=Fraction(1, 54), delta=Fraction(1, 216))
    D = ProgressionFreeSet(r=3, elements=(1, 2), method="user_supplied")
    assert ZeroSumFamily(params, D) == build_family(params, D)
    assert ZeroSumFamily(family_r2.params, family_r2.D) == family_r2


@pytest.mark.parametrize("name,value", [("transversals", ((1, 2, 3), (4, 5, 6))),
                                        ("blocks", ((9,),)),
                                        ("elements", (1, 7, 92, 2, 8, 90))])
def test_family_derived_values_cannot_be_replaced(family_r2, name, value):
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(family_r2, **{name: value})


def test_rejects_bad_set():
    params = FamilyParams(N=652, r=3, lam=Fraction(1, 54), delta=Fraction(1, 216))
    bad = ProgressionFreeSet(r=3, elements=(1, 2, 3), method="user_supplied")
    with pytest.raises(BadSet):
        build_family(params, bad)  # 1+2+3 = 3*2


def test_rejects_D_checked_for_another_r(params_r2):
    other = ProgressionFreeSet(r=7, elements=(1, 2), method="user_supplied")
    with pytest.raises(Mismatch):
        build_family(params_r2, other)


def test_rejects_oversized_D(params_r2):
    from mrcodes.progfree import ProgressionFreeSet
    big = ProgressionFreeSet(r=2, elements=(1, 4), method="user_supplied")
    with pytest.raises(BadParams):
        build_family(params_r2, big)  # m=5 > d=2


def test_verify_zero_sum_pass(family_r2):
    assert zero_sum_witness(family_r2.elements, family_r2.transversals, 100, 2) is None


def test_verify_zero_sum_planted_violation():
    elements = (10, 40, 50, 20, 35, 45, 70, 12, 18)
    transversals = ((10, 40, 50), (20, 35, 45), (70, 12, 18))
    witness = zero_sum_witness(elements, transversals, 100, 2)
    assert witness == frozenset({10, 20, 70})  # sums to 100 but is no transversal


def test_verify_zero_sum_single_transversal(params_r2):
    one = build_family(params_r2, ProgressionFreeSet(r=2, elements=(1,), method="user_supplied"))
    assert one.n == 3
    assert zero_sum_witness(one.elements, one.transversals, 100, 2) is None


@st.composite
def _params_and_D(draw):
    """Valid (N, r, lam, delta) with d <= 12, and any nonempty D in [1, d]."""
    r = draw(st.integers(2, 4))
    lam = Fraction(1, r**3) * Fraction(draw(st.integers(1, 5)), draw(st.integers(6, 12)))
    delta = lam / r * Fraction(draw(st.integers(1, 5)), draw(st.integers(6, 12)))
    N = draw(st.integers(math.ceil(1 / delta), math.floor(13 / delta) - 1))
    params = FamilyParams(N=N, r=r, lam=lam, delta=delta)
    D = draw(st.sets(st.integers(1, params.d), min_size=1, max_size=8))
    return params, ProgressionFreeSet(r=r, elements=tuple(sorted(D)), method="user_supplied")


@settings(deadline=None, max_examples=300, derandomize=True)
@given(case=_params_and_D())
def test_build_family_rejects_exactly_the_families_without_the_zero_sum_property(case):
    # the lemma ZeroSumFamily relies on: with lambda and delta in range and
    # D strictly increasing in [1, d], the residues are distinct, every
    # transversal sums to exactly N (no reduction mod N), and the family has
    # the zero-sum property exactly when D passes the set oracle, so the
    # kernel proof is left to verify_mr
    params, D = case
    elements, transversals = family_residues(params, D.elements)
    assert len(set(elements)) == len(elements)
    assert all(sum(tr) == params.N for tr in transversals)
    witness = zero_sum_witness(elements, transversals, params.N, params.r)
    if witness is None:
        family = ZeroSumFamily(params, D)
        assert (family.elements, family.transversals) == (elements, transversals)
        assert build_family(params, D) == family
    else:
        with pytest.raises(BadSet):
            ZeroSumFamily(params, D)
        with pytest.raises(BadSet):
            build_family(params, D)


def test_perturbation_negative_control(family_r2):
    # bumping any single residue by 1 must break a transversal sum or distinctness
    for idx in range(family_r2.n):
        elements = list(family_r2.elements)
        elements[idx] = (elements[idx] + 1) % 100
        g = idx // 3
        transversals = [list(t) for t in family_r2.transversals]
        transversals[g][idx % 3] = elements[idx]
        distinct = len(set(elements)) == len(elements)
        if distinct:
            assert zero_sum_witness(elements, transversals, 100, 2) is not None


@pytest.mark.parametrize("elements,witness", [
    ((10, 40, 51, 20, 35, 45, 70, 12, 18), {10, 40, 51}),
    ((10, 20, 70, 40, 51, 35, 45, 12, 18), {10, 20, 70}),
], ids=["broken-transversal-first", "zero-sum-first"])
def test_verify_zero_sum_witness_is_first_in_combinations_order(elements, witness):
    # a transversal summing to 101 and a cross-group zero sum: the order of
    # elements decides which one combinations meets first
    transversals = ((10, 40, 51), (20, 35, 45), (70, 12, 18))
    assert zero_sum_witness(elements, transversals, 100, 2) == witness


def test_subset_guard(family_r2, monkeypatch):
    # the kernel's cost at n = 6, r = 2 is C(6, 2) + C(6, 1) = 21: the kernel
    # refuses before it yields a subset, and build_family, which never runs
    # it, still builds the family
    monkeypatch.setattr(mrcodes.mrcode, "_KERNEL_GUARD", 20)
    message = "^the lookup kernel's cost for n=6, r=2 = 21 exceeds its guard 20$"
    with pytest.raises(TooLarge, match=message):
        list(_identity_subsets(family_r2.elements, 2, 100))
    assert build_family(family_r2.params, family_r2.D) == family_r2


def test_build_family_checks_up_to_the_guard(family_r2, monkeypatch):
    # the family proves D with the set oracle only: no kernel call on either
    # side of the guard (the kernel's cost at n = 6, r = 2 is 21)
    calls = []
    real = mrcodes.mrcode._identity_subsets
    monkeypatch.setattr(mrcodes.mrcode, "_identity_subsets",
                        lambda *args: calls.append(args) or real(*args))
    for guard in (20, 21):
        monkeypatch.setattr(mrcodes.mrcode, "_KERNEL_GUARD", guard)
        assert build_family(family_r2.params, family_r2.D) == family_r2
    assert calls == []


def test_kernel_cost_takes_the_cheapest_split():
    # code6; the benchmark's (3, 5003) family; one repair group at r = 20;
    # the costliest family the old C(n, r+1) guards checked
    assert _kernel_cost(6, 2) == (21, 1)
    assert _kernel_cost(32, 3) == (992, 2)
    assert _kernel_cost(21, 20) == (42, 1)
    assert _kernel_cost(28, 13) == (2368080, 7)
    for r in range(2, 9):
        for n in range(1, 41):
            costs = [math.comb(n, r - t + 1) + math.comb(n, t) for t in range(1, r)]
            assert _kernel_cost(n, r) == (min(costs), costs.index(min(costs)) + 1)


def test_identity_subsets_matches_brute_force():
    # values from a small range repeat, so a completion bucket holds several
    # tails, some of them starting before the running index; n goes down to
    # 1, below r+1, and the draws reach every split the cost rule picks
    rng = random.Random(12)
    shared_buckets = 0
    splits = set()
    for _ in range(600):
        r = rng.randint(2, 8)
        n = rng.randint(1, 16)
        modulus = rng.choice([5, 7, 12, 13, 30, 100, 101])
        values = [rng.randrange(modulus) for _ in range(n)]
        expected = [s for s in combinations(range(n), r + 1)
                    if sum(values[i] for i in s) % modulus == 0]
        assert list(_identity_subsets(values, r, modulus)) == expected, (r, values, modulus)
        t = _kernel_cost(n, r)[1]
        splits.add((r, t))
        # hits sharing a head and running index came from one bucket
        shared_buckets += len({s[:r - t + 1] for s in expected}) < len(expected)
    assert splits == {(r, _kernel_cost(n, r)[1]) for r in range(2, 9) for n in range(1, 17)}
    assert shared_buckets > 50
