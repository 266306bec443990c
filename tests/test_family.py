import random
from fractions import Fraction
from itertools import combinations

import pytest

import mrcodes.family
from mrcodes.errors import BadParams, BadSet, TooLarge
from mrcodes.family import (FamilyParams, build_family, sample_zero_sum_property,
                            trim_family, verify_zero_sum_property)
from mrcodes.progfree import from_elements


@pytest.fixture
def params_r2():
    return FamilyParams(N=100, r=2, lam=Fraction(1, 16), delta=Fraction(1, 48))


@pytest.fixture
def family_r2(params_r2):
    return build_family(params_r2, from_elements([1, 2], m=2, r=2))


def test_params_derived(params_r2):
    assert params_r2.l == 6 and params_r2.d == 2


@pytest.mark.parametrize("lam,delta", [
    (Fraction(1, 8), Fraction(1, 48)),   # lam = 1/r^3, not strict
    (Fraction(1, 16), Fraction(1, 32)),  # delta = lam/r, not strict
    (Fraction(0), Fraction(1, 48)),
    (Fraction(1, 16), Fraction(-1, 48)),
])
def test_params_rejected(lam, delta):
    with pytest.raises(BadParams):
        FamilyParams(N=100, r=2, lam=lam, delta=delta)


def test_params_require_positive_l_d():
    with pytest.raises(BadParams):
        FamilyParams(N=40, r=2, lam=Fraction(1, 16), delta=Fraction(1, 48))  # d=0


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
    fam = build_family(params, from_elements([1, 2], m=3, r=3))
    assert fam.transversals == ((1, 13, 25, 613), (2, 14, 26, 610))
    assert fam.n == 8
    assert verify_zero_sum_property(fam.elements, fam.transversals, 652, 3) is None


def test_rejects_bad_set():
    params = FamilyParams(N=652, r=3, lam=Fraction(1, 54), delta=Fraction(1, 216))
    bad = from_elements([1, 3], m=3, r=3)  # valid for r=3? 1+1+3=5, 1+3+3=7, ok
    # force a genuinely bad D through the dataclass to bypass from_elements
    from mrcodes.progfree import ProgressionFreeSet
    bad = ProgressionFreeSet(m=3, r=3, elements=(1, 2, 3), method="user_supplied")
    with pytest.raises(BadSet):
        build_family(params, bad)  # 1+2+3 = 3*2


def test_rejects_oversized_D(params_r2):
    from mrcodes.progfree import ProgressionFreeSet
    big = ProgressionFreeSet(m=5, r=2, elements=(1, 4), method="user_supplied")
    with pytest.raises(BadParams):
        build_family(params_r2, big)  # m=5 > d=2


def test_verify_zero_sum_pass(family_r2):
    assert verify_zero_sum_property(family_r2.elements, family_r2.transversals,
                                    100, 2) is None


def test_verify_zero_sum_planted_violation():
    elements = (10, 40, 50, 20, 35, 45, 70, 12, 18)
    transversals = ((10, 40, 50), (20, 35, 45), (70, 12, 18))
    witness = verify_zero_sum_property(elements, transversals, 100, 2)
    assert witness == frozenset({10, 20, 70})  # sums to 100 but is no transversal


def test_verify_zero_sum_single_transversal(family_r2):
    trimmed = trim_family(family_r2, 1)
    assert trimmed.n == 3
    assert verify_zero_sum_property(trimmed.elements, trimmed.transversals,
                                    100, 2) is None


def test_sampled_verifier_matches(family_r2):
    assert sample_zero_sum_property(family_r2.elements, family_r2.transversals,
                                    100, 2, samples=500, seed=1) is None
    elements = (10, 40, 50, 20, 35, 45, 70, 12, 18)
    transversals = ((10, 40, 50), (20, 35, 45), (70, 12, 19))  # broken third sum
    assert sample_zero_sum_property(elements, transversals, 100, 2) is not None


def test_trim_noop_and_prefix(family_r2):
    assert trim_family(family_r2, 2) is family_r2
    one = trim_family(family_r2, 1)
    assert one.transversals == (family_r2.transversals[0],)
    with pytest.raises(ValueError):
        trim_family(family_r2, 3)


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
            assert verify_zero_sum_property(elements, transversals, 100, 2) is not None


def _reference_zero_sum(elements, transversals, N, r):
    """The brute-force verify_zero_sum_property: every (r+1)-subset, in
    combinations order."""
    transversal_sets = {frozenset(tr) for tr in transversals}
    for subset in combinations(elements, r + 1):
        is_zero = sum(subset) % N == 0
        if is_zero != (frozenset(subset) in transversal_sets):
            return frozenset(subset)
    return None


def _random_zero_sum_case(rng, r, kind):
    """Transversals that sum to 0 mod N, flattened, then altered by kind."""
    N = rng.randint(r + 2, 100)
    transversals = []
    for _ in range(rng.randint(1, 3)):
        head = [rng.randrange(N) for _ in range(r)]
        transversals.append(head + [-sum(head) % N])
    elements = [a for tr in transversals for a in tr]
    if kind == "planted":
        # an extra element closing a zero sum with r elements of the family
        elements.append(-sum(rng.sample(elements, r)) % N)
    elif kind == "broken":
        tr = rng.choice(transversals)
        i = rng.randrange(r + 1)
        elements[elements.index(tr[i])] = tr[i] = tr[i] + rng.randint(1, N - 1)
    elif kind == "foreign":
        # a transversal naming one value that is not in elements
        tr = rng.sample(elements, r) + [N + rng.randrange(N)]
        transversals.append(tr)
    elif kind == "duplicate":
        elements.append(rng.choice(elements))
        if rng.random() < 0.5:
            a = rng.choice(elements)
            transversals.append([a, a] + rng.sample(elements, r - 1))
    rng.shuffle(elements)
    return elements, transversals, N


@pytest.mark.parametrize("r", [2, 3, 4])
def test_verify_zero_sum_matches_reference(r):
    rng = random.Random(1000 + r)
    outcomes = set()
    for kind in ("plain", "planted", "broken", "foreign", "duplicate"):
        for _ in range(40):
            elements, transversals, N = _random_zero_sum_case(rng, r, kind)
            expected = _reference_zero_sum(elements, transversals, N, r)
            assert verify_zero_sum_property(elements, transversals, N, r) == expected, \
                (elements, transversals, N)
            if expected is None:
                outcomes.add("pass")
            else:
                outcomes.add("transversal" if expected in map(frozenset, transversals)
                             else "zero-sum")
    # every outcome seen: a pass, a zero-sum non-transversal, a transversal
    # that does not sum to 0
    assert outcomes == {"pass", "transversal", "zero-sum"}


@pytest.mark.parametrize("elements,witness", [
    ((10, 40, 51, 20, 35, 45, 70, 12, 18), {10, 40, 51}),
    ((10, 20, 70, 40, 51, 35, 45, 12, 18), {10, 20, 70}),
], ids=["broken-transversal-first", "zero-sum-first"])
def test_verify_zero_sum_witness_is_first_in_combinations_order(elements, witness):
    # a transversal summing to 101 and a cross-group zero sum: the order of
    # elements decides which one combinations meets first
    transversals = ((10, 40, 51), (20, 35, 45), (70, 12, 18))
    assert verify_zero_sum_property(elements, transversals, 100, 2) == witness
    assert _reference_zero_sum(elements, transversals, 100, 2) == witness


def test_subset_guard(family_r2, monkeypatch):
    # C(6, 3) = 20 subsets: the check refuses, and build_family skips it
    monkeypatch.setattr(mrcodes.family, "_SUBSET_GUARD", 19)
    with pytest.raises(TooLarge):
        verify_zero_sum_property(family_r2.elements, family_r2.transversals, 100, 2)
    assert build_family(family_r2.params, family_r2.D) == family_r2
