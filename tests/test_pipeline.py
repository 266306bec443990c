import dataclasses
import importlib
import json
import math
import pkgutil
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

import mrcodes.family
from mrcodes import pipeline, progfree
from mrcodes.codespec import code_from_dict, code_to_dict
from mrcodes.errors import (BadParams, BadSet, FieldTooSmall, ParamsTooSmall,
                            PropertyViolation, TargetUnreachable, TooLarge)
from mrcodes.mrcode import build_code, is_correctable, verify_mr
from mrcodes.pipeline import (choose_params, construct, exact_failure_probability,
                              scaling_table, simulate)
from mrcodes.progfree import exhaustive_best
from reference import failure_probabilities


def test_choose_params_r2_q101():
    p = choose_params(2, 101)
    assert p.lam == Fraction(1, 16) and p.delta == Fraction(1, 48)
    assert p.l == 6 and p.d == 2


def test_choose_params_r3_q653():
    p = choose_params(3, 653)
    assert p.lam == Fraction(1, 54) and p.delta == Fraction(1, 216)
    assert p.l == 12 and p.d == 3


def test_construct_builds_one_field(monkeypatch):
    calls = []
    real = pipeline.make_field
    monkeypatch.setattr(pipeline, "make_field", lambda q: calls.append(q) or real(q))
    construct(2, 101)
    assert calls == [101]


def test_choose_params_field_too_small():
    with pytest.raises(FieldTooSmall):
        choose_params(3, 101)  # d = floor(100/216) = 0


def test_choose_params_d_boundary():
    # r = 4: delta = 1/640, so d >= 1 exactly when N >= 640
    assert choose_params(4, 641).d == 1
    with pytest.raises(FieldTooSmall, match=r"^q=631 gives d=0 for r=4; need N >= 640$"):
        choose_params(4, 631)


def test_construct_r2():
    code, report = construct(2, 101)
    assert (code.n, code.k) == (6, 3)
    assert report.ok and report.mode == "certificate"
    assert code.field.q >= code.k + 1  # sanity floor


def test_construct_trimmed():
    code, report = construct(2, 101, target_n=3)
    assert code.n == 3
    assert len(code.repair_groups) == 1
    assert report.ok


def test_construct_builds_the_trimmed_family_once(monkeypatch):
    calls = []
    real = mrcodes.family.build_family

    def spy(params, D):
        calls.append(D)
        return real(params, D)

    for module in (mrcodes.family, pipeline):
        monkeypatch.setattr(module, "build_family", spy)
    code, report = construct(2, 1601, target_n=15)
    assert len(calls) == 1 and report.ok
    params = choose_params(2, 1601)
    full = real(params, progfree._choose_set(params.d, 2))
    smallest = dataclasses.replace(full.D, elements=full.D.elements[:5])
    assert code == build_code(code.field, real(params, smallest))
    # a target of the full length keeps every group
    assert construct(2, 1601, target_n=full.n)[0] == build_code(code.field, full)


def test_construct_checks_a_mid_size_code_exhaustively():
    # C(132, 4) subsets, found by the lookup kernel at a cost of
    # C(132, 2) + C(132, 2), audit the certificate construct returns
    code = construct(3, 100000007)[0]
    report = verify_mr(code, mode="exhaustive")
    assert code.n == 132 and report.mode == "exhaustive"
    assert report.deficient_subsets == [tuple(g) for g in code.repair_groups]
    assert not report.violations and report.ok
    assert report.mds_subsets_checked == math.comb(132, 4)


def test_one_group_code_at_high_r_stays_small():
    # n = 21, one repair group and one subset: the kernel's split and its
    # pruning keep the exhaustive audit from indexing C(21, 10) tails, and
    # construct and the spec round trip stay small beside it
    tracemalloc.start()
    try:
        code = construct(20, 336029)[0]
        report = verify_mr(code, mode="exhaustive")
        rebuilt = code_from_dict(json.loads(json.dumps(code_to_dict(code))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.n == 21 and report.mode == "exhaustive" and report.ok
    assert rebuilt == code
    assert peak < 20 * 2**20


def test_construct_refuses_a_long_code_before_building_its_family(monkeypatch):
    # q = 1000000007 gives n = 1008: the family's length check, its first,
    # raises TooLarge before any family is made or D meets the set oracle
    families, oracle = [], []
    family, real_oracle = mrcodes.family.ZeroSumFamily, mrcodes.family.verify_progression_free
    monkeypatch.setattr(mrcodes.family, "ZeroSumFamily",
                        lambda *args: families.append(family(*args)) or families[-1])
    monkeypatch.setattr(mrcodes.family, "verify_progression_free",
                        lambda *args: oracle.append(args) or real_oracle(*args))
    with pytest.raises(TooLarge, match="^n=1008 exceeds the desk-scale bound 1000$"):
        construct(2, 1000000007)
    assert families == oracle == []
    # the bound is inclusive, and applies to the trimmed length
    monkeypatch.setattr(mrcodes.family, "_MAX_N", 5)
    with pytest.raises(TooLarge, match="^n=6 exceeds the desk-scale bound 5$"):
        construct(2, 101)
    assert families == oracle == []
    assert construct(2, 101, target_n=3)[0].n == 3
    monkeypatch.setattr(mrcodes.family, "_MAX_N", 6)
    assert construct(2, 101)[0].n == 6 and len(families) == len(oracle) == 2


@pytest.mark.parametrize("target_n,message", [
    (7, "^target_n=7 is not a positive multiple of r\\+1=3$"),
    (-3, "^target_n=-3 is not a positive multiple of r\\+1=3$"),
    (0, "^target_n=0 is not a positive multiple of r\\+1=3$"),
    (3.0, "^target_n=3.0 is not an int$"),
])
def test_construct_checks_target_n_before_choosing_the_set(monkeypatch, target_n, message):
    # at q = 4294967291 the digit construction alone takes seconds: a bad
    # target_n is refused before any set constructor runs
    calls = []
    for name in ("alon_construct", "_sizes", "_best"):
        monkeypatch.setattr(progfree, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(BadParams, match=message):
        construct(2, 4294967291, target_n=target_n)
    assert calls == []


def test_construct_target_unreachable():
    with pytest.raises(TargetUnreachable):
        construct(2, 101, target_n=9)
    with pytest.raises(ValueError):
        construct(2, 101, target_n=5)  # not a multiple of r+1


def test_simulate_p0():
    code, _ = construct(2, 101)
    rep = simulate(code, 0.0, 50, seed=1)
    assert rep.counts["failures"] == 0
    assert rep.counts["global_decodes"] == 0
    assert rep.counts["intact"] == 50


def test_simulate_p1():
    code, _ = construct(2, 101)
    rep = simulate(code, 1.0, 50, seed=1)
    assert rep.counts["failures"] == 50


def test_simulate_reproducible():
    code, _ = construct(2, 101)
    a = simulate(code, 0.2, 300, seed=9)
    b = simulate(code, 0.2, 300, seed=9)
    assert a == b
    c = simulate(code, 0.2, 300, seed=10)
    assert a != c  # overwhelmingly likely


def test_simulate_counts_consistent():
    code, _ = construct(2, 101)
    rep = simulate(code, 0.3, 500, seed=4)
    c = rep.counts
    assert c["intact"] + c["local_only"] + c["global_decodes"] + c["failures"] == 500
    if c["locally_repaired_groups"]:
        assert rep.avg_symbols_read_per_repair == 2.0


def test_simulate_counts_repairs_in_failed_trials():
    # replay simulate's draws: every group with exactly one erasure counts,
    # whether or not its trial decodes
    code, _ = construct(2, 101)
    rng = random.Random(1)
    single = in_failed = 0
    for _ in range(300):
        for _ in range(code.k):
            rng.randrange(code.field.q)
        erased = [j for j in range(code.n) if rng.random() < 0.6]
        count = [sum(j in erased for j in g) for g in code.repair_groups].count(1)
        single += count
        if erased and not is_correctable(code, erased):
            in_failed += count
    rep = simulate(code, 0.6, 300, seed=1)
    assert rep.counts["locally_repaired_groups"] == single
    assert in_failed > 0
    assert rep.avg_symbols_read_per_repair == 2.0


def test_exact_failure_probability_matches_hand_count():
    code, _ = construct(2, 101)
    # independent count: incorrectable patterns by survivor-rank definition,
    # via inclusion over sizes with is_correctable already unit-tested; here
    # assert the two obvious endpoints and monotonicity in p
    assert exact_failure_probability(code, 0.0) == 0.0
    assert exact_failure_probability(code, 1.0) == 1.0
    assert (exact_failure_probability(code, 0.05)
            < exact_failure_probability(code, 0.2))


_PS = (0.0, 0.05, 0.1, 0.3, 0.5, 1.0)


@pytest.mark.parametrize("r,q", [(2, 101), (3, 653), (2, 401), (4, 1283)])
def test_exact_failure_probability_matches_enumeration(r, q):
    code = construct(r, q)[0]
    expected = failure_probabilities(code, _PS)
    got = [exact_failure_probability(code, p) for p in _PS]
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


def test_exact_failure_probability_single_group():
    # n = k: the one group's survivors are deficient, so every pattern fails
    code = construct(2, 101, target_n=3)[0]
    for p in _PS:
        assert exact_failure_probability(code, p) == pytest.approx(1.0, rel=1e-12)


def test_exact_failure_probability_past_n24():
    code = construct(2, 1601)[0]
    assert code.n == 30
    # at p = 1/2 each pattern weighs 2^-30: the patterns with at most 2
    # survivors plus the 10 groups surviving alone
    assert exact_failure_probability(code, 0.5) == pytest.approx(476 / 2**30, rel=1e-12)


def test_exact_failure_probability_past_the_kernel_guard():
    # n = 60, k = 15: the kernel would refuse C(60, 8) + C(60, 7) lookups
    # and entries, and the closed form counts the 4 groups; at p = 1/2 the
    # patterns with at most 14 survivors plus the 4 groups surviving alone
    code, report = construct(14, 4294967291)
    assert (code.n, report.mode) == (60, "certificate")
    failing = sum(math.comb(60, s) for s in range(15)) + 4
    assert exact_failure_probability(code, 0.5) == pytest.approx(failing / 2**60, rel=1e-12)


def test_exact_failure_probability_rejects():
    code = construct(2, 101)[0]
    for p in (1.5, -0.1, float("nan")):
        with pytest.raises(BadParams):
            exact_failure_probability(code, p)
    with pytest.raises(BadParams, match="is not an MrCode$"):
        exact_failure_probability(code.family, 0.1)


def test_choose_set_falls_back_when_digits_degenerate():
    # d = 25 is past the exhaustive cap, and at r = 25 the digit
    # construction's digit range is {0} only
    assert progfree._choose_set(25, 25) == exhaustive_best(24, 25)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_choose_set_matches_full_rule(r):
    # the full rule: the larger of the capped exhaustive set and the digit
    # set, ties to the digit set; at r = 2 and d = 5000 the digit set's 12
    # elements equal the bound 2 * 6 that skips the capped search
    capped = exhaustive_best(24, r)
    for d in (25, 2000, 5000, 10416, 20000):
        alon = progfree.alon_construct(d, r)
        assert progfree._choose_set(d, r) == (alon if len(alon) >= len(capped) else capped)


def reference_choose_set(d, r):
    """The set rule as three whole searches: exhaustive_best(12, r) for the
    skip bound, then exhaustive_best(24, r) from scratch."""
    if d <= 24:
        return exhaustive_best(d, r)
    try:
        alon = progfree.alon_construct(d, r)
    except ParamsTooSmall:
        return exhaustive_best(24, r)
    if len(alon) >= 2 * len(exhaustive_best(12, r)):
        return alon
    capped = exhaustive_best(24, r)
    return alon if len(alon) >= len(capped) else capped


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_choose_set_matches_reference(r):
    for d in [*range(1, 25), 25, 33, 250, 2000, 5000, 10416, 20000]:
        assert progfree._choose_set(d, r) == reference_choose_set(d, r), d


def _count_search_steps(monkeypatch) -> tuple[list, list]:
    """Record each _first_of_size call as (L, ends) and each oracle call's set."""
    steps, checked = [], []
    search, oracle = progfree._first_of_size, progfree.verify_progression_free
    monkeypatch.setattr(progfree, "_first_of_size",
                        lambda m, r, *rest: steps.append((m, rest[2])) or search(m, r, *rest))
    monkeypatch.setattr(progfree, "verify_progression_free",
                        lambda c, r: checked.append(tuple(c)) or oracle(c, r))
    return steps, checked


def test_choose_set_sweeps_each_length_once(monkeypatch):
    # construct(2, 1601)'s d: the digit set (2 elements) is below 2 * 6, so
    # the capped search runs.  reference_choose_set searches 37 times here,
    # building a set of {1..12}; _choose_set runs the oracle on none, since
    # the family proves the D it picks
    steps, checked = _count_search_steps(monkeypatch)
    chosen = progfree._choose_set(33, 2)
    sweep = [L for L, ends in steps if ends]
    assert sorted(sweep) == list(range(1, 25))
    assert len(steps) == 24  # {1..24} grows at L = 24: no unforced search
    assert chosen.method == "exhaustive" and len(chosen) == 10
    assert checked == []


def test_choose_set_repeats_no_search_step(monkeypatch):
    # the sweep's sizes and the capped set are kept per r: a second choice
    # at d = 33 runs no search step and returns an equal set
    first = progfree._choose_set(33, 2)
    steps, checked = _count_search_steps(monkeypatch)
    assert progfree._choose_set(33, 2) == first
    assert steps == [] and checked == []


def test_choose_set_skips_capped_search_when_digits_win(monkeypatch):
    # at d = 10416 the digit set's 12 elements reach 2 * 6: no sweep step
    # past L = 12 runs, and the oracle proves no set here
    steps, checked = _count_search_steps(monkeypatch)
    chosen = progfree._choose_set(10416, 2)
    assert chosen.method == "alon"
    assert sorted(L for L, _ in steps) == list(range(1, 13))
    assert checked == []


def _spy_oracle(monkeypatch) -> list:
    """Record each set-oracle call, from any mrcodes module that binds the
    oracle, as (the set, r)."""
    calls, oracle = [], progfree.verify_progression_free

    def spy(candidate, r):
        calls.append((tuple(candidate), r))
        return oracle(candidate, r)

    for info in pkgutil.iter_modules(mrcodes.__path__):
        module = importlib.import_module(f"mrcodes.{info.name}")
        if hasattr(module, "verify_progression_free"):
            monkeypatch.setattr(module, "verify_progression_free", spy)
    monkeypatch.setattr(mrcodes, "verify_progression_free", spy)
    return calls


@pytest.mark.parametrize("r,q", [(2, 101), (2, 1601), (2, 500009), (3, 5003),
                                 (14, 4294967291)])
def test_construct_checks_the_chosen_set_once(monkeypatch, r, q):
    # d = 2 (exhaustive), 33 (capped search beats the digits), 10416 (the
    # digits win) and 23 (exhaustive): each path proves only the D it keeps.
    # On both sides of the kernel guard ((14, 4294967291) at n = 60 is past
    # it) the certificate runs no second oracle on that D
    calls = _spy_oracle(monkeypatch)
    code, report = construct(r, q)
    assert report.ok
    assert report.mode == "certificate"
    assert calls == [(code.family.D.elements, r)]
    # the cache keeps which set is largest, not a proof: a second construct,
    # on a warm cache, proves its D again
    again, _ = construct(r, q)
    assert again.family.D == code.family.D
    assert calls == [(code.family.D.elements, r)] * 2


@pytest.mark.parametrize("d,r,expected", [
    (52174, 14, None),  # (14, 4294967291): the 4-element digit set ties the capped set
    (25, 30, (1, 2)),   # digit range {0}: ParamsTooSmall, the capped set
])
def test_choose_set_runs_no_oracle(monkeypatch, d, r, expected):
    calls = _spy_oracle(monkeypatch)
    chosen = progfree._choose_set(d, r)
    assert calls == []
    if expected is None:
        assert chosen.method == "alon" and len(chosen) == len(exhaustive_best(24, r)) == 4
    else:
        assert chosen.method == "exhaustive" and chosen.elements == expected


def test_construct_refuses_the_largest_field_before_the_oracle(monkeypatch):
    # q = 2^32 - 5, r = 2: the 5170-element digit set gives n = 15510, which
    # the length bound refuses before the set oracle walks its 13.4 M multisets
    calls = _spy_oracle(monkeypatch)
    with pytest.raises(TooLarge, match="^n=15510 exceeds the desk-scale bound 1000$"):
        construct(2, 4294967291)
    assert calls == []


def test_construct_raises_bad_set_when_the_oracle_rejects(monkeypatch):
    # construct's only set check is the family's, so its refusal is BadSet
    monkeypatch.setattr(mrcodes.family, "verify_progression_free", lambda candidate, r: (1, 3, 2))
    with pytest.raises(BadSet, match="fails the defining equation for r=2"):
        construct(2, 101)


@pytest.mark.parametrize("r,message", [(True, "r=True is not an int"),
                                       ("x", "r='x' is not an int"), (1, "r must be >= 2")])
def test_scaling_table_checks_r_with_no_q(r, message):
    # r is checked once before the rows, so an empty q_list is no way round it
    for q_list in ([], ()):
        with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
            scaling_table(r, q_list)


def test_scaling_table_fixed_r():
    # the list crosses the exhaustive-to-digit-construction threshold at d>24
    rows = scaling_table(2, [101, 211, 401, 809, 1601, 3203])
    assert rows[0]["q"] == 101 and rows[0]["n"] == 6
    assert rows[0]["log_q_over_log_n"] == pytest.approx(math.log(101) / math.log(6))
    ns = [row["n"] for row in rows]
    assert ns == sorted(ns)  # n monotone in q for fixed r
    ratios = [row["log_q_over_log_n"] for row in rows]
    assert ratios[-1] < ratios[0]  # ratio decreases as q grows, r fixed
    assert all("indicative" in row["note"] for row in rows)


def test_scaling_rows_match_constructs_on_a_cold_cache(monkeypatch):
    # one call reuses r = 2's sweep across the rows, and each q still gets
    # its own D: each row's code is the one a cleared cache builds
    built, real = [], pipeline.construct

    def spy(r, q):
        code, report = real(r, q)
        built.append(code_to_dict(code))
        return code, report

    monkeypatch.setattr(pipeline, "construct", spy)
    rows = scaling_table(2, [1601, 500009, 1601, 101])
    assert [row["n"] for row in rows] == [30, 36, 30, 6]
    for row, spec in zip(rows, built, strict=True):
        progfree._sizes.cache_clear()
        progfree._best.cache_clear()
        code, report = real(2, row["q"])
        assert code_to_dict(code) == spec
        assert (code.n, report.mode) == (row["n"], row["verification"])


def test_simulate_wrong_decode_raises(monkeypatch):
    code, _ = construct(2, 101)
    real_decode = pipeline.decode

    def wrong(code, received):
        message = real_decode(code, received)
        return [code.field.element(message[0].value + 1)] + message[1:]

    monkeypatch.setattr(pipeline, "decode", wrong)
    with pytest.raises(PropertyViolation, match="decode returned"):
        simulate(code, 0.3, 50, seed=1)
