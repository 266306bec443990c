import math
from fractions import Fraction

import pytest

from mrcodes import pipeline
from mrcodes.errors import FieldTooSmall, PropertyViolation, TargetUnreachable
from mrcodes.pipeline import (choose_params, construct, exact_failure_probability,
                              scaling_table, simulate)


def test_choose_params_r2_q101():
    p = choose_params(2, 101)
    assert p.lam == Fraction(1, 16) and p.delta == Fraction(1, 48)
    assert p.l == 6 and p.d == 2


def test_choose_params_r3_q653():
    p = choose_params(3, 653)
    assert p.lam == Fraction(1, 54) and p.delta == Fraction(1, 216)
    assert p.l == 12 and p.d == 3


def test_choose_params_field_too_small():
    with pytest.raises(FieldTooSmall):
        choose_params(3, 101)  # d = floor(100/216) = 0


def test_construct_r2():
    code, report = construct(2, 101)
    assert (code.n, code.k) == (6, 3)
    assert report.ok and report.mode == "exhaustive"
    assert code.field.q >= code.k + 1  # sanity floor


def test_construct_trimmed():
    code, report = construct(2, 101, target_n=3)
    assert code.n == 3
    assert len(code.repair_groups) == 1
    assert report.ok


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


def test_exact_failure_probability_matches_hand_count():
    code, _ = construct(2, 101)
    # independent count: incorrectable patterns by survivor-rank definition,
    # via inclusion over sizes with is_correctable already unit-tested; here
    # assert the two obvious endpoints and monotonicity in p
    assert exact_failure_probability(code, 0.0) == 0.0
    assert exact_failure_probability(code, 1.0) == 1.0
    assert (exact_failure_probability(code, 0.05)
            < exact_failure_probability(code, 0.2))


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


def test_simulate_wrong_decode_raises(monkeypatch):
    code, _ = construct(2, 101)
    real_decode = pipeline.decode

    def wrong(code, received):
        message = real_decode(code, received)
        return [message[0] + 1] + message[1:]

    monkeypatch.setattr(pipeline, "decode", wrong)
    with pytest.raises(PropertyViolation, match="decode returned"):
        simulate(code, 0.3, 50, seed=1)
