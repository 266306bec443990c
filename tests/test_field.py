import pytest
from hypothesis import given, strategies as st

import mrcodes.field
from mrcodes.errors import (DivisionByZero, FieldMismatch, FieldTooLarge, NotPrime,
                            PropertyViolation)
from mrcodes.field import make_field


def test_make_field_13():
    f = make_field(13)
    assert f.N == 12 and f.gamma == 2
    # independent primitivity check: 2^(12/2) and 2^(12/3) are not 1
    assert pow(2, 6, 13) == 12 and pow(2, 4, 13) == 3


def test_make_field_101():
    f = make_field(101)
    assert f.N == 100 and f.gamma == 2
    assert pow(2, 50, 101) == 100 and pow(2, 20, 101) == 95
    assert f.factorization_of_N == (2, 5)


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(12)
    with pytest.raises(NotPrime):
        make_field(1)


def test_make_field_rejects_huge():
    with pytest.raises(FieldTooLarge):
        make_field((1 << 32) + 15)


def test_no_primitive_element_is_property_violation(monkeypatch):
    # with 1 among the factors of N no candidate passes the primitivity test
    monkeypatch.setattr(mrcodes.field, "distinct_prime_factors", lambda n: (1,))
    with pytest.raises(PropertyViolation):
        make_field(101)


def test_add_mul_examples():
    f = make_field(13)
    assert f.element(7) + f.element(9) == 3
    assert f.element(0) * f.element(11) == 0
    g = make_field(101)
    assert g.element(100) * g.element(95) == 6  # 9500 mod 101


def test_field_mismatch():
    a = make_field(13).element(1)
    b = make_field(17).element(1)
    with pytest.raises(FieldMismatch):
        a + b


def test_inv():
    g = make_field(101)
    assert g.one.inv() == 1
    assert g.element(14).inv() == 65
    assert (g.element(14) * g.element(65)) == 1
    with pytest.raises(DivisionByZero):
        g.zero.inv()


def test_pow():
    g = make_field(101)
    assert g.element(2) ** 10 == 14
    assert g.element(2) ** 90 == 65  # inverse of 2^10
    assert g.element(57) ** 0 == 1
    assert g.element(2) ** -10 == (g.element(2) ** 10).inv()
    with pytest.raises(DivisionByZero):
        g.zero ** -1


def test_eq_hash_contract():
    f = make_field(101)
    five = f.element(5)
    assert five == 5 and 5 in {five} and five in {5} and {5: "x"}[five] == "x"
    assert five != 106 and 106 not in {five}
    assert hash(five) == hash(5) == hash(make_field(103).element(5))
    assert len({five, f.element(106), 5}) == 1


@pytest.mark.parametrize("q", [3, 13, 101, 653, 997])
def test_gamma_generates_full_group(q):
    f = make_field(q)
    powers = {pow(f.gamma, i, q) for i in range(f.N)}
    assert len(powers) == f.N


_F = make_field(101)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_pow_additivity(a, b):
    g = _F.element(_F.gamma)
    assert (g ** a) * (g ** b) == g ** ((a + b) % _F.N)


@given(st.integers(1, 100), st.integers(1, 100))
def test_inv_multiplicative(a, b):
    x, y = _F.element(a), _F.element(b)
    assert (x * y).inv() == x.inv() * y.inv()


@given(st.integers(0, 100), st.integers(0, 100))
def test_sub_neg_consistency(a, b):
    x, y = _F.element(a), _F.element(b)
    assert x - y == x + (-y)
