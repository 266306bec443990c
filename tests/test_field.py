import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

import mrcodes.field
from mrcodes.errors import (BadParams, DivisionByZero, FieldMismatch, FieldTooLarge, NotPrime,
                            PropertyViolation)
from mrcodes.field import Field, is_prime, make_field


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


def test_is_prime_matches_trial_division():
    # below 41^2 = 1681 the trial division by the witnesses decides alone
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert [n for n in range(-2, 5000) if is_prime(n) != trial(n)] == []


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


@pytest.mark.parametrize("q", [3, 101, 500009, 4294967291])
def test_field_is_its_q(q):
    f = Field(q)
    assert f == make_field(q) and f.N == q - 1
    # the factors are the distinct primes of N, ascending, and gamma is the
    # least element of order N
    rest = f.N
    for p in f.factorization_of_N:
        assert is_prime(p) and rest % p == 0
        while rest % p == 0:
            rest //= p
    assert rest == 1 and list(f.factorization_of_N) == sorted(set(f.factorization_of_N))
    assert f.gamma == next(g for g in range(2, q)
                           if all(pow(g, f.N // p, q) != 1 for p in f.factorization_of_N))


@pytest.mark.parametrize("name,value", [("gamma", 3), ("N", 100),
                                        ("factorization_of_N", (2, 5))])
def test_field_derived_values_cannot_be_replaced(name, value):
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(make_field(101), **{name: value})


@pytest.mark.parametrize("q", [101.0, "101", True, None, 101 + 0j])
def test_field_rejects_a_q_that_is_not_an_int(q):
    with pytest.raises(BadParams, match="is not an int"):
        make_field(q)


def test_add_mul_examples():
    f = make_field(13)
    assert f.element(7) - f.element(9) == 11
    assert f.element(0) * f.element(11) == 0
    g = make_field(101)
    assert g.element(100) * g.element(95) == 6  # 9500 mod 101


@pytest.mark.parametrize("apply", [
    lambda a: a + 1.5, lambda a: 1.5 + a, lambda a: a * "x", lambda a: None * a,
    lambda a: a - None, lambda a: a / 2.0, lambda a: a * 2.0, lambda a: 1.5 - a,
    lambda a: 2.0 / a, lambda a: True + a, lambda a: a - True,
    lambda a: a ** True, lambda a: a ** 0.5, lambda a: (a - a) ** 0.5, lambda a: a ** "2",
    lambda a: a + 1, lambda a: 5 * a, lambda a: a * 5, lambda a: 5 - a, lambda a: -a,
    lambda a: a / a, lambda a: a ** 2, lambda a: a + a,
], ids=["add", "radd", "mul", "rmul", "sub", "truediv", "mul-float", "rsub", "rtruediv",
        "radd-bool", "sub-bool", "pow-bool", "pow-float", "zero-pow-float", "pow-str",
        "add-int", "rmul-int", "mul-int", "rsub-int", "neg", "truediv-element", "pow-int",
        "add-element"])
def test_foreign_operand_is_type_error(apply):
    # an element has only * and - with another element of its field (and
    # inv): every other operator and operand, ints included, gets Python's
    # own TypeError naming the operand types, not an error from inside
    with pytest.raises(TypeError, match="'FieldElement'"):
        apply(make_field(13).element(3))


@pytest.mark.parametrize("value", [5.5, True, "5"])
def test_element_refuses_a_value_that_is_not_an_int(value):
    with pytest.raises(BadParams, match="is not an int"):
        make_field(13).element(value)


def test_field_mismatch():
    a = make_field(13).element(1)
    b = make_field(17).element(1)
    with pytest.raises(FieldMismatch):
        a * b
    with pytest.raises(FieldMismatch):
        a - b


def test_inv():
    g = make_field(101)
    assert g.one.inv() == 1
    assert g.element(14).inv() == 65
    assert (g.element(14) * g.element(65)) == 1
    with pytest.raises(DivisionByZero):
        g.zero.inv()


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


@given(st.integers(1, 100), st.integers(1, 100))
def test_inv_multiplicative(a, b):
    x, y = _F.element(a), _F.element(b)
    assert (x * y).inv() == x.inv() * y.inv()
