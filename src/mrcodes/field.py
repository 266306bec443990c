"""Exact arithmetic in prime fields GF(q); elements are residues mod q.

A Field is its q: N = q - 1, the distinct prime factors of N and the
primitive element gamma are derived from q when the Field is made.  gamma is
the least residue >= 2 that generates the cyclic multiplicative group of
order N, so fixtures are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (BadParams, DivisionByZero, FieldMismatch, FieldTooLarge, NotPrime,
                     PropertyViolation)

# q*q must fit in an unsigned 64-bit intermediate; larger moduli are rejected
# because the exhaustive verifiers dominate long before that anyway.
MAX_Q = 1 << 32

# Witnesses giving a deterministic Miller-Rabin test for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 37, the largest witness
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)


def _check_int(name: str, value) -> None:
    """BadParams unless value is an int (bool excluded)."""
    if type(value) is not int:
        raise BadParams(f"{name}={value!r} is not an int")


@dataclass(frozen=True)
class Field:
    q: int
    N: int = dc_field(init=False, repr=False)
    gamma: int = dc_field(init=False, repr=False)
    factorization_of_N: tuple[int, ...] = dc_field(init=False, repr=False)

    def __post_init__(self):
        q = self.q
        _check_int("q", q)
        if q > MAX_Q:
            raise FieldTooLarge(f"q={q} exceeds the 64-bit intermediate bound (q <= 2^32)")
        if q < 3 or not is_prime(q):
            raise NotPrime(f"q={q} is not an odd prime >= 3")
        factors = distinct_prime_factors(q - 1)
        # g generates GF(q)* when no g^(N/p), p a prime factor of N, is 1
        gamma = next((g for g in range(2, q)
                      if all(pow(g, (q - 1) // p, q) != 1 for p in factors)), None)
        if gamma is None:
            raise PropertyViolation(f"no primitive element found for q={q}; unreachable for prime q")
        for name, value in (("N", q - 1), ("gamma", gamma), ("factorization_of_N", factors)):
            object.__setattr__(self, name, value)

    def element(self, value: int) -> "FieldElement":
        _check_int("value", value)
        return FieldElement(value % self.q, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)


def make_field(q: int) -> Field:
    """Build GF(q) for prime q >= 3, with the smallest primitive element."""
    return Field(q)


@dataclass(frozen=True)
class FieldElement:
    value: int
    field: Field

    def __post_init__(self):
        try:
            if 0 <= self.value < self.field.q:
                return
        except (TypeError, AttributeError):  # not a number, or not a Field
            raise BadParams(f"FieldElement({self.value!r}, {self.field!r}) needs an int "
                            f"residue and a Field") from None
        raise BadParams(f"residue {self.value} out of range for q={self.field.q}")

    def _coerce(self, other):
        """other's residue mod q, or NotImplemented (so Python raises
        TypeError) when other is neither an int (bool excluded) nor a
        FieldElement."""
        if isinstance(other, FieldElement):
            if other.field.q != self.field.q:
                raise FieldMismatch(f"GF({self.field.q}) vs GF({other.field.q})")
            return other.value
        if type(other) is int:
            return other % self.field.q
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return (v if v is NotImplemented
                else FieldElement((self.value + v) % self.field.q, self.field))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return (v if v is NotImplemented
                else FieldElement((self.value - v) % self.field.q, self.field))

    def __rsub__(self, other):
        v = self._coerce(other)
        return (v if v is NotImplemented
                else FieldElement((v - self.value) % self.field.q, self.field))

    def __mul__(self, other):
        v = self._coerce(other)
        return (v if v is NotImplemented
                else FieldElement(self.value * v % self.field.q, self.field))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.q, self.field)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZero("inverse of 0")
        return FieldElement(pow(self.value, self.field.q - 2, self.field.q), self.field)

    def __pow__(self, e: int) -> "FieldElement":
        if type(e) is not int:
            return NotImplemented
        if self.value == 0:
            if e < 0:
                raise DivisionByZero("0 to a negative power")
            return FieldElement(0 if e else 1, self.field)
        return FieldElement(pow(self.value, e % self.field.N, self.field.q), self.field)

    def __truediv__(self, other):
        v = self._coerce(other)
        return v if v is NotImplemented else self * FieldElement(v, self.field).inv()

    def __rtruediv__(self, other):
        v = self._coerce(other)
        return v if v is NotImplemented else self.inv() * v

    def __eq__(self, other):
        # an int equals only its canonical residue, so equal objects hash
        # alike: f.element(5) == 5 and 5 in {f.element(5)}, but != 106
        if isinstance(other, FieldElement):
            return self.value == other.value and self.field.q == other.field.q
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"GF{self.field.q}({self.value})"
