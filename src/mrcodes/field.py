"""Prime fields GF(q); elements are residues mod q.

A Field is its q.  When it is made, trial division by 2, 3 and the
6k +- 1, about 2^16/3 candidates each as q <= MAX_Q, proves q prime and
finds the distinct prime factors of N = q - 1, and gamma is the least
residue >= 2 that generates the cyclic multiplicative group of order N,
so fixtures are reproducible.

The codec computes on ints mod q.  A FieldElement keeps only the arithmetic
the decoder's row reduction (mrcode._row_reduce) runs: x * y and x - y
between elements of one field, and x.inv().  Any other operand, an int
among them, gets Python's own TypeError, so int arithmetic on codec outputs
goes through .value.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (BadParams, DivisionByZero, FieldMismatch, FieldTooLarge, NotPrime,
                     PropertyViolation)

# What leans on this bound (MrCode._packed sizes its slots from q): trial
# division of q and of N tries about 2^16/3 candidates each, and every int
# of a spec but lambda's and delta's parts stays within codespec's 2^53 rule.
MAX_Q = 1 << 32


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """n's distinct prime factors, ascending; () for n < 2.  Trial division
    by 2, 3 and then only 6k - 1 and 6k + 1, which hold every larger prime."""
    factors = []
    f, step = 2, 1
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f, step = f + step, 2 if f < 5 else 6 - step  # 2, 3, 5, 7, 11, 13, 17, ...
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
            raise FieldTooLarge(f"q={q} exceeds the field-size bound q <= 2^32, which keeps "
                                "trial division short and spec ints under 2^53")
        if q < 3 or distinct_prime_factors(q) != (q,):
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
        """other's residue when other is an element of this field,
        FieldMismatch when it is one of another field, and NotImplemented
        (so Python raises TypeError) for anything else, ints included."""
        if isinstance(other, FieldElement):
            if other.field.q != self.field.q:
                raise FieldMismatch(f"GF({self.field.q}) vs GF({other.field.q})")
            return other.value
        return NotImplemented

    def __sub__(self, other):
        v = self._coerce(other)
        return (v if v is NotImplemented
                else FieldElement((self.value - v) % self.field.q, self.field))

    def __mul__(self, other):
        v = self._coerce(other)
        return (v if v is NotImplemented
                else FieldElement(self.value * v % self.field.q, self.field))

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZero("inverse of 0")
        return FieldElement(pow(self.value, -1, self.field.q), self.field)

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
