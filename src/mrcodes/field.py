"""Exact arithmetic in prime fields GF(q) with a verified primitive element.

Elements are residues mod q.  The multiplicative group is cyclic of order
N = q - 1 and is generated by the stored primitive element gamma, which is
always the least residue >= 2 passing the primitivity test (so fixtures are
reproducible).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisionByZero, FieldMismatch, FieldTooLarge, NotPrime, PropertyViolation

# q*q must fit in an unsigned 64-bit intermediate; larger moduli are rejected
# because the exhaustive verifiers dominate long before that anyway.
MAX_Q = 1 << 32

# Witnesses giving a deterministic Miller-Rabin test for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
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


@dataclass(frozen=True)
class Field:
    q: int
    N: int
    gamma: int
    factorization_of_N: tuple[int, ...]

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.q, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def gamma_pow(self, exponent: int) -> "FieldElement":
        """gamma**exponent, exponent reduced mod N."""
        return FieldElement(pow(self.gamma, exponent % self.N, self.q), self)

    def minus_one_pow(self, exponent: int) -> "FieldElement":
        """(-1)**exponent as a field element."""
        return FieldElement(1 if exponent % 2 == 0 else self.q - 1, self)

    def __repr__(self) -> str:
        return f"Field(q={self.q}, gamma={self.gamma})"


def make_field(q: int) -> Field:
    """Build GF(q) for prime q >= 3, with the smallest primitive element."""
    if q > MAX_Q:
        raise FieldTooLarge(f"q={q} exceeds the 64-bit intermediate bound (q <= 2^32)")
    if q < 3 or not is_prime(q):
        raise NotPrime(f"q={q} is not an odd prime >= 3")
    N = q - 1
    factors = distinct_prime_factors(N)
    for g in range(2, q):
        if all(pow(g, N // f, q) != 1 for f in factors):
            return Field(q=q, N=N, gamma=g, factorization_of_N=factors)
    raise PropertyViolation(f"no primitive element found for q={q}; unreachable for prime q")


@dataclass(frozen=True)
class FieldElement:
    value: int
    field: Field

    def __post_init__(self):
        if not 0 <= self.value < self.field.q:
            raise ValueError(f"residue {self.value} out of range for q={self.field.q}")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.q != self.field.q:
                raise FieldMismatch(f"GF({self.field.q}) vs GF({other.field.q})")
            return other
        if isinstance(other, int):
            return FieldElement(other % self.field.q, self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement((self.value + other.value) % self.field.q, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement((self.value - other.value) % self.field.q, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.value * other.value % self.field.q, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.q, self.field)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZero("inverse of 0")
        return FieldElement(pow(self.value, self.field.q - 2, self.field.q), self.field)

    def __pow__(self, e: int) -> "FieldElement":
        if self.value == 0:
            if e < 0:
                raise DivisionByZero("0 to a negative power")
            return FieldElement(0 if e else 1, self.field)
        return FieldElement(pow(self.value, e % self.field.N, self.field.q), self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

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
