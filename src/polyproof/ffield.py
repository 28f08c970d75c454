"""Prime-field arithmetic and seeded sampling of evaluation points.

The field is GF(p) for a configurable prime 3 <= p < 2**63.  The default
modulus is the Mersenne prime 2**61 - 1, which keeps every product inside
128-bit intermediates while leaving the collision budget d/p tiny.
``FieldElem`` holds the values of sampled points, assignment files and
``MPoly.eval``; the replay computes on plain ints (``encmat.FieldRing``).

Evaluation points are drawn uniformly from [2, p): 0 would make the
elementary matrices singular and 1 collapses them to unipotent form, so
both values are excluded from the sampling domain.  The stream is fully
deterministic from a 32-byte seed:

    candidate_i = SHA-256(seed || counter_i as 8 big-endian bytes),
    take the first 8 digest bytes as a big-endian integer, mask it to
    p.bit_length() bits, accept when < p - 2, output 2 + candidate.

Rejected candidates advance the counter, so identical seeds always yield
identical point sequences.
"""

from __future__ import annotations

import functools
import hashlib

MERSENNE61 = (1 << 61) - 1

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ZeroInverse(ArithmeticError):
    """Attempt to invert (or divide by) zero."""


@functools.lru_cache  # a process asks about one or two moduli, on every field it builds
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime modulus p with 3 <= p < 2**63."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not 3 <= p < (1 << 63):
            raise ValueError(f"modulus must satisfy 3 <= p < 2**63, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def elem(self, value: int) -> "FieldElem":
        return FieldElem(value % self.p, self)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


class FieldElem:
    """A value in [0, p) tied to its field; plain immutable arithmetic.

    Operands are not checked: one run holds elements of one field only.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.p
        self.field = field

    def __add__(self, other):
        return FieldElem(self.value + other.value, self.field)

    def __sub__(self, other):
        return FieldElem(self.value - other.value, self.field)

    def __mul__(self, other):
        return FieldElem(self.value * other.value, self.field)

    def __neg__(self):
        return FieldElem(-self.value, self.field)

    def inv(self) -> "FieldElem":
        if self.value == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return FieldElem(pow(self.value, self.field.p - 2, self.field.p), self.field)

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field.p == other.field.p and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.field.p))

    def __repr__(self):
        return f"{self.value}"


class PointSampler:
    """Deterministic stream of field points uniform over [2, p)."""

    def __init__(self, seed: bytes, field: PrimeField):
        if len(seed) != 32:
            raise ValueError(f"seed must be exactly 32 bytes, got {len(seed)}")
        self.seed = seed
        self.field = field
        self.counter = 0
        self._mask = (1 << field.p.bit_length()) - 1

    def next(self) -> FieldElem:
        bound = self.field.p - 2
        while True:
            digest = hashlib.sha256(
                self.seed + self.counter.to_bytes(8, "big")
            ).digest()
            self.counter += 1
            candidate = int.from_bytes(digest[:8], "big") & self._mask
            if candidate < bound:
                return FieldElem(2 + candidate, self.field)
