"""Upper-triangular 2x2 matrices over a pluggable coefficient ring.

Only the entries (1,1), (1,2) and (2,2) are stored, as the named tuple
``(a, b, d)``; the (2,1) entry is zero by construction and cannot be
falsified.
Entries are exact polynomials (``SymbolicRing``) or ints in [0, p), the
values at one point (``FieldRing``).  For ``fingerprint``'s mp and subst
each ring builds a result matrix in one call: ``matrix(a, b, d)`` reduces
the entries, and ``peel(v, a, b, d)`` divides ``a`` and ``b`` by x_v.
Matrix ``+``, ``-`` and ``*`` do not reduce mod p; ``matrix(m.a, m.b, m.d)``
does.

The elementary matrix of a variable v is A(v) = [[x_v, 1], [0, 1]].
Products of elementary matrices embed sequences of variables faithfully:
the sequence can be recovered from the product, which
``factor_elementary_product`` does constructively by peeling left factors
with exact division, one factor per step and without search.  The package
only factors such products; the tests build them (``elem``, ``identity`` and
``product_of`` in ``tests/conftest.py``) as the reference the encoding is
checked against.
"""

from __future__ import annotations

from typing import Any, List, Mapping, NamedTuple

from .ffield import FieldElem, PrimeField, ZeroInverse
from .mpoly import BUDGET_BITS, MPoly, MissingAssignment, NotDivisible, VarId


class NotAProduct(Exception):
    """The matrix is not a product of elementary matrices."""


class EncMatrix(NamedTuple):
    a: Any
    b: Any
    d: Any

    def __add__(self, other: "EncMatrix") -> "EncMatrix":
        return EncMatrix(self.a + other.a, self.b + other.b, self.d + other.d)

    def __sub__(self, other: "EncMatrix") -> "EncMatrix":
        return EncMatrix(self.a - other.a, self.b - other.b, self.d - other.d)

    def __mul__(self, other: "EncMatrix") -> "EncMatrix":
        # [[a1,b1],[0,d1]] @ [[a2,b2],[0,d2]]; multiplication is non-commutative.
        return EncMatrix(
            self.a * other.a,
            self.a * other.b + self.b * other.d,
            self.d * other.d,
        )

    def __str__(self):
        return f"[{self.a}, {self.b}, {self.d}]"


class SymbolicRing:
    """Coefficients are exact integer polynomials.  Polynomials are immutable,
    so a ring builds each x_v, 1 and 0 once and hands out the same value.
    One ring serves one run: ``room`` counts the packed bits its walks may still create."""

    def __init__(self):
        self._var = {}
        self._one, self._zero = MPoly.one(), MPoly.zero()
        self.room = BUDGET_BITS

    def var(self, v: VarId) -> MPoly:
        x = self._var.get(v)
        if x is None:
            x = self._var[v] = MPoly.var(v)
        return x

    def zero(self) -> MPoly:
        return self._zero

    def one(self) -> MPoly:
        return self._one

    def matrix(self, a: MPoly, b: MPoly, d: MPoly) -> EncMatrix:
        return EncMatrix(a, b, d)

    def peel(self, v: VarId, a: MPoly, b: MPoly, d: MPoly) -> EncMatrix:
        """(a / x_v, b / x_v, d), each division exact or raising NotDivisible."""
        return EncMatrix(a.div_exact_by_var(v), b.div_exact_by_var(v), d)


class FieldRing:
    """Coefficients are ints in [0, p) under a fixed variable assignment.  One
    ring serves one run, so what the run reuses is computed once and kept
    here: the inverse of each divisor, and the empty helper map of
    ``fingerprint``'s field walk."""

    def __init__(self, field: PrimeField, values: Mapping[VarId, FieldElem]):
        self.p = field.p
        self.values = {v: e.value for v, e in values.items()}
        self._inverse = {}
        self.no_helpers = None  # the empty fingerprint.Helpers, set by its first fingerprint

    def var(self, v: VarId) -> int:
        try:
            return self.values[v]
        except KeyError:
            raise MissingAssignment(v) from None

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def matrix(self, a: int, b: int, d: int) -> EncMatrix:
        return EncMatrix(a % self.p, b % self.p, d % self.p)

    def peel(self, v: VarId, a: int, b: int, d: int) -> EncMatrix:
        """(a / x_v, b / x_v, d) mod p, through the run's one inverse of x_v."""
        inverse = self._inverse.get(v)
        if inverse is None:
            if not self.var(v):
                raise ZeroInverse("0 has no multiplicative inverse")
            inverse = self._inverse[v] = pow(self.var(v), -1, self.p)
        p = self.p
        return EncMatrix(a * inverse % p, b * inverse % p, d % p)


def zero_matrix(ring) -> EncMatrix:
    return EncMatrix(ring.zero(), ring.zero(), ring.zero())


def elem_inv_mul(v: VarId, m: EncMatrix, ring) -> EncMatrix:
    """Left-multiply by A(v)^-1, staying inside the coefficient ring.

    A(v)^-1 = (1/x_v) * [[1, -1], [0, x_v]], so the result is
    (a / x_v, (b - d) / x_v, d).  In the symbolic ring the divisions are
    exact or raise NotDivisible, which signals a malformed step.
    """
    return ring.peel(v, m.a, m.b - m.d, m.d)


def factor_elementary_product(m: EncMatrix) -> List[VarId]:
    """Recover the unique sequence s with m == A(s[0]) ... A(s[-1]).

    Each step peels the first variable of the (1,1) monomial whose
    ``elem_inv_mul`` divides exactly, until the identity is left.  No
    search is needed: for a product of n >= 2 factors, b - d contains the
    monomial x_s[0], which only s[0] divides, and for n = 1 the monomial
    has one variable.  So on a product every peel is forced and leaves a
    product, and a failure at any step means that no factorization exists.
    """
    if not isinstance(m.a, MPoly):
        raise TypeError("factorization works on symbolic matrices")
    ring = SymbolicRing()
    if m.d != ring.one():
        raise NotAProduct("(2,2) entry of an elementary product is 1")
    sequence = []
    while m.a != ring.one():
        single = m.a.single_monomial()
        if single is None or single[1] != 1:
            raise NotAProduct("(1,1) entry is not a monic monomial")
        for v, _exp in single[0]:
            try:
                m = elem_inv_mul(v, m, ring)
                break
            except NotDivisible:
                continue
        else:
            raise NotAProduct("no elementary left factor divides the matrix")
        sequence.append(v)
    if m.b != ring.zero():
        raise NotAProduct("identity candidate has nonzero (1,2) entry")
    return sequence
