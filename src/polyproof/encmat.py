"""Upper-triangular 2x2 matrices over a pluggable coefficient ring.

Only the entries (1,1), (1,2) and (2,2) are stored, as ``a``, ``b`` and
``d``; the (2,1) entry is zero by construction and cannot be falsified.
The same matrix type serves two rings: exact polynomials (``SymbolicRing``)
and ints in [0, p) under a fixed variable assignment (``FieldRing``).  Matrix
``+``, ``-`` and ``*`` do not reduce mod p; the ring's ``reduce`` does.

The elementary matrix of a variable v is A(v) = [[x_v, 1], [0, 1]].
Products of elementary matrices embed sequences of variables faithfully:
the sequence can be recovered from the product, which
``factor_elementary_product`` does constructively by peeling left factors
with exact division, one factor per step and without search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping

from .ffield import FieldElem, PrimeField, ZeroInverse
from .mpoly import MPoly, MissingAssignment, NotDivisible, VarId


class NotAProduct(Exception):
    """The matrix is not a product of elementary matrices."""


@dataclass(frozen=True)
class EncMatrix:
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

    def __mod__(self, p: int) -> "EncMatrix":
        return EncMatrix(self.a % p, self.b % p, self.d % p)

    def __str__(self):
        return f"[{self.a}, {self.b}, {self.d}]"


class SymbolicRing:
    """Coefficients are exact integer polynomials."""

    def var(self, v: VarId) -> MPoly:
        return MPoly.var(v)

    def zero(self) -> MPoly:
        return MPoly.zero()

    def one(self) -> MPoly:
        return MPoly.one()

    lincomb = staticmethod(MPoly.lincomb)
    const = staticmethod(MPoly.const)

    def dot(self, groups) -> MPoly:  # the sum of x * (sum of es) over (polynomial x, es)
        return MPoly.lincomb([(1, [x * MPoly.lincomb([(1, es)]) for x, es in groups])])

    def reduce(self, x):  # an entry or a matrix; exact, so nothing to reduce
        return x

    def div_by_var(self, x: MPoly, v: VarId) -> MPoly:
        return x.div_exact_by_var(v)


class FieldRing:
    """Coefficients are ints in [0, p) under a fixed variable assignment; the
    inverse of each divisor is computed once per ring, so once per run."""

    def __init__(self, field: PrimeField, values: Mapping[VarId, FieldElem]):
        self.p = field.p
        self.values = {v: e.value for v, e in values.items()}
        self._inverse = {}

    def var(self, v: VarId) -> int:
        try:
            return self.values[v]
        except KeyError:
            raise MissingAssignment(v) from None

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def reduce(self, x):  # an entry or a matrix, into [0, p)
        return x % self.p

    def lincomb(self, groups) -> int:  # the sum of c * (sum of es) over (c, es), reduced once
        return sum(c * sum(es) for c, es in groups) % self.p

    const, dot = reduce, lincomb  # elements are ints: const reduces n, and dot's x acts as a c

    def div_by_var(self, x: int, v: VarId) -> int:
        if v not in self._inverse:
            if not self.var(v):
                raise ZeroInverse("0 has no multiplicative inverse")
            self._inverse[v] = pow(self.var(v), -1, self.p)
        return x * self._inverse[v] % self.p


def elem(v: VarId, ring) -> EncMatrix:
    """The elementary matrix A(v) = [[x_v, 1], [0, 1]] over the given ring."""
    return EncMatrix(ring.var(v), ring.one(), ring.one())


def identity(ring) -> EncMatrix:
    return EncMatrix(ring.one(), ring.zero(), ring.one())


def zero_matrix(ring) -> EncMatrix:
    return EncMatrix(ring.zero(), ring.zero(), ring.zero())


def elem_inv_mul(v: VarId, m: EncMatrix, ring) -> EncMatrix:
    """Left-multiply by A(v)^-1, staying inside the coefficient ring.

    A(v)^-1 = (1/x_v) * [[1, -1], [0, x_v]], so the result is
    (a / x_v, (b - d) / x_v, d).  In the symbolic ring the divisions are
    exact or raise NotDivisible, which signals a malformed step.
    """
    return EncMatrix(
        ring.div_by_var(m.a, v),
        ring.div_by_var(m.b - m.d, v),
        ring.reduce(m.d),
    )


def product_of(vars_seq, ring) -> EncMatrix:
    """A(v1) A(v2) ... A(vn); the identity for the empty sequence."""
    result = identity(ring)
    for v in vars_seq:
        result = result * elem(v, ring)
    return result


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
