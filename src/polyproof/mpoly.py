"""Exact sparse multivariate polynomials over unbounded integers.

Variables are identified by non-negative integer ids.  A monomial is a
tuple of (var, exponent) pairs sorted strictly ascending by var with all
exponents >= 1; the empty tuple is the constant monomial.  A polynomial is
a map from monomials to nonzero integer coefficients, so two values are
equal exactly when their term maps are equal and the zero polynomial is
the empty map.  ``MPoly(terms)`` drops zero coefficients.  The private
``MPoly._of(terms)`` skips that filter and owns ``terms``, which must hold
no zero: the constructors but ``const``, the ring operations (which drop a
monomial as it cancels) and ``div_exact_by_var`` build through it.  Values
are immutable, so they may be shared.  The module imports nothing from the
package: the field replay computes on ints, so evaluating a polynomial at a
point and its total degree are the tests' oracles (``tests/conftest.py``).

Coefficients are Python ints on purpose: repeated sums in the matrix
encoding grow entries without bound (one entry counts tree nodes), and a
fixed-width type would overflow silently.

Text form, produced by ``render`` and accepted by ``parse`` (whitespace
may surround any token):

    poly   := [ "+" | "-" ] term { ("+" | "-") term }
    term   := factor { "*" factor }
    factor := integer | name [ "^" integer ]    # integer: 1 to 4300 digits

Nothing nests, so the grammar is regular: ``parse`` checks a text with one
regular expression.  ``render`` orders terms by total degree descending,
ties broken by comparing monomials lexicographically.  The default
variable name for id k is ``X<k>``, e.g. ``2*X3^2*X5 + X1 - 4``.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

VarId = int


class NotDivisible(ArithmeticError):
    """Exact division by a variable failed: some monomial lacks it."""


class MissingAssignment(ValueError):
    """A variable that is read has no assigned value (var: id or display name)."""

    def __init__(self, var: VarId | str):
        super().__init__(f"no value assigned for variable {var}")
        self.var = var


class MPoly:
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[dict] = None):
        self._terms = {m: c for m, c in (terms or {}).items() if c != 0}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict) -> "MPoly":
        """The polynomial owning ``terms``, which must hold no zero coefficient."""
        poly = object.__new__(cls)
        poly._terms, poly._hash = terms, None
        return poly

    @classmethod
    def zero(cls) -> "MPoly":
        return cls._of({})

    @classmethod
    def one(cls) -> "MPoly":
        return cls._of({(): 1})

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls({(): c})

    @classmethod
    def var(cls, v: VarId, exp: int = 1) -> "MPoly":
        if v < 0 or exp < 1:
            raise ValueError("variable ids are >= 0 and exponents >= 1")
        return cls._of({((v, exp),): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return MPoly._of(terms)

    def __neg__(self) -> "MPoly":
        return MPoly._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        terms: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = mono_mul(m1, m2)
                s = terms.get(mono, 0) + c1 * c2
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return MPoly._of(terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"MPoly({self.render()})"

    # -- queries -----------------------------------------------------------

    def single_monomial(self):
        """(monomial, coefficient) when the polynomial has one term, else None."""
        if len(self._terms) != 1:
            return None
        return next(iter(self._terms.items()))

    # -- the operations the matrix layer builds on --------------------------

    def div_exact_by_var(self, v: VarId) -> "MPoly":
        """Quotient q with q * X_v == self; every monomial must contain X_v."""
        terms = {}
        for m, c in self._terms.items():
            reduced = []
            found = False
            for var, e in m:
                if var == v:
                    found = True
                    if e > 1:
                        reduced.append((var, e - 1))
                else:
                    reduced.append((var, e))
            if not found:
                raise NotDivisible(f"monomial lacks variable {v}")
            terms[tuple(reduced)] = c
        return MPoly._of(terms)

    # -- text form -----------------------------------------------------------

    def render(self, names: Optional[Mapping[VarId, str]] = None) -> str:
        if not self._terms:
            return "0"

        def name(v):
            if names is not None:
                return names[v]
            return f"X{v}"

        ordered = sorted(
            self._terms.items(),
            key=lambda item: (-sum(e for _, e in item[0]), item[0]),
        )
        out = []
        for i, (m, c) in enumerate(ordered):
            factors = "*".join(
                name(v) if e == 1 else f"{name(v)}^{e}" for v, e in m
            )
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = f"{mag}*{factors}"
            if i == 0:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(out)

    @classmethod
    def parse(cls, text: str, names: Optional[dict] = None) -> "MPoly":
        """Parse the render grammar back into a polynomial.

        With ``names`` (a map from variable name to id), each name not yet
        in the map gets the next free id, in order of first appearance.
        Without a map only the default ``X<k>`` names are accepted.
        """
        whole = _POLY.match(text)
        if whole is None or whole.end() < len(text):
            pos = whole.end() if whole else 0
            raise ValueError(f"malformed polynomial at offset {pos}: {text[pos:pos + 8]!r}")
        terms: dict = {}
        for sign, body in _SIGNED_TERM.findall(text):
            coeff = -1 if sign == "-" else 1
            exps: dict = {}
            for digits, name, exp in _FACTOR.findall(body):
                if digits:
                    coeff *= int(digits)
                    continue
                if names is not None:
                    if name not in names:
                        names[name] = max(names.values(), default=-1) + 1
                    vid = names[name]
                elif name[0] == "X" and name[1:].isdecimal():
                    vid = int(name[1:])
                else:
                    raise ValueError(f"unknown variable name {name!r}")
                exps[vid] = exps.get(vid, 0) + int(exp or 1)
            mono = tuple(sorted((v, e) for v, e in exps.items() if e))
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(terms)


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """The monomial m1 * m2, merged from the two sorted (var, exponent) tuples."""
    if not (m1 and m2):
        return m1 or m2
    out, i, j, n1, n2 = [], 0, 0, len(m1), len(m2)
    while i < n1 and j < n2:
        v1, v2 = m1[i][0], m2[j][0]
        if v1 < v2:
            out.append(m1[i])
            i += 1
        elif v2 < v1:
            out.append(m2[j])
            j += 1
        else:
            out.append((v1, m1[i][1] + m2[j][1]))
            i += 1
            j += 1
    return (*out, *m1[i:], *m2[j:])


def times_var(mono: tuple, v: VarId) -> tuple:
    """The monomial x_v * mono."""
    for i, (w, e) in enumerate(mono):
        if w >= v:
            return mono[:i] + ((v, e + 1 if w == v else 1),) + mono[i + (w == v):]
    return mono + ((v, 1),)


# Each token is followed by one run of whitespace and never preceded by
# one, so a failing match cannot split a run of blanks in many ways.
# int() reads 4300 digits at most: a number's, and the k of a name X<k>.
_NUMBER = r"([0-9]{1,4300})(?![0-9])"
_NAME = r"(?!X[0-9]{4301})[A-Za-z_][A-Za-z0-9_]*"
_FACTOR = re.compile(rf"{_NUMBER}|({_NAME})(?:\s*\^\s*{_NUMBER})?")
_TERM = rf"(?:{_FACTOR.pattern})\s*(?:\*\s*(?:{_FACTOR.pattern})\s*)*"
_POLY = re.compile(rf"\s*(?:[+-]\s*)?{_TERM}(?:[+-]\s*{_TERM})*")
_SIGNED_TERM = re.compile(r"\s*([+-]?)([^+-]+)")
