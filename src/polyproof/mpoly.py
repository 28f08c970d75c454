"""Exact sparse multivariate polynomials over unbounded integers.

Variables are non-negative integer ids.  A polynomial maps monomials to
nonzero integer coefficients, so two values are equal exactly when their
term maps are equal and zero is the empty map.  A monomial is one int, the
exponent of variable v in bits [32v, 32v + 32): the constant monomial is 0
and a product of monomials is their sum.  The top bit of each field is a
guard: exponents stay below 2^31, so a sum never carries into the next
field, and ``__mul__``, ``var``, ``parse`` and ``MPoly(terms)`` raise
``MonomialOverflow`` past it.  ``times_var`` needs no check: the walk
applies it along parsed formulas, shallower than their text is long.
A monomial takes 4 bytes per variable id up to its largest, so one
``parse`` and one run's symbolic walks pack at most ``BUDGET_BITS`` bits.
Outside the class a monomial is a tuple of (var, exponent) pairs, var
ascending and exponents positive: ``MPoly(terms)`` packs it and drops zero
coefficients; ``terms()``, ``single_monomial`` and ``render`` unpack it.
Values are immutable, so they may be shared; ``__hash__`` reads the terms
on every call, since only the tests key dicts by polynomials.  The module
imports nothing from the package: the field replay computes on ints, so
evaluating a polynomial at a point and its total degree are the tests'
oracles (``tests/conftest.py``).

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
import struct
from functools import lru_cache
from typing import Mapping, Optional

VarId = int

_WIDTH = 32  # bits per exponent field; _unpack and _guards read a field as 4 bytes
_GUARD = 1 << (_WIDTH - 1)  # exponents stay below the top bit of their field
_VARS = 1 << 20  # variable ids stay below this: a monomial takes 4 bytes per id up to its largest
BUDGET_BITS = 1 << 28  # bits of packed monomials one parse, or one run's symbolic walks, may create


class NotDivisible(ArithmeticError):
    """Exact division by a variable failed: some monomial lacks it."""


class MonomialOverflow(OverflowError, ValueError):
    """A monomial leaves the packed form, or one parse or run packs past ``BUDGET_BITS``."""


class MissingAssignment(ValueError):
    """A variable that is read has no assigned value (var: id or display name)."""

    def __init__(self, var: VarId | str):
        super().__init__(f"no value assigned for variable {var}")
        self.var = var


class MPoly:
    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        self._terms = {_pack(m): c for m, c in (terms or {}).items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict) -> "MPoly":
        """The polynomial owning packed ``terms``, which must hold no zero coefficient."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "MPoly":
        return cls._of({})

    @classmethod
    def one(cls) -> "MPoly":
        return cls._of({0: 1})

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls._of({0: c} if c else {})

    @classmethod
    def var(cls, v: VarId, exp: int = 1) -> "MPoly":
        if v < 0 or exp < 1:
            raise ValueError("variable ids are >= 0 and exponents >= 1")
        return cls._of({_pack(((v, exp),)): 1})

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
        terms, high = {}, 0  # high: every bit set in some product
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 + m2
                high |= mono
                s = terms.get(mono, 0) + c1 * c2
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        if high & _guards((high.bit_length() // _WIDTH).bit_length()):
            raise MonomialOverflow("an exponent reached 2^31")
        return MPoly._of(terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"MPoly({self.render()})"

    # -- queries -----------------------------------------------------------

    def terms(self) -> dict:
        """The term map, monomials as (var, exponent) tuples."""
        return {_unpack(m): c for m, c in self._terms.items()}

    def single_monomial(self):
        """(monomial tuple, coefficient) when the polynomial has one term, else None."""
        if len(self._terms) != 1:
            return None
        return next((_unpack(m), c) for m, c in self._terms.items())

    # -- the operations the matrix layer builds on --------------------------

    def div_exact_by_var(self, v: VarId) -> "MPoly":
        """Quotient q with q * X_v == self; every monomial must contain X_v."""
        field, unit = ((1 << _WIDTH) - 1) << _WIDTH * v, 1 << _WIDTH * v
        terms = {}
        for m, c in self._terms.items():
            if not m & field:
                raise NotDivisible(f"monomial lacks variable {v}")
            terms[m - unit] = c
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
            ((_unpack(m), c) for m, c in self._terms.items()),
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
        terms, room = {}, BUDGET_BITS
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
            mono = _pack(exps.items())
            room -= mono.bit_length()
            if room < 0:
                raise MonomialOverflow("polynomial text packs past 2^28 bits of monomials")
            terms[mono] = terms.get(mono, 0) + coeff
        return cls._of({m: c for m, c in terms.items() if c})


def times_var(mono: int, v: VarId) -> int:
    """The packed monomial x_v * mono, unchecked (see the module docstring)."""
    return mono + (1 << _WIDTH * v)


def _pack(mono) -> int:
    """The packed monomial of (var, exponent) pairs with distinct vars."""
    if any(e and not (0 <= v < _VARS and 0 < e < _GUARD) for v, e in mono):
        raise MonomialOverflow("monomial out of range: exponents stay below 2^31 "
                               "and variable ids below 2^20")
    return sum(e << _WIDTH * v for v, e in mono)


def _unpack(mono: int) -> tuple:
    """The (var, exponent) pairs of a packed monomial, var ascending."""
    raw = mono.to_bytes((mono.bit_length() // _WIDTH + 1) * 4, "little")
    return tuple((v, e) for v, (e,) in enumerate(struct.iter_unpack("<I", raw)) if e)


@lru_cache(maxsize=None)
def _guards(k: int) -> int:
    """The guard bits of the lowest 2^k exponent fields: one mask per size class."""
    return int.from_bytes(b"\0\0\0\x80" * (1 << k), "little")


# Each token is followed by one run of whitespace and never preceded by
# one, so a failing match cannot split a run of blanks in many ways.
# int() reads 4300 digits at most: a number's, and the k of a name X<k>.
_NUMBER = r"([0-9]{1,4300})(?![0-9])"
_NAME = r"(?!X[0-9]{4301})[A-Za-z_][A-Za-z0-9_]*"
_FACTOR = re.compile(rf"{_NUMBER}|({_NAME})(?:\s*\^\s*{_NUMBER})?")
_TERM = rf"(?:{_FACTOR.pattern})\s*(?:\*\s*(?:{_FACTOR.pattern})\s*)*"
_POLY = re.compile(rf"\s*(?:[+-]\s*)?{_TERM}(?:[+-]\s*{_TERM})*")
_SIGNED_TERM = re.compile(r"\s*([+-]?)([^+-]+)")
