"""Exact sparse multivariate polynomials over unbounded integers.

Variables are identified by non-negative integer ids.  A monomial is a
tuple of (var, exponent) pairs sorted strictly ascending by var with all
exponents >= 1; the empty tuple is the constant monomial.  A polynomial is
a map from monomials to nonzero integer coefficients, so two values are
equal exactly when their term maps are equal and the zero polynomial is
the empty map.

Coefficients are Python ints on purpose: repeated sums in the matrix
encoding grow entries without bound (one entry counts tree nodes), and a
fixed-width type would overflow silently.

Text form, produced by ``render`` and accepted by ``parse``:

    poly   := [ "-" ] term { ("+" | "-") term }
    term   := integer | integer "*" factors | factors
    factors:= factor { "*" factor }
    factor := name [ "^" integer ]

Terms are ordered by total degree descending, ties broken by comparing
monomials lexicographically.  The default variable name for id k is
``X<k>``, e.g. ``2*X3^2*X5 + X1 - 4``.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

from .ffield import FieldElem, PrimeField

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
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def one(cls) -> "MPoly":
        return cls({(): 1})

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls({(): c})

    @classmethod
    def var(cls, v: VarId, exp: int = 1) -> "MPoly":
        if v < 0 or exp < 1:
            raise ValueError("variable ids are >= 0 and exponents >= 1")
        return cls({((v, exp),): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return MPoly(terms)

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        terms: dict = {}
        for m1, c1 in self._terms.items():
            e1 = dict(m1)
            for m2, c2 in other._terms.items():
                merged = dict(e1)
                for v, e in m2:
                    merged[v] = merged.get(v, 0) + e
                mono = tuple(sorted(merged.items()))
                s = terms.get(mono, 0) + c1 * c2
                if s:
                    terms[mono] = s
                else:
                    terms.pop(mono, None)
        return MPoly(terms)

    @staticmethod
    def lincomb(pairs) -> "MPoly":
        """The sum of c * poly over (int c, MPoly poly) pairs, merged in one pass."""
        terms: dict = {}
        for c, poly in pairs:
            for m, k in poly._terms.items():
                terms[m] = terms.get(m, 0) + c * k
        return MPoly(terms)

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

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e for _, e in m) for m in self._terms)

    def single_monomial(self):
        """(monomial, coefficient) when the polynomial has one term, else None."""
        if len(self._terms) != 1:
            return None
        return next(iter(self._terms.items()))

    def constant_value(self) -> Optional[int]:
        """Integer value when the polynomial is constant, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

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
        return MPoly(terms)

    def eval(self, assignment: Mapping[VarId, FieldElem], field: PrimeField) -> FieldElem:
        p = field.p
        total = 0
        for m, c in self._terms.items():
            acc = c % p
            for v, e in m:
                if v not in assignment:
                    raise MissingAssignment(v)
                acc = acc * pow(assignment[v].value, e, p) % p
            total = (total + acc) % p
        return field.elem(total)

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
    def parse(
        cls,
        text: str,
        names: Optional[dict] = None,
        *,
        allow_new: bool = False,
    ) -> "MPoly":
        """Parse the render grammar back into a polynomial.

        ``names`` maps variable names to ids; with ``allow_new`` unseen
        names are assigned the next free id and recorded in the mapping.
        Without a mapping only the default ``X<k>`` names are accepted.
        """
        tokens = _tokenize_poly(text)
        pos = 0

        def resolve(nm: str) -> VarId:
            if names is not None:
                if nm in names:
                    return names[nm]
                if allow_new:
                    vid = max(names.values(), default=-1) + 1
                    names[nm] = vid
                    return vid
                raise ValueError(f"unknown variable name {nm!r}")
            m = re.fullmatch(r"X(\d+)", nm)
            if not m:
                raise ValueError(f"unknown variable name {nm!r}")
            return int(m.group(1))

        def peek():
            return tokens[pos] if pos < len(tokens) else None

        def take():
            nonlocal pos
            tok = peek()
            pos += 1
            return tok

        def parse_term(sign: int) -> "MPoly":
            nonlocal pos
            coeff = 1
            factors = {}
            saw_any = False
            expect_factor = True
            while expect_factor:
                kind, val = take() or (None, None)
                if kind == "int":
                    coeff *= int(val)
                elif kind == "name":
                    vid = resolve(val)
                    exp = 1
                    if peek() and peek()[0] == "^":
                        take()
                        k, v2 = take() or (None, None)
                        if k != "int":
                            raise ValueError("expected integer exponent")
                        exp = int(v2)
                    factors[vid] = factors.get(vid, 0) + exp
                else:
                    raise ValueError("expected a term")
                saw_any = True
                if peek() and peek()[0] == "*":
                    take()
                else:
                    expect_factor = False
            if not saw_any:
                raise ValueError("empty term")
            mono = tuple(sorted((v, e) for v, e in factors.items() if e))
            return MPoly({mono: sign * coeff})

        result = cls.zero()
        sign = 1
        if peek() and peek()[0] in "+-":
            sign = -1 if take()[0] == "-" else 1
        result = result + parse_term(sign)
        while peek() is not None:
            kind, _ = take()
            if kind not in "+-":
                raise ValueError(f"unexpected {kind!r} in polynomial")
            result = result + parse_term(-1 if kind == "-" else 1)
        return result


_POLY_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*^]))")


def _tokenize_poly(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character at offset {pos}: {text[pos]!r}")
            break
        pos = m.end()
        if m.group(1) is not None:
            tokens.append(("int", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append((m.group(3), m.group(3)))
    return tokens
