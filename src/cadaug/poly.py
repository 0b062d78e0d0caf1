"""Exact sparse polynomial arithmetic over the variables x1, x2, x3.

Coefficients are exact rationals (Python int, promoted to Fraction only
when a denominator appears), so every downstream computation that stays in
this module is exact.  Values are immutable after construction and all
operations are pure, so polynomials can be shared freely.

Canonical form: a term map with no zero coefficients, iterated in graded
lexicographic order with x1 < x2 < x3.  Two equal polynomials always have
identical term maps and render the same ``str``.  ``str`` is output only:
polynomials are built with ``variable``, ``constant``, ``from_terms`` and
the ring operators, never parsed from infix text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from cadaug import kernels
from cadaug.symmetry import Permutation

Coeff = Union[int, Fraction]


@dataclass(frozen=True, order=True)
class Variable:
    """One of the three canonical variables, value-compared by index."""

    index: int

    def __post_init__(self):
        if self.index not in (1, 2, 3):
            raise ValueError(f"variable index out of range: {self.index}")

    @property
    def name(self) -> str:
        return f"x{self.index}"

    def __repr__(self) -> str:
        return self.name


X1 = Variable(1)
X2 = Variable(2)
X3 = Variable(3)
VARIABLES: tuple[Variable, Variable, Variable] = (X1, X2, X3)


def _checked_key(exponents: tuple[int, int, int]) -> int:
    """Packed key of an exponent triple from outside input.

    An exponent outside 0..EXP_MASK would carry into (or borrow from) the
    next variable's field and alias a different monomial, so it is refused.
    """
    for e in exponents:
        if not 0 <= e <= kernels.EXP_MASK:
            raise ValueError(f"exponent {e} outside 0..{kernels.EXP_MASK}")
    return kernels.pack(*exponents)


def _grlex_sort_key(key: int) -> tuple[int, int]:
    return (kernels.total_degree(key), key)


class Polynomial:
    """Immutable sparse polynomial; the zero polynomial has no terms."""

    # _integral holds ``resultants._integral(self)``, filled on first use
    # and never changed after: a function of the terms, so the polynomial
    # stays immutable in every way that equality and hashing can see
    __slots__ = ("_terms", "_integral")

    def __init__(self, terms: dict[int, Coeff] | None = None):
        # Terms are adopted as-is; callers must not mutate them afterwards.
        self._terms = terms if terms is not None else {}
        self._integral = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return _ZERO

    @classmethod
    def one(cls) -> Polynomial:
        return _ONE

    @classmethod
    def constant(cls, c: Coeff) -> Polynomial:
        c = _normalize_coeff(c)
        return cls({0: c}) if c else cls()

    @classmethod
    def variable(cls, v: Variable) -> Polynomial:
        return cls({kernels.pack(*(1 if i == v.index else 0 for i in (1, 2, 3))): 1})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[tuple[int, int, int], Coeff]]) -> Polynomial:
        acc: dict[int, Coeff] = {}
        for exponents, coeff in terms:
            key = _checked_key(exponents)
            c = acc.get(key, 0) + _normalize_coeff(coeff)
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        return cls(acc)

    # -- inspection --------------------------------------------------------

    @property
    def raw(self) -> dict[int, Coeff]:
        """The underlying term map (packed key -> coefficient); do not mutate."""
        return self._terms

    def terms(self) -> list[tuple[tuple[int, int, int], Coeff]]:
        """(exponents of x1, x2, x3; coefficient) pairs in descending
        graded-lex order (leading term first)."""
        keys = sorted(self._terms, key=_grlex_sort_key, reverse=True)
        return [(kernels.unpack(k), self._terms[k]) for k in keys]

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms.get(0, 0)

    @property
    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(kernels.total_degree(k) for k in self._terms)

    def degree_in(self, v: Variable) -> int:
        """Largest exponent of v in any term; 0 for absent v or the zero poly."""
        i = v.index - 1
        deg = 0
        for key in self._terms:
            e = kernels.unpack(key)[i]
            if e > deg:
                deg = e
        return deg

    def contains(self, v: Variable) -> bool:
        return self.degree_in(v) > 0

    def variables(self) -> set[Variable]:
        present = [False, False, False]
        for key in self._terms:
            e1, e2, e3 = kernels.unpack(key)
            present[0] |= e1 > 0
            present[1] |= e2 > 0
            present[2] |= e3 > 0
        return {VARIABLES[i] for i in range(3) if present[i]}

    def leading_key(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return kernels.klead(self._terms)

    def leading_coefficient(self) -> Coeff:
        return self._terms[self.leading_key()]

    def sort_key(self):
        """A total-order key: grlex term list, for deterministic set output."""
        keys = sorted(self._terms, key=_grlex_sort_key, reverse=True)
        return tuple((kernels.total_degree(k), k, Fraction(self._terms[k])) for k in keys)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> Polynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(kernels.kadd(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other) -> Polynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(kernels.ksub(self._terms, other._terms))

    def __rsub__(self, other) -> Polynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(kernels.ksub(other._terms, self._terms))

    def __neg__(self) -> Polynomial:
        return Polynomial(kernels.kneg(self._terms))

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial(kernels.kscale(self._terms, _normalize_coeff(other)))
        if isinstance(other, Polynomial):
            return Polynomial(kernels.kmul(self._terms, other._terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- calculus and structure -------------------------------------------

    def derivative(self, v: Variable) -> Polynomial:
        i = v.index - 1
        shift = kernels.EXP_BITS * i
        out: dict[int, Coeff] = {}
        for key, c in self._terms.items():
            e = kernels.unpack(key)[i]
            if e:
                out[key - (1 << shift)] = c * e
        return Polynomial(out)

    def coefficients_wrt(self, v: Variable) -> list[Polynomial]:
        """Coefficients of v^0 .. v^deg as polynomials in the other variables."""
        i = v.index - 1
        shift = kernels.EXP_BITS * i
        buckets: list[dict[int, Coeff]] = [{} for _ in range(self.degree_in(v) + 1)]
        for key, c in self._terms.items():
            e = kernels.unpack(key)[i]
            buckets[e][key - (e << shift)] = c
        return [Polynomial(b) for b in buckets]

    def rename(self, sigma: Permutation) -> Polynomial:
        """Substitute each variable i by sigma(i); a ring automorphism."""
        if sigma.is_identity():
            return self
        img = sigma.images
        out: dict[int, Coeff] = {}
        for key, c in self._terms.items():
            exps = kernels.unpack(key)
            new = [0, 0, 0]
            for i in range(3):
                new[img[i] - 1] = exps[i]
            out[kernels.pack(*new)] = c
        return Polynomial(out)

    def evaluate(self, values: dict[Variable, Coeff]) -> Coeff:
        vals = [values.get(v, 0) for v in VARIABLES]
        total: Coeff = 0
        for key, c in self._terms.items():
            e1, e2, e3 = kernels.unpack(key)
            total += c * vals[0] ** e1 * vals[1] ** e2 * vals[2] ** e3
        return total

    # -- normal forms ------------------------------------------------------

    def cleared_denominators(self) -> Polynomial:
        """Scale by the lcm of coefficient denominators to get integer coefficients."""
        lcm = 1
        for c in self._terms.values():
            if isinstance(c, Fraction):
                lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        if lcm == 1:
            return Polynomial({k: _normalize_coeff(c) for k, c in self._terms.items()})
        return Polynomial({k: _normalize_coeff(c * lcm) for k, c in self._terms.items()})

    def sign_normalized(self) -> Polynomial:
        """Negate if the graded-lex leading coefficient is negative."""
        if self._terms and self.leading_coefficient() < 0:
            return -self
        return self

    def primitive(self) -> Polynomial:
        """Divide out the rational content and normalize the leading sign."""
        if not self._terms:
            return self
        poly = self
        if not all(type(c) is int for c in self._terms.values()):
            poly = self.cleared_denominators()
        g = math.gcd(*poly._terms.values())
        if g > 1:
            poly = Polynomial({k: c // g for k, c in poly._terms.items()})
        return poly.sign_normalized()

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exponents, coeff in self.terms():
            text = _render_term(exponents, coeff)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(f"- {text[1:]}")
            else:
                parts.append(f"+ {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _normalize_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    if isinstance(c, bool):
        return int(c)
    return c


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


_ZERO = Polynomial()
_ONE = Polynomial({0: 1})


def _render_term(exponents: tuple[int, int, int], coeff: Coeff) -> str:
    e1, e2, e3 = exponents
    var_parts = [f"x{i}^{e}" if e > 1 else f"x{i}"
                 for i, e in ((1, e1), (2, e2), (3, e3)) if e]
    if not var_parts:
        return str(coeff)
    vars_text = "*".join(var_parts)
    if coeff == 1:
        return vars_text
    if coeff == -1:
        return f"-{vars_text}"
    return f"{coeff}*{vars_text}"

