"""Exact sparse polynomial arithmetic over the variables x1, x2, x3.

Coefficients are Python ints, so every computation on polynomials is
exact.  Rationals live only in the SMT-LIB reader (``cadaug.smtlib``),
which clears every denominator before it builds a polynomial; the
constructors refuse any other coefficient type.  Values are immutable
after construction and all operations are pure, so polynomials can be
shared freely.

Canonical form: a term map with no zero coefficients, iterated in graded
lexicographic order with x1 < x2 < x3.  Two equal polynomials always have
identical term maps and render the same ``str``.  ``str`` is output only:
polynomials are built with ``variable``, ``constant``, ``from_terms`` and
the ring operators, never parsed from infix text.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

from cadaug import kernels
from cadaug.symmetry import Permutation


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

    # _degrees (see ``degrees``) and _unpacked (``resultants._unpacked``)
    # are filled on first use and never changed after: functions of the
    # terms, so the polynomial stays immutable in every way that equality
    # and hashing can see
    __slots__ = ("_terms", "_degrees", "_unpacked")

    def __init__(self, terms: dict[int, int] | None = None):
        # Terms are adopted as-is; callers must not mutate them afterwards.
        self._terms = terms if terms is not None else {}
        self._degrees = None
        self._unpacked = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return _ZERO

    @classmethod
    def one(cls) -> Polynomial:
        return _ONE

    @classmethod
    def constant(cls, c: int) -> Polynomial:
        c = operator.index(c)
        return cls({0: c}) if c else cls()

    @classmethod
    def variable(cls, v: Variable) -> Polynomial:
        return cls({kernels.pack(*(1 if i == v.index else 0 for i in (1, 2, 3))): 1})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[tuple[int, int, int], int]]) -> Polynomial:
        """The sum of the given terms; a coefficient that is not an integer
        raises TypeError."""
        acc: dict[int, int] = {}
        for exponents, coeff in terms:
            key = _checked_key(exponents)
            c = acc.get(key, 0) + operator.index(coeff)
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        return cls(acc)

    # -- inspection --------------------------------------------------------

    @property
    def raw(self) -> dict[int, int]:
        """The underlying term map (packed key -> coefficient); do not mutate."""
        return self._terms

    def terms(self) -> list[tuple[tuple[int, int, int], int]]:
        """(exponents of x1, x2, x3; coefficient) pairs in descending
        graded-lex order (leading term first)."""
        keys = sorted(self._terms, key=_grlex_sort_key, reverse=True)
        return [(kernels.unpack(k), self._terms[k]) for k in keys]

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms.get(0, 0)

    @property
    def degrees(self) -> tuple[int, int, int, int]:
        """The degrees in x1, x2 and x3, then the total degree; all 0 for
        the zero polynomial.  Computed in one pass over the terms on first
        use: the labellers ask each polynomial several times."""
        if self._degrees is None:
            exps = [kernels.unpack(k) for k in self._terms]
            self._degrees = (*map(max, zip(*exps)), max(map(sum, exps))) if exps else (0, 0, 0, 0)
        return self._degrees

    @property
    def total_degree(self) -> int:
        return self.degrees[3]

    def degree_in(self, v: Variable) -> int:
        """Largest exponent of v in any term; 0 for absent v or the zero poly."""
        return self.degrees[v.index - 1]

    def contains(self, v: Variable) -> bool:
        return self.degree_in(v) > 0

    def variables(self) -> set[Variable]:
        return {v for v, degree in zip(VARIABLES, self.degrees) if degree}

    def leading_key(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return kernels.klead(self._terms)

    def leading_coefficient(self) -> int:
        return self._terms[self.leading_key()]

    def sort_key(self):
        """A total-order key: grlex term list, for deterministic set output."""
        keys = sorted(self._terms, key=_grlex_sort_key, reverse=True)
        return tuple((kernels.total_degree(k), k, self._terms[k]) for k in keys)

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
        if isinstance(other, int):
            return Polynomial(kernels.kscale(self._terms, other))
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
        out: dict[int, int] = {}
        for key, c in self._terms.items():
            e = kernels.unpack(key)[i]
            if e:
                out[key - (1 << shift)] = c * e
        return Polynomial(out)

    def coefficients_wrt(self, v: Variable) -> list[Polynomial]:
        """Coefficients of v^0 .. v^deg as polynomials in the other variables."""
        i = v.index - 1
        shift = kernels.EXP_BITS * i
        buckets: list[dict[int, int]] = [{} for _ in range(self.degree_in(v) + 1)]
        for key, c in self._terms.items():
            e = kernels.unpack(key)[i]
            buckets[e][key - (e << shift)] = c
        return [Polynomial(b) for b in buckets]

    def rename(self, sigma: Permutation) -> Polynomial:
        """Substitute each variable i by sigma(i); a ring automorphism."""
        if sigma.is_identity():
            return self
        img = sigma.images
        out: dict[int, int] = {}
        for key, c in self._terms.items():
            exps = kernels.unpack(key)
            new = [0, 0, 0]
            for i in range(3):
                new[img[i] - 1] = exps[i]
            out[kernels.pack(*new)] = c
        return Polynomial(out)

    def evaluate(self, values: dict):
        """The value at a point; exact for exact coordinates (ints or
        rationals), and a variable missing from ``values`` is 0."""
        vals = [values.get(v, 0) for v in VARIABLES]
        total = 0
        for key, c in self._terms.items():
            e1, e2, e3 = kernels.unpack(key)
            total += c * vals[0] ** e1 * vals[1] ** e2 * vals[2] ** e3
        return total

    # -- normal forms ------------------------------------------------------

    def sign_normalized(self) -> Polynomial:
        """Negate if the graded-lex leading coefficient is negative."""
        if self._terms and self.leading_coefficient() < 0:
            return -self
        return self

    def primitive(self) -> Polynomial:
        """Divide out the content and normalize the leading sign."""
        g = math.gcd(*self._terms.values())
        poly = Polynomial({k: c // g for k, c in self._terms.items()}) if g > 1 else self
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


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return NotImplemented


_ZERO = Polynomial()
_ONE = Polynomial({0: 1})


def _render_term(exponents: tuple[int, int, int], coeff: int) -> str:
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

