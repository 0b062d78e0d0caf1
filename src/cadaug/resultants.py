"""Resultants and discriminants of trivariate polynomials.

The resultant of two polynomials with respect to a variable v is the
determinant of their Sylvester matrix, whose entries are polynomials in
the remaining variables.  ``resultant`` computes it without building that
matrix, by the subresultant polynomial remainder sequence (Brown & Traub
1971; Cohen, *A Course in Computational Algebraic Number Theory*,
Algorithm 3.3.7, without the content step) on the coefficient lists in v.
Every division in the sequence is exact in the polynomial ring, so no
rational-function arithmetic is needed and the result is the exact
determinant, sign included.

The direct method, the Bareiss determinant of the Sylvester matrix, is
the tests' oracle (``tests/resultant_reference.py``).
"""

from __future__ import annotations

from cadaug import kernels
from cadaug.poly import Polynomial, Variable

KDict = dict


class DegreeError(ValueError):
    """Raised when an operand's degree is too small for the operation."""


def _operand_degrees(p: Polynomial, q: Polynomial, v: Variable) -> tuple[int, int]:
    m = p.degree_in(v)
    n = q.degree_in(v)
    if m < 1:
        raise DegreeError(f"degree of first operand in {v} is {m}, need >= 1")
    if n < 1:
        raise DegreeError(f"degree of second operand in {v} is {n}, need >= 1")
    return m, n


def _kpow(a: KDict, e: int) -> KDict:
    out = dict(kernels.KEY_ONE)
    for _ in range(e):
        out = kernels.kmul(out, a)
    return out


def _pseudo_remainder(a: list[KDict], b: list[KDict]) -> list[KDict]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, on coefficient
    lists (index = power of v, top entry non-zero); [] is zero."""
    n = len(b) - 1
    lead = b[n]
    rem = a
    steps = len(a) - n
    while len(rem) > n:
        top = rem[-1]
        shift = len(rem) - 1 - n
        rem = [kernels.kmul(c, lead) for c in rem[:-1]]
        for i in range(n):
            rem[shift + i] = kernels.ksub(rem[shift + i], kernels.kmul(top, b[i]))
        while rem and not rem[-1]:
            rem.pop()
        steps -= 1
    if steps and rem:
        scale = _kpow(lead, steps)
        rem = [kernels.kmul(c, scale) for c in rem]
    return rem


def resultant(p: Polynomial, q: Polynomial, v: Variable) -> Polynomial:
    """res_v(p, q): the determinant of the Sylvester matrix of p and q,
    computed by the subresultant PRS.  Requires deg_v(p), deg_v(q) >= 1."""
    m, n = _operand_degrees(p, q, v)
    a = [c.raw for c in p.coefficients_wrt(v)]
    b = [c.raw for c in q.coefficients_wrt(v)]
    sign = 1
    if m < n:
        # res(q, p) = (-1)^(mn) res(p, q)
        a, b = b, a
        if m % 2 and n % 2:
            sign = -1
    g = h = kernels.KEY_ONE
    while True:
        deg_a, deg_b = len(a) - 1, len(b) - 1
        delta = deg_a - deg_b
        if deg_a % 2 and deg_b % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return Polynomial.zero()
        divisor = kernels.kmul(g, _kpow(h, delta))
        a = b
        b = r if divisor == kernels.KEY_ONE else [kernels.kdiv_exact(c, divisor) for c in r]
        g = a[-1]
        # h <- h^(1 - delta) * g^delta, an exact division when delta > 1
        if delta == 1:
            h = g
        elif delta > 1:
            h = kernels.kdiv_exact(_kpow(g, delta), _kpow(h, delta - 1))
        if len(b) == 1:
            break
    deg_a = len(a) - 1
    final = _kpow(b[0], deg_a)
    if deg_a > 1:
        final = kernels.kdiv_exact(final, _kpow(h, deg_a - 1))
    if sign < 0:
        final = kernels.kneg(final)
    return Polynomial(final)


def discriminant(p: Polynomial, v: Variable) -> Polynomial:
    """disc_v(p) = res_v(p, dp/dv), taken as-is without dividing by the
    leading coefficient.  Requires deg_v(p) >= 2."""
    if p.degree_in(v) < 2:
        raise DegreeError(
            f"degree of operand in {v} is {p.degree_in(v)}, need >= 2 for a discriminant"
        )
    return resultant(p, p.derivative(v), v)
