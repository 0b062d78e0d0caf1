"""Resultants and discriminants of trivariate polynomials.

The resultant of two polynomials p and q with respect to a variable v is
the determinant of their Sylvester matrix, whose entries are polynomials
in the other two variables, u and w (u the lower-numbered).  ``resultant``
computes it without building that matrix: it packs each v-coefficient
into one integer (Kronecker substitution) and runs the subresultant
polynomial remainder sequence (Brown & Traub 1971; Cohen, *A Course in
Computational Algebraic Number Theory*, Algorithm 3.3.7, without the
content step) on the integer coefficient lists, so the arithmetic is
CPython's big-integer multiply and divide.  Polynomials have integer
coefficients (rationals stop at the SMT-LIB reader, ``cadaug.smtlib``),
so the packed operands are integers as they stand.

Degree bound.  With m = deg_v p and n = deg_v q, every term of the
Sylvester determinant is a product of n coefficients of p and m of q.
The coefficient of v^k in p has total degree at most deg p - k, and
summed over any term of the determinant these give

    deg res_v(p, q) <= T = n * deg p + m * deg q - m * n

for the total degree (``total_degree_bound``).  This is at most
deg p * deg q, the Bezout bound.

Packing.  The resultant has degree below the box

    D_u = min(n * deg_u p + m * deg_u q, T) + 1     (likewise D_w)

in u and w, and 1-norm (sum of absolute coefficients) at most
||p||_1^n * ||q||_1^m.  Each coefficient therefore fits a signed slot of
``wb = ceil((bitlen(||p||_1^n * ||q||_1^m) + 2) / 8)`` bytes, B = 8 * wb
bits, and the monomial u^i w^j gets the slot i + D_u * j.  A
v-coefficient c(u, w) is packed as c(2^B, 2^(B * D_u)).

Why this is exact.  Evaluation at (2^B, 2^(B * D_u)) is a ring
homomorphism from Z[u, w] to Z, and the resultant is a polynomial in the
coefficients, so the resultant of the packed operands is the packed
resultant.  The leading v-coefficients fit their slots, so their images
are non-zero and the degrees in v are kept.  The subresultant PRS is
valid over any integral domain: over Z every division it makes is exact,
and a remainder there raises ``kernels.InexactDivision``.  The bound
makes unpacking injective: the packed resultant is read back slot by
slot, each slot biased by 2^(B - 1) so that a signed value comes out of
``int.to_bytes`` and ``int.from_bytes`` unchanged.

Cost.  The packed integers hold D_u * D_w slots whatever the number of
terms, so the work grows with the square of T even when the resultant is
sparse: the discriminant in x1 of x1^100 + x2^100 + x3^100 has 100 terms
but T = 9900, a box of 10^8 slots.  A caller that caps the output degree
checks ``total_degree_bound`` first, as the sotd labeller does with its
projection budget.

The direct method, the Bareiss determinant of the Sylvester matrix, is
the tests' oracle (``tests/resultant_reference.py``).
"""

from __future__ import annotations

from cadaug import kernels
from cadaug.poly import Polynomial, Variable


class DegreeError(ValueError):
    """Raised when an operand's degree is too small for the operation."""


def total_degree_bound(m: int, n: int, deg_p: int, deg_q: int) -> int:
    """T = n * deg_p + m * deg_q - m * n: an upper bound on the total degree
    of res_v(p, q), and the size of the box ``resultant`` packs into, for p
    of degree m in v and total degree deg_p, and q of n and deg_q."""
    return n * deg_p + m * deg_q - m * n


def _unpacked(p: Polynomial) -> list[tuple[tuple[int, int, int], int]]:
    """(exponents, coefficient) pairs of p.  Computed once per polynomial
    and kept on it: a polynomial of one projection level meets every other
    one in a resultant."""
    if p._unpacked is None:
        p._unpacked = [(kernels.unpack(k), c) for k, c in p.raw.items()]
    return p._unpacked


def _prem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, on coefficient
    lists (index = power of v, top entry non-zero); [] is zero."""
    n = len(b) - 1
    lead = b[n]
    rem = a
    steps = len(a) - n
    while len(rem) > n:
        top = rem[-1]
        shift = len(rem) - 1 - n
        rem = [c * lead for c in rem[:-1]]
        for i in range(n):
            rem[shift + i] -= top * b[i]
        while rem and not rem[-1]:
            rem.pop()
        steps -= 1
    if steps and rem:
        scale = lead**steps
        rem = [c * scale for c in rem]
    return rem


def _prs_resultant(a: list[int], b: list[int]) -> int:
    """Resultant of two integer polynomials of degree >= 1, given as
    coefficient lists (index = power of v), by the subresultant PRS."""
    sign = 1
    if len(a) < len(b):
        # res(q, p) = (-1)^(mn) res(p, q)
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -1
    g = h = 1
    while True:
        deg_a, deg_b = len(a) - 1, len(b) - 1
        delta = deg_a - deg_b
        if deg_a % 2 and deg_b % 2:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        divisor = g * h**delta
        a = b
        b = r if divisor == 1 else [kernels.exact_quotient(c, divisor) for c in r]
        g = a[-1]
        # h <- h^(1 - delta) * g^delta, an exact division when delta > 1
        if delta == 1:
            h = g
        elif delta > 1:
            h = kernels.exact_quotient(g**delta, h ** (delta - 1))
        if len(b) == 1:
            break
    deg_a = len(a) - 1
    final = b[0] ** deg_a
    if deg_a > 1:
        final = kernels.exact_quotient(final, h ** (deg_a - 1))
    return sign * final


def resultant(p: Polynomial, q: Polynomial, v: Variable) -> Polynomial:
    """res_v(p, q): the determinant of the Sylvester matrix of p and q,
    computed by the subresultant PRS on Kronecker-packed coefficients.
    The work grows with the square of ``total_degree_bound``, not with the
    number of terms.  Requires deg_v(p), deg_v(q) >= 1."""
    iv = v.index - 1
    iu, iw = (i for i in range(3) if i != iv)
    p_terms, p_deg = _unpacked(p), p.degrees
    q_terms, q_deg = _unpacked(q), q.degrees
    m, n = p_deg[iv], q_deg[iv]
    if m < 1:
        raise DegreeError(f"degree of first operand in {v} is {m}, need >= 1")
    if n < 1:
        raise DegreeError(f"degree of second operand in {v} is {n}, need >= 1")
    bound = total_degree_bound(m, n, p_deg[3], q_deg[3])
    d_u = min(n * p_deg[iu] + m * q_deg[iu], bound) + 1
    d_w = min(n * p_deg[iw] + m * q_deg[iw], bound) + 1
    norm_p = sum(abs(c) for _, c in p_terms)
    norm_q = sum(abs(c) for _, c in q_terms)
    width = ((norm_p**n * norm_q**m).bit_length() + 2 + 7) // 8

    def packed(terms, degree):
        # u^i w^j v^k moves to bit offset 8 * width * (i + d_u * j) of entry k
        coeffs = [0] * (degree + 1)
        for e, c in terms:
            coeffs[e[iv]] += c << (8 * width * (e[iu] + d_u * e[iw]))
        return coeffs

    res = _prs_resultant(packed(p_terms, m), packed(q_terms, n))
    out = {}
    for slot, c in _slots(res, width, d_u * d_w):
        exps = [0, 0, 0]
        exps[iw], exps[iu] = divmod(slot, d_u)
        out[kernels.pack(*exps)] = c
    return Polynomial(out)


def _slots(packed: int, width: int, count: int) -> list[tuple[int, int]]:
    """(index, value) of the non-zero signed slots of ``width`` bytes among
    the lowest ``count`` of ``packed``.  Adding 2^(8 * width - 1) to every
    slot makes each one non-negative, so no slot borrows from the next."""
    zero = bytes(width - 1) + b"\x80"
    half = 1 << (8 * width - 1)
    data = (packed + int.from_bytes(zero * count, "little")).to_bytes(width * count, "little")
    chunks = (data[i * width : (i + 1) * width] for i in range(count))
    return [(i, int.from_bytes(b, "little") - half) for i, b in enumerate(chunks) if b != zero]


def discriminant(p: Polynomial, v: Variable) -> Polynomial:
    """disc_v(p) = res_v(p, dp/dv), taken as-is without dividing by the
    leading coefficient.  Requires deg_v(p) >= 2."""
    if p.degree_in(v) < 2:
        raise DegreeError(
            f"degree of operand in {v} is {p.degree_in(v)}, need >= 2 for a discriminant"
        )
    return resultant(p, p.derivative(v), v)
