"""Pure-Python term-dict kernels for sparse polynomials in three variables.

A polynomial is a dict mapping a packed exponent key to a non-zero int
coefficient.  Rationals live only in the SMT-LIB reader
(``cadaug.smtlib``), which clears every denominator before it builds a
polynomial, so every kernel is integer arithmetic.  The key packs the
exponents of x1, x2, x3 into one integer, 21 bits per variable:

    key = e1 | (e2 << 21) | (e3 << 42)

Packed keys add under monomial multiplication, and plain integer order on
keys is lexicographic with x3 > x2 > x1, so the graded-lex order used for
canonical output is just (total degree, key).

Keys add without carry as long as every exponent stays below 2**21, so
integer order on keys is itself a monomial order (multiplying two keys by
the same monomial keeps their order).  ``kdiv_exact`` divides in that lex
order: an exact quotient is unique, so any monomial order yields it, and
lex order lets a plain heap of keys pick the next term.  ``klead`` stays
graded-lex, because canonical output and sign normalization depend on it.

These functions are the ring operations of ``cadaug.poly.Polynomial``;
resultants use only ``exact_quotient``, since ``cadaug.resultants`` runs
its remainder sequence on Kronecker-packed integers.  ``kdiv_exact`` has no
caller in the library: the Bareiss determinant that the tests use as the
resultant oracle (``tests/resultant_reference.py``) and the benchmark's
fixed-input timings (``perfbench/micro.py``) call it.  Callers reach
these functions as attributes of this module (``kernels.kmul(...)``),
and no kernel calls ``kmul`` or ``kdiv_exact`` itself, so replacing those
attributes sees every call.  The
21-bit-per-exponent limit is far beyond anything the projection degree
budget allows to survive; ``Polynomial.from_terms`` and SMT-LIB ingestion
reject inputs whose degrees would exceed it.
"""

from heapq import heapify, heappop, heappush

EXP_BITS = 21
EXP_MASK = (1 << EXP_BITS) - 1
KEY_ONE = {0: 1}

BACKEND = "python"
"""Name of the kernel implementation; ``perfbench/harness.py`` reads it on
every run and records it."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder where none was expected."""


def pack(e1, e2, e3):
    return e1 | (e2 << EXP_BITS) | (e3 << (2 * EXP_BITS))


def unpack(key):
    return (key & EXP_MASK, (key >> EXP_BITS) & EXP_MASK, key >> (2 * EXP_BITS))


def total_degree(key):
    return (key & EXP_MASK) + ((key >> EXP_BITS) & EXP_MASK) + (key >> (2 * EXP_BITS))


def divides(bkey, akey):
    """True if the monomial bkey divides the monomial akey (exponentwise <=)."""
    return (
        (bkey & EXP_MASK) <= (akey & EXP_MASK)
        and ((bkey >> EXP_BITS) & EXP_MASK) <= ((akey >> EXP_BITS) & EXP_MASK)
        and (bkey >> (2 * EXP_BITS)) <= (akey >> (2 * EXP_BITS))
    )


def klead(a):
    """Graded-lex leading key of a non-empty term dict."""
    return max(a, key=lambda k: (total_degree(k), k))


def kadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, c in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = c
        else:
            s = cur + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def ksub(a, b):
    out = dict(a)
    for k, c in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = -c
        else:
            s = cur - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def kneg(a):
    return {k: -c for k, c in a.items()}


def kscale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def kmul(a, b):
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            p = ca * cb
            cur = out.get(k)
            if cur is None:
                out[k] = p
            else:
                s = cur + p
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def exact_quotient(a, b):
    """a // b for integers b dividing a; raise InexactDivision otherwise."""
    q, r = divmod(a, b)
    if r:
        raise InexactDivision("non-zero remainder in an exact coefficient division")
    return q


def kdiv_exact(a, b):
    """Divide a by b in the polynomial ring; raise InexactDivision otherwise,
    also when a coefficient leaves a remainder.

    Terms are divided out in lex order (plain integer order on keys): a
    heap holds the negated keys of the remainder, and entries whose term
    has since cancelled are skipped on pop.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return {}
    if len(b) == 1:
        (bk, bc), = b.items()
        out = {}
        for k, c in a.items():
            if not divides(bk, k):
                raise InexactDivision("monomial does not divide term")
            out[k - bk] = exact_quotient(c, bc)
        return out
    bk = max(b)
    bc = b[bk]
    tail = [(k, c) for k, c in b.items() if k != bk]
    rem = dict(a)
    heap = [-k for k in rem]
    heapify(heap)
    out = {}
    while heap:
        rk = -heappop(heap)
        rc = rem.pop(rk, None)
        if rc is None:
            continue
        if not divides(bk, rk):
            raise InexactDivision("leading term not divisible")
        qk = rk - bk
        qc = exact_quotient(rc, bc)
        out[qk] = qc
        for k, c in tail:
            nk = k + qk
            cur = rem.get(nk)
            if cur is None:
                rem[nk] = -c * qc
                heappush(heap, -nk)
            else:
                s = cur - c * qc
                if s:
                    rem[nk] = s
                else:
                    del rem[nk]
    return out
