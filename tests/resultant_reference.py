"""The Sylvester matrix and its Bareiss determinant, kept as the oracle
for ``cadaug.resultants.resultant``.

The resultant of p and q with respect to v is the determinant of their
Sylvester matrix.  The library computes it by the subresultant PRS
without building that matrix; this module is the direct method.  Bareiss
fraction-free elimination divides exactly too, so both give the same
polynomial, sign included.
"""

from __future__ import annotations

from cadaug import kernels
from cadaug.poly import Polynomial, Variable
from cadaug.resultants import DegreeError


def sylvester_matrix(p: Polynomial, q: Polynomial, v: Variable) -> list[list[Polynomial]]:
    """The (m+n) x (m+n) Sylvester matrix of p and q with respect to v.

    Requires deg_v(p) >= 1 and deg_v(q) >= 1.
    """
    m, n = p.degree_in(v), q.degree_in(v)
    if min(m, n) < 1:
        raise DegreeError(f"degrees in {v} are {m} and {n}, need >= 1")
    # coefficients_wrt returns v^0 .. v^deg; the matrix wants descending order.
    a = list(reversed(p.coefficients_wrt(v)))
    b = list(reversed(q.coefficients_wrt(v)))
    zero = Polynomial.zero()
    rows: list[list[Polynomial]] = []
    for shift in range(n):
        rows.append([zero] * shift + a + [zero] * (n - 1 - shift))
    for shift in range(m):
        rows.append([zero] * shift + b + [zero] * (m - 1 - shift))
    return rows


def determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix of polynomials (Bareiss elimination)."""
    size = len(matrix)
    if size == 0:
        return Polynomial.one()
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    work = [[entry.raw for entry in row] for row in matrix]
    sign = 1
    prev = dict(kernels.KEY_ONE)
    for k in range(size - 1):
        if not work[k][k]:
            pivot_row = next((r for r in range(k + 1, size) if work[r][k]), None)
            if pivot_row is None:
                return Polynomial.zero()
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        for i in range(k + 1, size):
            row_i = work[i]
            row_k = work[k]
            head = row_i[k]
            for j in range(k + 1, size):
                numerator = kernels.ksub(
                    kernels.kmul(row_i[j], row_k[k]),
                    kernels.kmul(head, row_k[j]),
                )
                row_i[j] = kernels.kdiv_exact(numerator, prev)
            row_i[k] = {}
        prev = work[k][k]
    final = work[size - 1][size - 1]
    if sign < 0:
        final = kernels.kneg(final)
    return Polynomial(dict(final))
