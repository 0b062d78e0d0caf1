"""Tests for Sylvester matrices, Bareiss determinants, resultants, discriminants.

The determinant oracle here is plain cofactor expansion, implemented
independently of the Bareiss code under test.  The subresultant-PRS
``resultant`` is checked against both: cofactor expansion for small
Sylvester matrices, and the Bareiss determinant of the Sylvester matrix
for sizes where cofactor expansion is too slow.
"""

import random
from fractions import Fraction

import pytest

from resultant_reference import determinant, sylvester_matrix

from cadaug.poly import Polynomial, X1, X2, X3
from cadaug.resultants import DegreeError, discriminant, resultant

P = Polynomial.parse


def cofactor_det(matrix):
    """Reference determinant by cofactor expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero()
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def random_poly(rng, max_terms=4, max_exp=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        e = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms.append((e, rng.randint(-5, 5)))
    return Polynomial.from_terms(terms)


# -- Sylvester matrix shape ------------------------------------------------


def test_sylvester_shape_and_entries():
    p = P("x1^2 + 3*x1 - x2")  # degree 2 in x1
    q = P("2*x1 + x3")  # degree 1 in x1
    m = sylvester_matrix(p, q, X1)
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    assert m[0] == [P("1"), P("3"), P("-x2")]
    assert m[1] == [P("2"), P("x3"), P("0")]
    assert m[2] == [P("0"), P("2"), P("x3")]


def test_sylvester_requires_degree_one():
    with pytest.raises(DegreeError):
        sylvester_matrix(P("x2"), P("x1"), X1)
    with pytest.raises(DegreeError):
        sylvester_matrix(P("x1"), P("5"), X1)


# -- determinant ----------------------------------------------------------


def test_determinant_small_known():
    assert determinant([[P("x1")]]) == P("x1")
    assert determinant([[P("1"), P("x2")], [P("x1"), P("1")]]) == P("1 - x1*x2")
    # singular: second row is a multiple of the first
    assert determinant([[P("x1"), P("x2")], [P("2*x1"), P("2*x2")]]).is_zero()


def test_determinant_needs_pivot_swap():
    # zero in the corner forces a row swap and a sign flip
    m = [[P("0"), P("1")], [P("1"), P("0")]]
    assert determinant(m) == P("-1")


def test_determinant_rejects_ragged():
    with pytest.raises(ValueError):
        determinant([[P("1"), P("2")], [P("3")]])


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(42)
    for size in (2, 3, 4):
        for _ in range(12):
            m = [[random_poly(rng, max_terms=2, max_exp=2) for _ in range(size)] for _ in range(size)]
            assert determinant(m) == cofactor_det(m)


def test_determinant_row_swap_cases_match_oracle():
    rng = random.Random(99)
    zero = Polynomial.zero()
    for _ in range(20):
        size = 3
        m = [[random_poly(rng, max_terms=2, max_exp=2) for _ in range(size)] for _ in range(size)]
        m[0][0] = zero  # force pivoting
        assert determinant(m) == cofactor_det(m)


# -- resultant ------------------------------------------------------------


def test_resultant_linear_pair():
    assert resultant(P("x1 - x2"), P("x1 - x3"), X1) == P("x2 - x3")


def test_resultant_quadratic_linear():
    assert resultant(P("x1^2 - x3"), P("x1 - x2"), X1) == P("x2^2 - x3")


def test_resultant_matches_sylvester_cofactor():
    rng = random.Random(7)
    trials = 0
    while trials < 25:
        p = random_poly(rng)
        q = random_poly(rng)
        if p.degree_in(X1) < 1 or q.degree_in(X1) < 1:
            continue
        trials += 1
        assert resultant(p, q, X1) == cofactor_det(sylvester_matrix(p, q, X1))


def test_resultant_swap_sign():
    rng = random.Random(13)
    trials = 0
    while trials < 20:
        p = random_poly(rng)
        q = random_poly(rng)
        m, n = p.degree_in(X2), q.degree_in(X2)
        if m < 1 or n < 1:
            continue
        trials += 1
        sign = -1 if (m * n) % 2 else 1
        assert resultant(p, q, X2) == resultant(q, p, X2) * sign


def random_root(rng):
    """A small random polynomial in x2, x3 only."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        e = (0, rng.randint(0, 2), rng.randint(0, 2))
        terms.append((e, rng.randint(-4, 4)))
    return Polynomial.from_terms(terms)


def test_resultant_from_linear_factors():
    # res_v(prod (v - a_i), prod (v - b_j)) = prod (a_i - b_j)
    rng = random.Random(5)
    x = Polynomial.variable(X1)
    for _ in range(10):
        a_vals = [random_root(rng) for _ in range(2)]
        b_vals = [random_root(rng) for _ in range(2)]
        p = (x - a_vals[0]) * (x - a_vals[1])
        q = (x - b_vals[0]) * (x - b_vals[1])
        expected = Polynomial.one()
        for a in a_vals:
            for b in b_vals:
                expected = expected * (a - b)
        assert resultant(p, q, X1) == expected


def test_resultant_multiplicative():
    rng = random.Random(21)
    trials = 0
    while trials < 10:
        p = random_poly(rng, max_terms=3, max_exp=2)
        q = random_poly(rng, max_terms=3, max_exp=2)
        r = random_poly(rng, max_terms=3, max_exp=2)
        if min(p.degree_in(X3), q.degree_in(X3), r.degree_in(X3)) < 1:
            continue
        trials += 1
        assert resultant(p * q, r, X3) == resultant(p, r, X3) * resultant(q, r, X3)


def sylvester_det(p, q, v):
    return determinant(sylvester_matrix(p, q, v))


def random_in_v(rng, degree, v, max_terms=2, max_exp=2, fractions=False):
    """A polynomial of exactly the given degree in v whose coefficients are
    small random polynomials in the other two variables."""
    others = [i for i in range(3) if i != v.index - 1]
    terms = []
    for e in range(degree + 1):
        for _ in range(rng.randint(1 if e == degree else 0, max_terms)):
            exps = [0, 0, 0]
            exps[v.index - 1] = e
            for i in others:
                exps[i] = rng.randint(0, max_exp)
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            if fractions and rng.random() < 0.5:
                c = Fraction(c, rng.randint(2, 5))
            terms.append((tuple(exps), c))
    p = Polynomial.from_terms(terms)
    if p.degree_in(v) != degree:  # the leading terms cancelled; try again
        return random_in_v(rng, degree, v, max_terms, max_exp, fractions)
    return p


def test_resultant_high_degree_matches_bareiss():
    # Degrees 4-5 in v: Sylvester matrices of size 8 to 10.
    rng = random.Random(404)
    for m, n in [(4, 4), (5, 4), (4, 5), (5, 5), (5, 3)]:
        for v in (X1, X3):
            p = random_in_v(rng, m, v)
            q = random_in_v(rng, n, v)
            assert resultant(p, q, v) == sylvester_det(p, q, v)


def test_resultant_remainder_degree_drop():
    # x1^4 + x2 mod x1^3 + x3 leaves -x3*x1 + x2: the remainder degree
    # drops by 2, so the next PRS step has delta = 2.
    p, q = P("x1^4 + x2"), P("x1^3 + x3")
    assert resultant(p, q, X1) == sylvester_det(p, q, X1)
    # x1^4 + x2 mod x1^2 + x3 is the constant x3^2 + x2: delta = 2 in the
    # first step, then a constant remainder against a degree-2 divisor.
    p, q = P("x1^4 + x2"), P("x1^2 + x3")
    assert resultant(p, q, X1) == sylvester_det(p, q, X1) == P("x2^2 + 2*x2*x3^2 + x3^4")
    # The same shapes with non-unit leading coefficients, against d*x^2 + e:
    # a*x^5 + b*x + c gives delta = 3, then a remainder of degree <= 1;
    # a*x^4 + c gives delta = 2, then a constant remainder.
    rng = random.Random(77)
    x = Polynomial.variable(X1)
    for _ in range(6):
        a, b, c, d, e = (random_in_v(rng, 0, X1) for _ in range(5))
        q = d * x**2 + e
        for p in (a * x**5 + b * x + c, a * x**4 + c):
            assert resultant(p, q, X1) == sylvester_det(p, q, X1)


def test_resultant_lower_first_degree_both_odd():
    rng = random.Random(35)
    for m, n in [(1, 3), (3, 5), (1, 5)]:
        p = random_in_v(rng, m, X2)
        q = random_in_v(rng, n, X2)
        assert resultant(p, q, X2) == sylvester_det(p, q, X2)
        assert resultant(p, q, X2) == -resultant(q, p, X2)


def test_resultant_planted_common_factor_is_zero():
    rng = random.Random(11)
    for k in (1, 2):
        common = random_in_v(rng, k, X3)
        p = common * random_in_v(rng, 2, X3)
        q = common * random_in_v(rng, 1, X3)
        assert sylvester_det(p, q, X3).is_zero()
        assert resultant(p, q, X3).is_zero()


def test_resultant_fraction_coefficients():
    rng = random.Random(8)
    for m, n in [(2, 1), (3, 2), (2, 4)]:
        p = random_in_v(rng, m, X1, fractions=True)
        q = random_in_v(rng, n, X1, fractions=True)
        assert resultant(p, q, X1) == sylvester_det(p, q, X1)
    half = Fraction(1, 2)
    assert resultant(P("x1 - x2") * half, P("x1 - x3"), X1) == P("x2 - x3") * half


def test_resultant_degree_errors():
    with pytest.raises(DegreeError):
        resultant(P("x2 + 1"), P("x1"), X1)
    with pytest.raises(DegreeError):
        resultant(P("x1"), Polynomial.zero(), X1)


# -- discriminant ---------------------------------------------------------


def test_discriminant_known_values():
    assert discriminant(P("x1^2 - x2"), X1) == P("-4*x2")
    # disc of x^2 + b x + c is 4c - b^2 under this convention
    assert discriminant(P("x1^2 + x2*x1 + x3"), X1) == P("4*x3 - x2^2")


def test_discriminant_perfect_square_vanishes():
    assert discriminant(P("x1^2 - 2*x1*x2 + x2^2"), X1).is_zero()


def test_discriminant_degree_errors():
    with pytest.raises(DegreeError):
        discriminant(P("x1 + x2"), X1)
    with pytest.raises(DegreeError):
        discriminant(P("x2^2"), X1)
