"""Tests for Sylvester matrices, Bareiss determinants, resultants, discriminants.

The determinant oracle here is plain cofactor expansion, implemented
independently of the Bareiss code under test.  The packed subresultant-PRS
``resultant`` is checked against both: cofactor expansion for small
Sylvester matrices, and the Bareiss determinant of the Sylvester matrix
for sizes where cofactor expansion is too slow or coefficients are large.
"""

import random
from fractions import Fraction

import pytest

from resultant_reference import determinant, sylvester_matrix

from cadaug.poly import VARIABLES, Polynomial, X1, X2, X3
from cadaug.resultants import DegreeError, discriminant, resultant, total_degree_bound

x1, x2, x3 = (Polynomial.variable(v) for v in VARIABLES)


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
    p = x1**2 + 3*x1 - x2  # degree 2 in x1
    q = 2*x1 + x3  # degree 1 in x1
    m = sylvester_matrix(p, q, X1)
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    assert m[0] == [Polynomial.constant(1), Polynomial.constant(3), -x2]
    assert m[1] == [Polynomial.constant(2), x3, Polynomial.constant(0)]
    assert m[2] == [Polynomial.constant(0), Polynomial.constant(2), x3]


def test_sylvester_requires_degree_one():
    with pytest.raises(DegreeError):
        sylvester_matrix(x2, x1, X1)
    with pytest.raises(DegreeError):
        sylvester_matrix(x1, Polynomial.constant(5), X1)


# -- determinant ----------------------------------------------------------


def test_determinant_small_known():
    assert determinant([[x1]]) == x1
    assert determinant([[Polynomial.constant(1), x2], [x1, Polynomial.constant(1)]]) == 1 - x1*x2
    # singular: second row is a multiple of the first
    assert determinant([[x1, x2], [2*x1, 2*x2]]).is_zero()


def test_determinant_needs_pivot_swap():
    # zero in the corner forces a row swap and a sign flip
    m = [
        [Polynomial.constant(0), Polynomial.constant(1)],
        [Polynomial.constant(1), Polynomial.constant(0)],
    ]
    assert determinant(m) == Polynomial.constant(-1)


def test_determinant_rejects_ragged():
    with pytest.raises(ValueError):
        determinant([[Polynomial.constant(1), Polynomial.constant(2)], [Polynomial.constant(3)]])


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
    assert resultant(x1 - x2, x1 - x3, X1) == x2 - x3


def test_resultant_quadratic_linear():
    assert resultant(x1**2 - x3, x1 - x2, X1) == x2**2 - x3


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


def big_in_v(rng, degree, v, bits=200, max_terms=2, max_exp=2):
    """Like random_in_v, with coefficients of either sign up to 2^bits."""
    small = random_in_v(rng, degree, v, max_terms, max_exp)
    return Polynomial.from_terms(
        (e, c * rng.randint(1, 2**bits) * rng.choice((-1, 1))) for e, c in small.terms()
    )


def test_resultant_high_degree_matches_bareiss():
    # Degrees 4-5 in v: Sylvester matrices of size 8 to 10.
    rng = random.Random(404)
    for m, n in [(4, 4), (5, 4), (4, 5), (5, 5), (5, 3)]:
        for v in VARIABLES:
            p = random_in_v(rng, m, v)
            q = random_in_v(rng, n, v)
            assert resultant(p, q, v) == sylvester_det(p, q, v)


def test_resultant_big_coefficients_every_variable():
    # Coefficients up to 2^200 of both signs, eliminating each variable.
    rng = random.Random(2024)
    for v in VARIABLES:
        for m, n in [(1, 1), (2, 1), (1, 3), (3, 2), (3, 3)]:
            p = big_in_v(rng, m, v)
            q = big_in_v(rng, n, v)
            assert resultant(p, q, v) == sylvester_det(p, q, v)


def test_resultant_coefficient_needs_top_byte_of_its_slot():
    # res_v(K*u*v + K*w, +-(K*u*v - K*w)) = -+2 K^2 u w, while the slot
    # bound is ||p||_1 * ||q||_1 = 4 K^2: the coefficient is one bit short
    # of the bound, so it reaches into the top byte of its slot.
    for v in VARIABLES:
        x, u, w = (Polynomial.variable(y) for y in (v, *(y for y in VARIABLES if y != v)))
        for k in (2**100, 2**100 + 12345, -(2**100 - 1)):
            for sign in (1, -1):
                p = k * u * x + k * w
                q = sign * (k * u * x - k * w)
                res = resultant(p, q, v)
                assert res == sylvester_det(p, q, v) == -2 * sign * k**2 * u * w
                width = ((4 * k**2).bit_length() + 2 + 7) // 8
                assert (2 * k**2).bit_length() + 1 > 8 * (width - 1)


def test_total_degree_bound_holds_and_is_attained():
    # deg res_v(p, q) <= n deg p + m deg q - m n; the packing box is cut
    # to this bound, so a resultant that reached past it would come back
    # wrong against the Bareiss determinant.
    def bound(p, q, v):
        return total_degree_bound(p.degree_in(v), q.degree_in(v), p.total_degree, q.total_degree)

    rng = random.Random(77)
    for v in VARIABLES:
        for m, n in [(1, 1), (2, 1), (3, 2), (2, 4), (4, 4)]:
            p = random_in_v(rng, m, v, max_exp=3)
            q = random_in_v(rng, n, v, max_exp=3)
            res = resultant(p, q, v)
            assert res == sylvester_det(p, q, v)
            assert res.total_degree <= bound(p, q, v)
    for k in (2, 5, 9):
        p = x1**k + x2**k + x3**k
        assert bound(p, p.derivative(X1), X1) == k * (k - 1) == discriminant(p, X1).total_degree
    # dense and generic: the bound is the Bezout bound deg p * deg q
    p = (x1 + x2 + x3 + 1) ** 3 - 2 * x1 * x2
    q = (x1 - 2 * x2 + 3 * x3 - 1) ** 2 + x3
    assert bound(p, q, X2) == 6 == resultant(p, q, X2).total_degree


def test_resultant_remainder_degree_drop():
    # x1^4 + x2 mod x1^3 + x3 leaves -x3*x1 + x2: the remainder degree
    # drops by 2, so the next PRS step has delta = 2.
    p, q = x1**4 + x2, x1**3 + x3
    assert resultant(p, q, X1) == sylvester_det(p, q, X1)
    # x1^4 + x2 mod x1^2 + x3 is the constant x3^2 + x2: delta = 2 in the
    # first step, then a constant remainder against a degree-2 divisor.
    p, q = x1**4 + x2, x1**2 + x3
    assert resultant(p, q, X1) == sylvester_det(p, q, X1) == x2**2 + 2*x2*x3**2 + x3**4
    # The same shapes with non-unit leading coefficients, against d*x^2 + e:
    # a*x^5 + b*x + c gives delta = 3, then a remainder of degree <= 1;
    # a*x^4 + c gives delta = 2, then a constant remainder.
    def bound(p, q, v):
        return total_degree_bound(p.degree_in(v), q.degree_in(v), p.total_degree, q.total_degree)

    rng = random.Random(77)
    x = Polynomial.variable(X1)
    for _ in range(6):
        a, b, c, d, e = (random_in_v(rng, 0, X1) for _ in range(5))
        q = d * x**2 + e
        for p in (a * x**5 + b * x + c, a * x**4 + c):
            assert resultant(p, q, X1) == sylvester_det(p, q, X1)
    # And with coefficients up to 2^120, eliminating each variable.
    rng = random.Random(78)
    for v in VARIABLES:
        x = Polynomial.variable(v)
        for _ in range(2):
            a, b, c, d, e = (big_in_v(rng, 0, v, bits=120) for _ in range(5))
            q = d * x**2 + e
            for p in (a * x**5 + b * x + c, a * x**4 + c):
                assert resultant(p, q, v) == sylvester_det(p, q, v)


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
    rng = random.Random(12)
    for v in VARIABLES:
        common = big_in_v(rng, 1, v, bits=80)
        p = common * big_in_v(rng, 2, v, bits=80)
        q = common * big_in_v(rng, 1, v, bits=80)
        assert sylvester_det(p, q, v).is_zero()
        assert resultant(p, q, v).is_zero()


def test_resultant_fraction_coefficients():
    rng = random.Random(8)
    for m, n in [(2, 1), (3, 2), (2, 4)]:
        p = random_in_v(rng, m, X1, fractions=True)
        q = random_in_v(rng, n, X1, fractions=True)
        assert resultant(p, q, X1) == sylvester_det(p, q, X1)
    half = Fraction(1, 2)
    assert resultant((x1 - x2) * half, x1 - x3, X1) == (x2 - x3) * half
    # Denominators beyond one slot's width, eliminating each variable.
    rng = random.Random(9)
    for v in VARIABLES:
        for m, n in [(1, 2), (3, 2)]:
            p = random_in_v(rng, m, v, fractions=True) * Fraction(1, 2**70 + 1)
            q = random_in_v(rng, n, v, fractions=True) * Fraction(-3**40, 7)
            assert resultant(p, q, v) == sylvester_det(p, q, v)


def test_operand_met_in_many_resultants_gives_the_oracle_answer_every_time():
    # each operand's integer form is computed once and kept on the
    # polynomial; a polynomial reused in many resultants, in either place
    # and eliminating each variable, and an equal polynomial built
    # separately must give the Bareiss determinant every time
    rng = random.Random(606)

    def operand():
        while True:
            p = random_poly(rng, max_terms=5, max_exp=2)
            if rng.random() < 0.5:
                p = p * Fraction(rng.randint(1, 5), rng.randint(2, 7))
            if all(p.degree_in(v) for v in VARIABLES):
                return p

    for _ in range(3):
        p = operand()
        twin = Polynomial.from_terms(p.terms())
        assert twin == p and twin is not p
        others = [operand() for _ in range(3)]
        for v in VARIABLES:
            for q in others:
                forward, backward = sylvester_det(p, q, v), sylvester_det(q, p, v)
                for same in (p, twin, p):
                    assert resultant(same, q, v) == forward
                    assert resultant(q, same, v) == backward
            if p.degree_in(v) >= 2:
                expect = sylvester_det(p, p.derivative(v), v)
                for same in (p, twin, p):
                    assert discriminant(same, v) == expect


def test_resultant_of_integral_fraction_coefficients():
    # x1/2 + x1/2 holds its x1 coefficient as the int 1; a term map built
    # directly may still hold Fraction(1, 1), and resultants take it too
    half = Fraction(1, 2)
    p = x1 * half + x1 * half - x2
    assert all(type(c) is int for c in p.raw.values())
    assert resultant(p, x1 - x3, X1) == sylvester_det(p, x1 - x3, X1) == x2 - x3
    assert discriminant(p * p + x3, X1) == sylvester_det(p * p + x3, 2 * p, X1)

    def as_fractions(q):
        return Polynomial({k: Fraction(c) for k, c in q.raw.items()})

    assert resultant(as_fractions(p), x1 - x3, X1) == x2 - x3
    assert discriminant(as_fractions(p * p + x3), X1) == sylvester_det(p * p + x3, 2 * p, X1)


def test_resultant_degree_errors():
    with pytest.raises(DegreeError):
        resultant(x2 + 1, x1, X1)
    with pytest.raises(DegreeError):
        resultant(x1, Polynomial.zero(), X1)


# -- discriminant ---------------------------------------------------------


def test_discriminant_known_values():
    assert discriminant(x1**2 - x2, X1) == -4*x2
    # disc of x^2 + b x + c is 4c - b^2 under this convention
    assert discriminant(x1**2 + x2*x1 + x3, X1) == 4*x3 - x2**2


def test_discriminant_perfect_square_vanishes():
    assert discriminant(x1**2 - 2*x1*x2 + x2**2, X1).is_zero()


def test_discriminant_degree_errors():
    with pytest.raises(DegreeError):
        discriminant(x1 + x2, X1)
    with pytest.raises(DegreeError):
        discriminant(x2**2, X1)
