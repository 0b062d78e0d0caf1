"""Tests for exact trivariate polynomial arithmetic and canonical text form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadaug.poly import VARIABLES, Polynomial, PolynomialParseError, Variable, X1, X2, X3
from cadaug.symmetry import ALL_PERMUTATIONS, Permutation

P = Polynomial.parse

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
exponents = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
polys = st.lists(st.tuples(exponents, coeffs), max_size=6).map(Polynomial.from_terms)


# -- construction and canonical form --------------------------------------


def test_zero_and_constant():
    assert Polynomial.zero().is_zero()
    assert Polynomial.constant(0).is_zero()
    assert Polynomial.constant(Fraction(4, 2)).constant_value() == 2
    assert isinstance(Polynomial.constant(Fraction(4, 2)).constant_value(), int)


def test_from_terms_merges_and_drops_zeros():
    p = Polynomial.from_terms([((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), 5)])
    assert p == Polynomial.from_terms([((0, 1, 0), 5)])
    assert len(p.raw) == 1


def test_from_terms_rejects_exponents_a_key_cannot_hold():
    # Unchecked, (-1, 1, 0) borrowed from the x2 field (x1^2097151*x2^2097151*x3)
    # and 2^21 carried into it (x2).
    for exponents in [(-1, 1, 0), (2**21, 0, 0), (0, 0, 2**21)]:
        with pytest.raises(ValueError):
            Polynomial.from_terms([(exponents, 1)])
    top = Polynomial.from_terms([((2**21 - 1, 0, 1), 1)])
    assert top.degree_in(X1) == 2**21 - 1 and top.degree_in(X2) == 0


def test_variables_and_degrees():
    p = P("x1^3*x2 - x3 + 2")
    assert p.variables() == {X1, X2, X3}
    assert p.total_degree == 4
    assert p.degree_in(X1) == 3
    assert p.degree_in(X2) == 1
    assert p.degree_in(X3) == 1
    assert p.contains(X3)
    assert not P("x1 + x2").contains(X3)
    assert Polynomial.zero().degree_in(X1) == 0
    assert Polynomial.constant(5).total_degree == 0


def test_terms_are_graded_lex_descending():
    p = P("x1 + x3 + x2^2 + 1")
    degrees = [sum(exponents) for exponents, _ in p.terms()]
    assert degrees == sorted(degrees, reverse=True)
    # within degree 1 the order is x3, x2, x1
    assert [exponents for exponents, _ in p.terms()] == [(0, 2, 0), (0, 0, 1), (1, 0, 0), (0, 0, 0)]


# -- arithmetic -----------------------------------------------------------


def test_known_product():
    assert P("x1 - x2") * P("x1 + x2") == P("x1^2 - x2^2")
    assert P("x1 + x2 + x3") ** 2 == P(
        "x1^2 + x2^2 + x3^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3"
    )


def test_scalar_mixing():
    p = P("x1 - 1")
    assert 2 * p == P("2*x1 - 2")
    assert p * Fraction(1, 2) == P("1/2*x1 - 1/2")
    assert p + 1 == P("x1")
    assert 1 - p == P("2 - x1")


def test_pow_edge_cases():
    p = P("x1 + x2")
    assert p ** 0 == Polynomial.one()
    assert p ** 1 == p
    assert Polynomial.zero() ** 0 == Polynomial.one()
    with pytest.raises(ValueError):
        p ** -1


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero() == a
    assert a * Polynomial.one() == a
    assert a - a == Polynomial.zero()


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_no_zero_coefficients_survive(a, b):
    for p in (a + b, a - b, a * b):
        assert all(c != 0 for c in p.raw.values())


# -- calculus and structure -----------------------------------------------


def test_derivative_known():
    p = P("x1^3*x2 + x3 - 4")
    assert p.derivative(X1) == P("3*x1^2*x2")
    assert p.derivative(X2) == P("x1^3")
    assert p.derivative(X3) == Polynomial.one()
    assert Polynomial.constant(7).derivative(X1).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_derivative_product_rule(a, b):
    for v in VARIABLES:
        lhs = (a * b).derivative(v)
        rhs = a.derivative(v) * b + a * b.derivative(v)
        assert lhs == rhs


def test_coefficients_wrt():
    p = P("x1^2*x3 + x1*x2 - 5")
    cs = p.coefficients_wrt(X1)
    assert len(cs) == 3
    assert cs[0] == P("-5")
    assert cs[1] == P("x2")
    assert cs[2] == P("x3")


@settings(max_examples=40, deadline=None)
@given(polys)
def test_coefficients_wrt_reconstruct(p):
    for v in VARIABLES:
        xv = Polynomial.variable(v)
        total = Polynomial.zero()
        for i, c in enumerate(p.coefficients_wrt(v)):
            assert not c.contains(v)
            total = total + c * xv ** i
        assert total == p


def test_rename_moves_exponents():
    sigma = Permutation.swap(1, 2)
    assert P("x1^2 - x2").rename(sigma) == P("x2^2 - x1")
    tau = Permutation((2, 3, 1))  # x1->x2, x2->x3, x3->x1
    assert P("x1*x3^3").rename(tau) == P("x2*x1^3")


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_rename_is_ring_homomorphism(a, b):
    for sigma in ALL_PERMUTATIONS:
        assert (a + b).rename(sigma) == a.rename(sigma) + b.rename(sigma)
        assert (a * b).rename(sigma) == a.rename(sigma) * b.rename(sigma)


@settings(max_examples=30, deadline=None)
@given(polys)
def test_rename_composition(p):
    for sigma in ALL_PERMUTATIONS:
        for tau in ALL_PERMUTATIONS:
            assert p.rename(sigma).rename(tau) == p.rename(tau.compose(sigma))
        assert p.rename(sigma).rename(sigma.inverse()) == p


def test_evaluate():
    p = P("x1^2 - 2*x2*x3 + 1/2")
    value = p.evaluate({X1: 3, X2: Fraction(1, 2), X3: 4})
    assert value == 9 - 4 + Fraction(1, 2)
    assert P("7").evaluate({}) == 7


@settings(max_examples=40, deadline=None)
@given(polys, polys, st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_evaluate_respects_arithmetic(a, b, v1, v2, v3):
    point = {X1: v1, X2: v2, X3: v3}
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


# -- normal forms ---------------------------------------------------------


def test_cleared_denominators():
    p = P("1/2*x1 + 1/3*x2")
    q = p.cleared_denominators()
    assert q == P("3*x1 + 2*x2")
    assert all(isinstance(c, int) for c in q.raw.values())
    assert P("2*x1").cleared_denominators() == P("2*x1")


def test_sign_normalized():
    # leading term of x2 - x1 under graded lex is +x2: already normal
    assert P("x2 - x1").sign_normalized() == P("x2 - x1")
    p = P("-2*x3 + x1")  # leading term is -2*x3
    assert p.sign_normalized() == P("2*x3 - x1")
    assert P("-x1^2 + x2").sign_normalized() == P("x1^2 - x2")
    assert Polynomial.zero().sign_normalized().is_zero()


def test_primitive():
    # the graded-lex leading term of both inputs is the x2 term, so the
    # normalized sign makes that coefficient positive
    assert P("4*x1 - 6*x2").primitive() == P("-2*x1 + 3*x2")
    assert P("-4*x1 + 6*x2").primitive() == P("-2*x1 + 3*x2")
    assert P("1/2*x1 - 1/4").primitive() == P("2*x1 - 1")
    assert P("5").primitive() == Polynomial.one()
    assert P("-7").primitive() == Polynomial.one()
    assert Polynomial.zero().primitive().is_zero()


@settings(max_examples=40, deadline=None)
@given(polys)
def test_primitive_is_idempotent_and_proportional(p):
    q = p.primitive()
    assert q.primitive() == q
    if not p.is_zero():
        # q = c * p for some nonzero rational c (sign may flip) and the
        # normalized leading coefficient is a positive integer
        assert q.leading_coefficient() > 0
        lead = p.leading_key()
        ratio = Fraction(q.raw[lead]) / Fraction(p.raw[lead])
        assert ratio != 0
        assert p * ratio == q


# -- text round-trip ------------------------------------------------------


def test_str_known_forms():
    assert str(Polynomial.zero()) == "0"
    assert str(P("x1")) == "x1"
    assert str(P("-x1")) == "-x1"
    assert str(P("x1^2 - x2")) == "x1^2 - x2"
    assert str(P("3/2*x1*x3 + 1")) == "3/2*x1*x3 + 1"
    assert str(P("0 + x2 - x2")) == "0"


@settings(max_examples=80, deadline=None)
@given(polys)
def test_parse_str_roundtrip(p):
    assert P(str(p)) == p


def test_parse_rejects_garbage():
    for bad in ["", "x4", "x1 +", "x1 x2", "^2", "x1^", "1/0*x1", "x1**2", "y"]:
        with pytest.raises((PolynomialParseError, ZeroDivisionError, ValueError)):
            P(bad)


def test_parse_rejects_exponent_overflow():
    # The first two used to parse as x2: 2^21 carried out of the 21-bit x1 field.
    for bad in ["x1^2097152", "x1^1048576*x1^1048576", "x3^2097151*x2 + x1*x3^2097151*x3"]:
        with pytest.raises(PolynomialParseError):
            P(bad)
    assert P("x1^2097151*x2").degree_in(X1) == 2**21 - 1
    assert P("x1^1048576 + x1^1048576") == P("2*x1^1048576")


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable(4)
    assert Variable(2).name == "x2"
