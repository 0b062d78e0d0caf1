"""Kernel-level tests: packed keys and term-map arithmetic."""

import random
from fractions import Fraction

import pytest

from cadaug import kernels
from cadaug.poly import VARIABLES, Polynomial

x1, x2, x3 = (Polynomial.variable(v) for v in VARIABLES)


def random_kdict(rng, max_terms=6, max_exp=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = kernels.pack(*(rng.randint(0, max_exp) for _ in range(3)))
        c = rng.randint(-9, 9)
        if c:
            terms[key] = c
    return terms


def test_pack_unpack_roundtrip():
    for e in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 5, 7), (20, 20, 20), (2**20, 0, 5)]:
        assert kernels.unpack(kernels.pack(*e)) == e


def test_pack_is_additive_on_products():
    # key(m1 * m2) = key(m1) + key(m2)
    assert kernels.pack(1, 2, 3) + kernels.pack(4, 0, 1) == kernels.pack(5, 2, 4)


def test_total_degree():
    assert kernels.total_degree(kernels.pack(0, 0, 0)) == 0
    assert kernels.total_degree(kernels.pack(2, 3, 4)) == 9


def test_divides():
    assert kernels.divides(kernels.pack(1, 0, 2), kernels.pack(2, 1, 2))
    assert not kernels.divides(kernels.pack(3, 0, 0), kernels.pack(2, 5, 5))
    assert kernels.divides(kernels.pack(0, 0, 0), kernels.pack(0, 0, 0))


def test_klead_is_graded_lex():
    # x1^3 (degree 3) beats x2^2 (degree 2); within a degree the packed key
    # decides, so x3 beats x2 beats x1.
    d = {kernels.pack(3, 0, 0): 1, kernels.pack(0, 2, 0): 5}
    assert kernels.klead(d) == kernels.pack(3, 0, 0)
    d = {kernels.pack(0, 1, 0): 1, kernels.pack(0, 0, 1): 1, kernels.pack(1, 0, 0): 1}
    assert kernels.klead(d) == kernels.pack(0, 0, 1)


def test_add_sub_cancel():
    a = {kernels.pack(1, 0, 0): 2, kernels.pack(0, 1, 0): -3}
    b = {kernels.pack(1, 0, 0): -2, kernels.pack(0, 0, 1): 7}
    assert kernels.kadd(a, b) == {kernels.pack(0, 1, 0): -3, kernels.pack(0, 0, 1): 7}
    assert kernels.ksub(a, a) == {}
    assert kernels.kadd(a, kernels.kneg(a)) == {}


def test_kscale():
    a = {kernels.pack(1, 0, 0): 2, 0: -1}
    assert kernels.kscale(a, 3) == {kernels.pack(1, 0, 0): 6, 0: -3}
    assert kernels.kscale(a, 0) == {}


def test_kmul_known_product():
    # (x1 - x2) * (x1 + x2) = x1^2 - x2^2
    a = {kernels.pack(1, 0, 0): 1, kernels.pack(0, 1, 0): -1}
    b = {kernels.pack(1, 0, 0): 1, kernels.pack(0, 1, 0): 1}
    assert kernels.kmul(a, b) == {kernels.pack(2, 0, 0): 1, kernels.pack(0, 2, 0): -1}


def test_kmul_zero_and_one():
    a = {kernels.pack(2, 1, 0): 5, 0: -3}
    assert kernels.kmul(a, {}) == {}
    assert kernels.kmul({}, a) == {}
    assert kernels.kmul(a, dict(kernels.KEY_ONE)) == a


def test_kdiv_exact_roundtrip():
    rng = random.Random(7)
    for _ in range(120):
        a = random_kdict(rng)
        b = random_kdict(rng)
        if not a or not b:
            continue
        p = kernels.kmul(a, b)
        assert kernels.kdiv_exact(p, a) == b
        assert kernels.kdiv_exact(p, b) == a


def test_kdiv_exact_rejects_inexact():
    a = {kernels.pack(1, 0, 0): 1, 0: 1}  # x1 + 1
    b = {kernels.pack(1, 0, 0): 1}  # x1
    with pytest.raises(kernels.InexactDivision):
        kernels.kdiv_exact(a, b)
    with pytest.raises(kernels.InexactDivision):
        # x1^2 + 1 is not divisible by x1 + 1
        kernels.kdiv_exact({kernels.pack(2, 0, 0): 1, 0: 1}, a)


def test_kdiv_exact_rejects_inexact_lower_term():
    # x1^2 + x1 + x2 over x1 + 1: the graded-lex leading term x1^2 divides,
    # but the lower term x2 is not a multiple of x1.
    x1_plus_1 = {kernels.pack(1, 0, 0): 1, 0: 1}
    with pytest.raises(kernels.InexactDivision):
        dividend = {kernels.pack(2, 0, 0): 1, kernels.pack(1, 0, 0): 1, kernels.pack(0, 1, 0): 1}
        kernels.kdiv_exact(dividend, x1_plus_1)
    # A divisor whose graded-lex and lex leading terms differ (x1^2 and x2);
    # the dividend is a multiple of it plus x1.
    b = {kernels.pack(2, 0, 0): 1, kernels.pack(0, 1, 0): -1}
    multiple = kernels.kmul(b, {kernels.pack(1, 0, 0): 2, kernels.pack(0, 0, 1): 1})
    a = kernels.kadd(multiple, {kernels.pack(1, 0, 0): 1})
    with pytest.raises(kernels.InexactDivision):
        kernels.kdiv_exact(a, b)


def test_kdiv_exact_rejects_a_coefficient_remainder():
    # 2*x1 / (4*x1): the monomials divide, the coefficients do not; the
    # integer ring has no quotient
    with pytest.raises(kernels.InexactDivision):
        kernels.kdiv_exact({kernels.pack(1, 0, 0): 2}, {kernels.pack(1, 0, 0): 4})
    with pytest.raises(kernels.InexactDivision):
        # (2*x1 + 2) / (4*x1 + 4) through the multi-term divisor path
        kernels.kdiv_exact({kernels.pack(1, 0, 0): 2, 0: 2}, {kernels.pack(1, 0, 0): 4, 0: 4})
    assert kernels.kdiv_exact({kernels.pack(1, 0, 0): 4}, {kernels.pack(1, 0, 0): 2}) == {0: 2}


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(4, 2), 0.5])
def test_polynomials_refuse_non_integer_coefficients(coeff):
    with pytest.raises(TypeError):
        Polynomial.from_terms([((1, 0, 0), coeff)])
    with pytest.raises(TypeError):
        Polynomial.constant(coeff)
    with pytest.raises(TypeError):
        x1 * coeff


def test_kdiv_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        kernels.kdiv_exact({0: 1}, {})


def test_kdiv_zero_numerator():
    assert kernels.kdiv_exact({}, {kernels.pack(1, 0, 0): 1}) == {}


def test_polynomial_product_reaches_kmul_through_module_attribute(monkeypatch):
    # Call counting (perfbench tracing) replaces kernels.kmul; a caller that
    # imported the function directly would bypass it.
    calls = []
    original = kernels.kmul

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "kmul", counting)
    product = (x1 - x2) * (x1 + x3)
    assert len(calls) == 1
    assert product == Polynomial.from_terms(
        [((2, 0, 0), 1), ((1, 0, 1), 1), ((1, 1, 0), -1), ((0, 1, 1), -1)]
    )
