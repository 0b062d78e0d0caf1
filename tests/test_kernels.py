"""Kernel-level tests: packed keys and term-map arithmetic."""

import random
from fractions import Fraction

import pytest

from cadaug import kernels
from cadaug.poly import X1, Polynomial
from cadaug.resultants import resultant


def random_kdict(rng, max_terms=6, max_exp=5, fractions=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = kernels.pack(*(rng.randint(0, max_exp) for _ in range(3)))
        c = rng.randint(-9, 9)
        if fractions and rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 7))
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
    assert kernels.kscale(a, Fraction(1, 2)) == {kernels.pack(1, 0, 0): 1, 0: Fraction(-1, 2)}


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
        b = random_kdict(rng, fractions=True)
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


def test_kdiv_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        kernels.kdiv_exact({0: 1}, {})


def test_kdiv_zero_numerator():
    assert kernels.kdiv_exact({}, {kernels.pack(1, 0, 0): 1}) == {}


def test_resultant_reaches_kernels_through_module_attributes(monkeypatch):
    # Call counting (perfbench tracing) replaces these two attributes; a
    # caller that imported the functions directly would bypass it.
    p = Polynomial.parse("x2*x1^3 + x3*x1 + 1")
    q = Polynomial.parse("x3*x1^3 + x2*x1^2 + x1 + x2")
    calls = {"kmul": 0, "kdiv_exact": 0}

    def counting(name):
        original = getattr(kernels, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kernels, name, counting(name))
    resultant(p, q, X1)
    assert calls["kmul"] > 0
    assert calls["kdiv_exact"] > 0
