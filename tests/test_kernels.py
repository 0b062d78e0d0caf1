"""Kernel-level tests: packed keys, term-map arithmetic, backend agreement.

The same suite must hold for the compiled backend and the pure-Python
twin, so every arithmetic test runs against both implementations.
"""

import random
from fractions import Fraction

import pytest

import cadaug._kernel_py as pure
import cadaug.kernels as kernels

BACKENDS = [pure]
if kernels.BACKEND == "c":
    from cadaug import _speedups

    BACKENDS.append(_speedups)


@pytest.fixture(params=BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def K(request):
    return request.param


def random_kdict(rng, max_terms=6, max_exp=5, fractions=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = pure.pack(rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        c = rng.randint(-9, 9)
        if fractions and rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 7))
        if c:
            terms[key] = c
    return terms


def test_pack_unpack_roundtrip(K):
    for e in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 5, 7), (20, 20, 20), (2**20, 0, 5)]:
        assert K.unpack(K.pack(*e)) == e


def test_pack_is_additive_on_products(K):
    # key(m1 * m2) = key(m1) + key(m2)
    assert K.pack(1, 2, 3) + K.pack(4, 0, 1) == K.pack(5, 2, 4)


def test_total_degree(K):
    assert K.total_degree(K.pack(0, 0, 0)) == 0
    assert K.total_degree(K.pack(2, 3, 4)) == 9


def test_divides(K):
    assert K.divides(K.pack(1, 0, 2), K.pack(2, 1, 2))
    assert not K.divides(K.pack(3, 0, 0), K.pack(2, 5, 5))
    assert K.divides(K.pack(0, 0, 0), K.pack(0, 0, 0))


def test_klead_is_graded_lex(K):
    # x1^3 (degree 3) beats x2^2 (degree 2); within a degree the packed key
    # decides, so x3 beats x2 beats x1.
    d = {K.pack(3, 0, 0): 1, K.pack(0, 2, 0): 5}
    assert K.klead(d) == K.pack(3, 0, 0)
    d = {K.pack(0, 1, 0): 1, K.pack(0, 0, 1): 1, K.pack(1, 0, 0): 1}
    assert K.klead(d) == K.pack(0, 0, 1)


def test_add_sub_cancel(K):
    a = {K.pack(1, 0, 0): 2, K.pack(0, 1, 0): -3}
    b = {K.pack(1, 0, 0): -2, K.pack(0, 0, 1): 7}
    assert K.kadd(a, b) == {K.pack(0, 1, 0): -3, K.pack(0, 0, 1): 7}
    assert K.ksub(a, a) == {}
    assert K.kadd(a, K.kneg(a)) == {}


def test_kscale(K):
    a = {K.pack(1, 0, 0): 2, 0: -1}
    assert K.kscale(a, 3) == {K.pack(1, 0, 0): 6, 0: -3}
    assert K.kscale(a, 0) == {}
    assert K.kscale(a, Fraction(1, 2)) == {K.pack(1, 0, 0): 1, 0: Fraction(-1, 2)}


def test_kmul_known_product(K):
    # (x1 - x2) * (x1 + x2) = x1^2 - x2^2
    a = {K.pack(1, 0, 0): 1, K.pack(0, 1, 0): -1}
    b = {K.pack(1, 0, 0): 1, K.pack(0, 1, 0): 1}
    assert K.kmul(a, b) == {K.pack(2, 0, 0): 1, K.pack(0, 2, 0): -1}


def test_kmul_zero_and_one(K):
    a = {K.pack(2, 1, 0): 5, 0: -3}
    assert K.kmul(a, {}) == {}
    assert K.kmul({}, a) == {}
    assert K.kmul(a, dict(K.KEY_ONE)) == a


def test_kdiv_exact_roundtrip(K):
    rng = random.Random(7)
    for _ in range(120):
        a = random_kdict(rng)
        b = random_kdict(rng, fractions=True)
        if not a or not b:
            continue
        p = K.kmul(a, b)
        assert K.kdiv_exact(p, a) == b
        assert K.kdiv_exact(p, b) == a


def test_kdiv_exact_rejects_inexact(K):
    a = {K.pack(1, 0, 0): 1, 0: 1}  # x1 + 1
    b = {K.pack(1, 0, 0): 1}  # x1
    with pytest.raises(K.InexactDivision):
        K.kdiv_exact(a, b)
    with pytest.raises(K.InexactDivision):
        # x1^2 + 1 is not divisible by x1 + 1
        K.kdiv_exact({K.pack(2, 0, 0): 1, 0: 1}, a)


def test_kdiv_exact_rejects_inexact_lower_term(K):
    # x1^2 + x1 + x2 over x1 + 1: the graded-lex leading term x1^2 divides,
    # but the lower term x2 is not a multiple of x1.
    x1_plus_1 = {K.pack(1, 0, 0): 1, 0: 1}
    with pytest.raises(K.InexactDivision):
        K.kdiv_exact({K.pack(2, 0, 0): 1, K.pack(1, 0, 0): 1, K.pack(0, 1, 0): 1}, x1_plus_1)
    # A divisor whose graded-lex and lex leading terms differ (x1^2 and x2);
    # the dividend is a multiple of it plus x1.
    b = {K.pack(2, 0, 0): 1, K.pack(0, 1, 0): -1}
    a = K.kadd(K.kmul(b, {K.pack(1, 0, 0): 2, K.pack(0, 0, 1): 1}), {K.pack(1, 0, 0): 1})
    with pytest.raises(K.InexactDivision):
        K.kdiv_exact(a, b)


def test_kdiv_by_zero_raises(K):
    with pytest.raises(ZeroDivisionError):
        K.kdiv_exact({0: 1}, {})


def test_kdiv_zero_numerator(K):
    assert K.kdiv_exact({}, {K.pack(1, 0, 0): 1}) == {}


def test_backends_agree_on_random_inputs():
    if kernels.BACKEND != "c":
        pytest.skip("compiled backend not built")
    rng = random.Random(20240817)
    for _ in range(300):
        a = random_kdict(rng, max_terms=8, fractions=True)
        b = random_kdict(rng, max_terms=8, fractions=True)
        assert pure.kadd(a, b) == _speedups.kadd(a, b)
        assert pure.ksub(a, b) == _speedups.ksub(a, b)
        assert pure.kmul(a, b) == _speedups.kmul(a, b)
        if a:
            p = pure.kmul(a, b)
            if b:
                assert pure.kdiv_exact(p, a) == _speedups.kdiv_exact(p, a)


def test_backend_selection_env(monkeypatch):
    import importlib
    import cadaug.kernels as mod

    monkeypatch.setenv("CADAUG_KERNEL", "py")
    reloaded = importlib.reload(mod)
    assert reloaded.BACKEND == "python"
    monkeypatch.setenv("CADAUG_KERNEL", "bogus")
    with pytest.raises(ValueError):
        importlib.reload(mod)
    monkeypatch.delenv("CADAUG_KERNEL")
    restored = importlib.reload(mod)
    assert restored.BACKEND in ("c", "python")
