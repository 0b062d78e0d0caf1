"""Fixed-input timings of the bottom layers, through public entry points only.

``cadaug.kernels.kmul`` and ``kdiv_exact`` on 150-term operands, exact
resultants bucketed by Sylvester-matrix size, and one decision-tree fit on
a fixed 2160 x 75 matrix (the size of the augmented training set of the
450-instance acceptance experiment).  Inputs are drawn from fixed seeds,
so the figures compare across workloads and commits.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from cadaug import kernels
from cadaug.ml import DecisionTreeClassifier, N_CLASSES
from cadaug.poly import Polynomial, VARIABLES
from cadaug.resultants import resultant

__all__ = ["SYLVESTER_SIZES", "micro_metrics"]

SYLVESTER_SIZES = (4, 6, 8)
TREE_ROWS, TREE_COLUMNS = 2160, 75


def _per_call_us(fn, repeats: int = 3) -> float:
    """Median over repeats of the mean time of one call, in microseconds;
    each repeat makes enough calls to last about 20 ms."""
    start = time.perf_counter()
    fn()
    calls = max(1, int(0.02 / (time.perf_counter() - start)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def _random_kdict(rng: random.Random, n_terms: int, max_exp: int) -> dict[int, int]:
    out: dict[int, int] = {}
    while len(out) < n_terms:
        key = kernels.pack(*(rng.randint(0, max_exp) for _ in range(3)))
        out[key] = rng.randint(-99, 99) or 1
    return out


def _random_poly(rng: random.Random, degree_in_x3: int) -> Polynomial:
    """A polynomial of the given degree in x3 with small x1, x2 coefficients."""
    terms = []
    for e3 in range(degree_in_x3 + 1):
        for _ in range(2):
            terms.append(((rng.randint(0, 2), rng.randint(0, 2), e3), rng.choice((-3, -2, -1, 1, 2, 3))))
    terms.append(((0, 0, degree_in_x3), 1))
    return Polynomial.from_terms(terms)


def _tree_data() -> tuple[np.ndarray, np.ndarray]:
    """Discrete columns (at most 13 values each) and labels that a few
    columns predict, with 20% label noise."""
    rng = np.random.default_rng(20240817)
    X = rng.integers(0, 13, size=(TREE_ROWS, TREE_COLUMNS)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] + 2 * X[:, 2]).astype(np.int64) % N_CLASSES
    noisy = rng.random(TREE_ROWS) < 0.2
    y[noisy] = rng.integers(0, N_CLASSES, size=int(noisy.sum()))
    return X, y


def micro_metrics() -> dict[str, float]:
    rng = random.Random(20240817)
    a = _random_kdict(rng, 150, 10)
    b = _random_kdict(rng, 150, 10)
    product = kernels.kmul(a, b)
    m = {
        "kernels.kmul_150_us": _per_call_us(lambda: kernels.kmul(a, b)),
        "kernels.kdiv_exact_150_us": _per_call_us(lambda: kernels.kdiv_exact(product, a)),
    }
    x3 = VARIABLES[2]
    for size in SYLVESTER_SIZES:
        p = _random_poly(rng, size // 2)
        q = _random_poly(rng, size - size // 2)
        m[f"resultants.sylvester_{size}_us"] = _per_call_us(lambda: resultant(p, q, x3))
    X, y = _tree_data()
    m[f"ml.tree.fit_{TREE_ROWS}_us"] = _per_call_us(lambda: DecisionTreeClassifier().fit(X, y))
    return m
