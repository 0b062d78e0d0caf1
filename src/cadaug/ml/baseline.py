"""Uniform-random baseline classifier."""

from __future__ import annotations

import numpy as np

from .tree import N_CLASSES

__all__ = ["RandomBaseline"]


class RandomBaseline:
    """Predicts a uniformly random label per row.

    The generator is re-seeded on every ``predict`` call, so predictions
    are a pure function of (seed, number of rows): repeated evaluation of
    the same dataset yields the same accuracy.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomBaseline":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("X must be a non-empty 2-d array")
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, N_CLASSES, size=X.shape[0], dtype=np.int64)
