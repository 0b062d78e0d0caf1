"""K-nearest-neighbour classifier over z-scored feature vectors."""

from __future__ import annotations

import numpy as np

from .scaling import Standardizer, standardize_fit
from .tree import check_count

__all__ = ["KNNClassifier", "N_CLASSES"]

N_CLASSES = 6


class KNNClassifier:
    """Plain Euclidean KNN with majority vote.

    The training matrix is standardized at fit time and the same statistics
    are applied to queries.  Distance ties are resolved by training-row
    order (stable sort); vote ties go to the lowest label index.
    """

    kind = "knn"

    def __init__(self, k: int = 5) -> None:
        self.k = check_count("k", k)
        self.stats: Standardizer | None = None
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        if self._X is None:
            raise ValueError("classifier is not fitted")
        return self._X.shape[1]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNNClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty with matching row counts")
        self.stats = standardize_fit(X) if X.shape[0] >= 2 else Standardizer(
            tuple(map(float, X[0])), (1.0,) * X.shape[1]
        )
        self._X = self.stats.transform(X)
        self._y = y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None or self._y is None or self.stats is None:
            raise ValueError("classifier is not fitted")
        Q = self.stats.transform(np.asarray(X, dtype=np.float64))
        train = self._X
        # squared Euclidean distances, clipped against tiny negative rounding
        d2 = (
            (Q * Q).sum(axis=1)[:, None]
            - 2.0 * (Q @ train.T)
            + (train * train).sum(axis=1)[None, :]
        )
        np.clip(d2, 0.0, None, out=d2)
        k = min(self.k, train.shape[0])
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = self._y[order]
        out = np.empty(Q.shape[0], dtype=np.int64)
        for i in range(Q.shape[0]):
            out[i] = int(np.bincount(votes[i], minlength=N_CLASSES).argmax())
        return out

    def to_payload(self) -> dict:
        if self._X is None or self._y is None:
            raise ValueError("classifier is not fitted")
        return {
            "k": self.k,
            "X": self._X.tolist(),
            "y": self._y.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict, stats: Standardizer) -> "KNNClassifier":
        model = cls(k=payload["k"])
        model.stats = stats
        model._X = np.asarray(payload["X"], dtype=np.float64)
        model._y = np.asarray(payload["y"], dtype=np.int64)
        return model
