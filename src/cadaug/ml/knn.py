"""K-nearest-neighbour classifier over z-scored feature vectors."""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from ..floattext import text_table
from ..jsonfields import is_number, json_field, object_head
from .scaling import Standardizer, standardize_fit
from .tree import N_CLASSES, check_count

__all__ = ["KNNClassifier"]


class KNNClassifier:
    """Plain Euclidean KNN with majority vote.

    The training matrix is standardized at fit time and the same statistics
    are applied to queries.  Distance ties are resolved by training-row
    order (stable sort); vote ties go to the lowest label index.
    """

    kind = "knn"
    parameters = ("k",)
    bounded = "k"

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
        return self._predict_each(X, [self.k])[0]

    def predict_bounded(self, X: np.ndarray, bounds: list[int]) -> list[np.ndarray]:
        """The predictions of ``KNNClassifier(k)`` fitted on the same rows
        for each ``k`` in ``bounds``: one neighbour order, each ``k``
        voting over a prefix."""
        return self._predict_each(X, bounds)

    def _predict_each(self, X: np.ndarray, ks: list[int]) -> list[np.ndarray]:
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
        reach = min(max(ks), train.shape[0])
        labels = self._y[np.argsort(d2, axis=1, kind="stable")[:, :reach]]
        votes = np.zeros((Q.shape[0], N_CLASSES), dtype=np.int64)
        rows = np.arange(Q.shape[0])
        # the vote after the first j + 1 neighbours; ties go to the lowest label
        chosen = []
        for j in range(reach):
            votes[rows, labels[:, j]] += 1
            chosen.append(votes.argmax(axis=1))
        return [chosen[min(k, reach) - 1] for k in ks]

    def to_payload(self) -> dict:
        if self._X is None or self._y is None:
            raise ValueError("classifier is not fitted")
        return {
            "k": self.k,
            "X": self._X.tolist(),
            "y": self._y.tolist(),
        }

    def payload_text(self) -> Iterator[str]:
        """``json.dumps(self.to_payload())`` in pieces, one per row of
        ``X``; each distinct value of a column is formatted once."""
        if self._X is None or self._y is None:
            raise ValueError("classifier is not fitted")
        yield object_head({"k": self.k}, "X") + "["
        for i, row in enumerate(text_table(self._X, json.dumps)):
            yield (", [" if i else "[") + ", ".join(row) + "]"
        yield '], "y": ' + json.dumps(self._y.tolist()) + "}"

    @classmethod
    def from_payload(cls, payload: dict, stats: Standardizer) -> "KNNClassifier":
        """Read ``to_payload`` back; ``X`` must hold at least one row of
        ``stats.n_features`` finite numbers and ``y`` one class index per
        row."""
        model = cls(**{name: payload[name] for name in cls.parameters})
        rows = json_field(payload, "X", list, "model file")
        labels = json_field(payload, "y", list, "model file")
        width = stats.n_features
        if not rows or not all(
            isinstance(row, list) and len(row) == width and all(map(is_number, row))
            for row in rows
        ):
            raise ValueError(f"model file: 'X' is not a non-empty array of {width}-number rows")
        if len(labels) != len(rows) or not all(
            isinstance(v, int) and not isinstance(v, bool) and 0 <= v < N_CLASSES for v in labels
        ):
            raise ValueError(f"model file: 'y' is not an array of {len(rows)} class indices")
        model.stats = stats
        model._X = np.asarray(rows, dtype=np.float64)
        model._y = np.asarray(labels, dtype=np.int64)
        return model
