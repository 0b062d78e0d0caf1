"""Random forest: bagged CART trees with per-split feature subsets."""

from __future__ import annotations

import math

import numpy as np

from ..jsonfields import json_field
from ..seeding import derive_seed
from .tree import (
    N_CLASSES,
    DecisionTreeClassifier,
    TreeArrays,
    check_count,
    check_cuttable,
    check_depth,
    rank_columns,
    route,
)

__all__ = ["RandomForestClassifier", "resolve_max_features"]


def resolve_max_features(spec: str | int | None, n_features: int) -> int | None:
    """Translate a feature-subset spec into a concrete per-split count.

    ``"sqrt"`` -> round(sqrt(d)), ``"third"`` -> d // 3, an integer is used
    as-is (clamped to [1, d]), and ``None`` means all features — which,
    together with ``bootstrap=False``, makes every tree identical to a
    plain decision tree.
    """
    if spec is None:
        return None
    if spec == "sqrt":
        return max(1, round(math.sqrt(n_features)))
    if spec == "third":
        return max(1, n_features // 3)
    if isinstance(spec, int) and not isinstance(spec, bool):
        return max(1, min(spec, n_features))
    raise ValueError(f"unknown max_features spec: {spec!r}")


class RandomForestClassifier:
    """Majority-vote ensemble of randomized CART trees.

    Tree i has seed ``derive_seed(seed, f"tree:{i}")``.  A generator on
    that seed draws the tree's bootstrap sample of the rows (unless
    ``bootstrap=False``) and nothing else; the feature subset at each
    split is keyed by the tree seed and the node's path (see
    ``tree._grow``).  The forest grown with a depth bound is therefore
    the deeper forest cut at that depth (``predict_bounded``), each cut
    node predicting the majority of its tree's bootstrap rows, recorded
    at growth.  Vote ties go to the lowest label index.
    """

    kind = "rf"
    parameters = ("n_trees", "max_depth", "min_leaf", "max_features", "bootstrap")
    bounded = "max_depth"

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int | None = None,
        min_leaf: int = 1,
        max_features: str | int | None = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if not isinstance(bootstrap, bool):
            raise TypeError(f"bootstrap must be true or false, got {bootstrap!r}")
        resolve_max_features(max_features, 1)  # raises on an unknown spec
        self.n_trees = check_count("n_trees", n_trees)
        self.max_depth = check_depth(max_depth)
        self.min_leaf = check_count("min_leaf", min_leaf)
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = int(seed)
        self.trees: list[DecisionTreeClassifier] | None = None
        self._n_features: int | None = None

    @property
    def n_features(self) -> int:
        if self._n_features is None:
            raise ValueError("classifier is not fitted")
        return self._n_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty with matching row counts")
        n, d = X.shape
        mtry = resolve_max_features(self.max_features, d)
        ranked = rank_columns(X)
        self.trees = []
        for i in range(self.n_trees):
            seed = derive_seed(self.seed, f"tree:{i}")
            if self.bootstrap:
                sample = np.random.default_rng(seed).integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeClassifier(self.max_depth, self.min_leaf)
            tree.fit(X[sample], y[sample], seed=seed, mtry=mtry, ranked=ranked.rows(sample))
            self.trees.append(tree)
        self._n_features = d
        return self

    def _fitted(self) -> list[DecisionTreeClassifier]:
        if self.trees is None:
            raise ValueError("classifier is not fitted")
        return self.trees

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _predict([tree.arrays for tree in self._fitted()], X, [None])[0]

    def predict_bounded(self, X: np.ndarray, bounds: list[int | None]) -> list[np.ndarray]:
        """Predictions with every tree cut at each depth in ``bounds``.

        No bound may be deeper than the forest's own ``max_depth``.  Each
        result equals the prediction of the forest fitted with that
        ``max_depth`` and otherwise the same parameters.  A forest read
        from a model file cannot be cut.
        """
        arrays = [check_cuttable(tree.arrays) for tree in self._fitted()]
        return _predict(arrays, X, bounds)

    def to_payload(self) -> dict:
        trees = self._fitted()
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "n_features": self._n_features,
            "trees": [tree.to_payload() for tree in trees],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RandomForestClassifier":
        """Read ``to_payload`` back; ``n_features`` must be an integer, and
        every tree's must equal it."""
        model = cls(**{name: payload[name] for name in cls.parameters}, seed=payload["seed"])
        model._n_features = json_field(payload, "n_features", int, "model file")
        trees = json_field(payload, "trees", list, "model file")
        model.trees = [DecisionTreeClassifier.from_payload(p) for p in trees]
        if any(tree.n_features != model._n_features for tree in model.trees):
            raise ValueError(
                f"model file: a tree's 'n_features' is not the forest's {model._n_features}"
            )
        return model


def _predict(arrays: list[TreeArrays], X: np.ndarray, bounds: list[int | None]) -> list[np.ndarray]:
    """The forest's vote with its trees cut at each depth in ``bounds``."""
    return [_vote(labels) for labels in route(arrays, X, bounds)]


def _vote(labels: np.ndarray) -> np.ndarray:
    """Majority vote over a ``(trees, rows)`` label array; ties go to the
    lowest label."""
    n = labels.shape[1]
    cells = labels + N_CLASSES * np.arange(n)
    return np.bincount(cells.ravel(), minlength=n * N_CLASSES).reshape(n, N_CLASSES).argmax(axis=1)
