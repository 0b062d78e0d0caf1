"""Random forest: bagged CART trees with per-split feature subsets."""

from __future__ import annotations

import math

import numpy as np

from ..seeding import derive_seed
from .tree import DecisionTreeClassifier, N_CLASSES, rank_columns

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

    Each tree gets its own seed derived from the forest seed, a bootstrap
    sample of the rows (unless ``bootstrap=False``), and a fresh random
    feature subset at every split.  Vote ties go to the lowest label index.
    """

    kind = "rf"

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int | None = None,
        min_leaf: int = 1,
        max_features: str | int | None = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        resolve_max_features(max_features, 1)  # raises on an unknown spec
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
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
            rng = np.random.default_rng(derive_seed(self.seed, f"tree:{i}"))
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                Xi, yi, ranked_i = X[sample], y[sample], ranked.rows(sample)
            else:
                Xi, yi, ranked_i = X, y, ranked
            tree = DecisionTreeClassifier(self.max_depth, self.min_leaf)
            tree.fit(Xi, yi, rng=rng, mtry=mtry, ranked=ranked_i)
            self.trees.append(tree)
        self._n_features = d
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.trees is None:
            raise ValueError("classifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((X.shape[0], N_CLASSES), dtype=np.int64)
        for tree in self.trees:
            votes[np.arange(X.shape[0]), tree.predict(X)] += 1
        return votes.argmax(axis=1)

    def to_payload(self) -> dict:
        if self.trees is None:
            raise ValueError("classifier is not fitted")
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "n_features": self._n_features,
            "trees": [tree.to_payload() for tree in self.trees],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RandomForestClassifier":
        model = cls(
            n_trees=payload["n_trees"],
            max_depth=payload["max_depth"],
            min_leaf=payload["min_leaf"],
            max_features=payload["max_features"],
            bootstrap=payload["bootstrap"],
            seed=payload["seed"],
        )
        model.trees = [DecisionTreeClassifier.from_payload(p) for p in payload["trees"]]
        model._n_features = payload["n_features"]
        return model
