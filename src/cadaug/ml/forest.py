"""Random forest: bagged CART trees with per-split feature subsets."""

from __future__ import annotations

import math

import numpy as np

from ..seeding import derive_seed
from .tree import (
    N_CLASSES,
    DecisionTreeClassifier,
    check_count,
    check_depth,
    rank_columns,
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
    the deeper forest cut at that depth (``predict_bounded``).  Vote
    ties go to the lowest label index.
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

    def _tree_samples(self, n: int):
        """Each tree's seed and bootstrap rows (all n rows without bootstrap)."""
        for i in range(self.n_trees):
            seed = derive_seed(self.seed, f"tree:{i}")
            if self.bootstrap:
                yield seed, np.random.default_rng(seed).integers(0, n, size=n)
            else:
                yield seed, np.arange(n)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty with matching row counts")
        n, d = X.shape
        mtry = resolve_max_features(self.max_features, d)
        ranked = rank_columns(X)
        self.trees = []
        for seed, sample in self._tree_samples(n):
            tree = DecisionTreeClassifier(self.max_depth, self.min_leaf)
            tree.fit(X[sample], y[sample], seed=seed, mtry=mtry, ranked=ranked.rows(sample))
            self.trees.append(tree)
        self._n_features = d
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.trees is None:
            raise ValueError("classifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return _vote([tree.predict(X) for tree in self.trees], X.shape[0])

    def predict_bounded(
        self, X_fit: np.ndarray, y_fit: np.ndarray, X: np.ndarray, bounds: list[int | None]
    ) -> list[np.ndarray]:
        """Predictions with every tree cut at each depth in ``bounds``.

        ``(X_fit, y_fit)`` must be the rows this forest was fitted on, and
        no bound may be deeper than its own ``max_depth``.  Each tree's
        bootstrap sample is drawn again from its seed, once for all bounds,
        and the tree is cut there (``DecisionTreeClassifier.predict_bounded``);
        at its own depth the forest predicts plainly.  Each result equals
        the prediction of the forest fitted with that ``max_depth`` and
        otherwise the same parameters.
        """
        if self.trees is None:
            raise ValueError("classifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        cut = [bound for bound in bounds if bound != self.max_depth]
        votes: dict[int | None, np.ndarray] = {}
        if cut:
            per_tree = [
                tree.predict_bounded(X_fit[sample], y_fit[sample], X, cut)
                for tree, (_, sample) in zip(self.trees, self._tree_samples(len(y_fit)))
            ]
            votes = {bound: _vote(column, X.shape[0]) for bound, column in zip(cut, zip(*per_tree))}
        return [votes[bound] if bound in votes else self.predict(X) for bound in bounds]

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


def _vote(predictions: list[np.ndarray], n: int) -> np.ndarray:
    """Majority vote over per-tree predictions; ties go to the lowest label."""
    votes = np.zeros((n, N_CLASSES), dtype=np.int64)
    rows = np.arange(n)
    for predicted in predictions:
        votes[rows, predicted] += 1
    return votes.argmax(axis=1)
