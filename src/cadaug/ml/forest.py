"""Random forest: bagged CART trees with per-split feature subsets."""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Callable, Iterator

import numpy as np

from ..jsonfields import json_field, object_head
from ..seeding import derive_seed
from .tree import (
    N_CLASSES,
    DecisionTreeClassifier,
    Growth,
    TreeArrays,
    check_count,
    check_cuttable,
    check_depth,
    grow,
    route,
)

__all__ = ["RandomForestClassifier", "SharedGrowth", "resolve_max_features"]


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
    ``tree.grow``, which grows all the trees together, level by level).
    Each tree is therefore the tree ``DecisionTreeClassifier`` grows alone
    on its sample with its seed, and the forest grown with a depth bound
    is the deeper forest cut at that depth (``predict_bounded``), each
    cut node predicting the majority of its tree's bootstrap rows,
    recorded at growth.  Vote ties go to the lowest label index.
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

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        grown: Callable[[int], TreeArrays] | None = None,
    ) -> "RandomForestClassifier":
        """Grow the trees (see ``growth``), each fitted through
        ``DecisionTreeClassifier.fit``.

        ``grown(i)``, if given, returns tree i's arrays from a growth
        shared with other forests (``SharedGrowth``); cross-validation
        passes it to grow the forests of several folds at once.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty with matching row counts")
        n, d = X.shape
        if grown is None:
            grown = SharedGrowth(X, y).add(self.growth(np.arange(n), d))
        self.trees = [
            DecisionTreeClassifier(self.max_depth, self.min_leaf).fit(X, y, grown=partial(grown, i))
            for i in range(self.n_trees)
        ]
        self._n_features = d
        return self

    def growth(self, rows: np.ndarray, n_features: int) -> Growth:
        """The trees that ``fit`` grows on ``X[rows]``, a matrix of
        ``n_features`` columns.

        Tree i has seed ``derive_seed(seed, f"tree:{i}")`` and is grown on
        ``rows[sample]``, where ``sample`` is its bootstrap draw of
        ``len(rows)`` positions from a generator on that seed (all
        positions without ``bootstrap``).
        """
        n = len(rows)
        seeds = [derive_seed(self.seed, f"tree:{i}") for i in range(self.n_trees)]
        if self.bootstrap:
            samples = [rows[np.random.default_rng(seed).integers(0, n, size=n)] for seed in seeds]
        else:
            samples = [rows] * self.n_trees
        mtry = resolve_max_features(self.max_features, n_features)
        return Growth(samples, seeds, (self.max_depth, self.min_leaf, mtry))

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
        return {**self._settings(), "trees": [tree.to_payload() for tree in self._fitted()]}

    def payload_text(self) -> Iterator[str]:
        """``json.dumps(self.to_payload())`` in pieces, one per tree, so
        that one tree at a time is held as nested dicts and text."""
        trees = self._fitted()
        yield object_head(self._settings(), "trees") + "["
        for i, tree in enumerate(trees):
            yield (", " if i else "") + json.dumps(tree.to_payload())
        yield "]}"

    def _settings(self) -> dict:
        """The payload's fields other than ``trees``, in file order."""
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "n_features": self._n_features,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RandomForestClassifier":
        """Read ``to_payload`` back; ``trees`` must hold ``n_trees`` trees,
        and ``n_features`` must be an integer that every tree's equals."""
        model = cls(**{name: payload[name] for name in cls.parameters}, seed=payload["seed"])
        model._n_features = json_field(payload, "n_features", int, "model file")
        trees = json_field(payload, "trees", list, "model file")
        if len(trees) != model.n_trees:
            raise ValueError(f"model file: 'trees' holds {len(trees)} trees, not {model.n_trees}")
        model.trees = [DecisionTreeClassifier.from_payload(p) for p in trees]
        if any(tree.n_features != model._n_features for tree in model.trees):
            raise ValueError(
                f"model file: a tree's 'n_features' is not the forest's {model._n_features}"
            )
        return model


class SharedGrowth:
    """The trees of one or more fits on rows of one ``X``, grown together
    (``tree.grow``) on the first request for any of them.

    Each fit adds its ``Growth``, and each of its trees is still fitted
    through ``DecisionTreeClassifier.fit``, which asks for its tree here:
    the growth runs inside the first tree fit, and each fit returns its
    own tree.  The benchmark's tracer times and counts trees at that
    method.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        self._X, self._y = X, y
        self._samples: list[np.ndarray] = []
        self._seeds: list[int | None] = []
        self._params: tuple | None = None
        self._trees: list[TreeArrays] | None = None

    def add(self, growth: Growth) -> Callable[..., TreeArrays]:
        """Take on ``growth``'s trees; returns ``grown``, where
        ``grown(i)`` is its tree i and ``grown()`` its first.  Every
        growth added must have the same ``params``."""
        if self._params is not None and growth.params != self._params:
            raise ValueError("a shared growth's trees must share max_depth, min_leaf and mtry")
        self._params = growth.params
        first = len(self._samples)
        self._samples += growth.samples
        self._seeds += growth.seeds
        return partial(self._tree, first)

    def _tree(self, first: int, i: int = 0) -> TreeArrays:
        if self._trees is None:
            self._trees = grow(self._X, self._y, self._samples, self._seeds, *self._params)
        return self._trees[first + i]


def _predict(arrays: list[TreeArrays], X: np.ndarray, bounds: list[int | None]) -> list[np.ndarray]:
    """The forest's vote with its trees cut at each depth in ``bounds``."""
    return [_vote(labels) for labels in route(arrays, X, bounds)]


def _vote(labels: np.ndarray) -> np.ndarray:
    """Majority vote over a ``(trees, rows)`` label array; ties go to the
    lowest label."""
    n = labels.shape[1]
    cells = labels + N_CLASSES * np.arange(n)
    return np.bincount(cells.ravel(), minlength=n * N_CLASSES).reshape(n, N_CLASSES).argmax(axis=1)
