"""CART decision tree with Gini impurity and midpoint thresholds."""

from __future__ import annotations

import sys
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..jsonfields import json_field

__all__ = [
    "DecisionTreeClassifier",
    "RankedColumns",
    "TreeArrays",
    "check_count",
    "check_cuttable",
    "check_depth",
    "column_draw",
    "draw_steps",
    "rank_columns",
    "route",
    "splitmix64",
    "N_CLASSES",
]

N_CLASSES = 6

_NO_LIMIT = sys.maxsize

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_count(name: str, value) -> int:
    """``value`` as an int; it must be an integer (not a bool or a float)
    of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return int(value)


def check_depth(max_depth) -> int | None:
    """A depth bound: None (unbounded) or an integer of at least 1."""
    if max_depth is None:
        return None
    try:
        return check_count("max_depth", max_depth)
    except ValueError:
        raise ValueError("max_depth must be >= 1 or None") from None


def splitmix64(x: int) -> int:
    """The SplitMix64 step: add the golden gamma, then the finalizer, mod 2^64."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def draw_steps(n_features: int) -> np.ndarray:
    """``(j + 1) * golden`` mod 2^64 for every column j, as uint64."""
    return np.arange(1, n_features + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


def column_draw(key: int, steps: np.ndarray, mtry: int) -> np.ndarray:
    """The candidate columns of the node with key ``key``, ascending.

    Column j's draw key is the SplitMix64 finalizer of
    ``key + steps[j]`` mod 2^64; the node takes the ``mtry`` columns with
    the smallest draw keys.
    """
    z = steps + np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return np.sort(np.argsort(z, kind="stable")[:mtry])


# sums over the class axis as a product: faster than .sum(axis=1) on small arrays
_ONES = np.ones(N_CLASSES, dtype=np.intp)


class RankedColumns(NamedTuple):
    """A feature matrix as histogram bins: each value is replaced by its rank.

    Column f owns the bins ``offsets[f] .. offsets[f] + widths[f] - 1``, one
    per distinct value of the column in ascending order, and ``values``
    holds those distinct values bin by bin.  ``codes[i, f]`` is
    ``N_CLASSES`` times the bin of row i in column f, so adding a row's
    label gives its (bin, class) cell of a flat class histogram.
    """

    codes: np.ndarray
    offsets: np.ndarray
    widths: np.ndarray
    values: np.ndarray

    def rows(self, sample: np.ndarray) -> "RankedColumns":
        """The encoding of ``X[sample]`` (bins and values stay those of X)."""
        return self._replace(codes=self.codes[sample])


def rank_columns(X: np.ndarray) -> RankedColumns:
    """Rank-encode every column of a finite float matrix."""
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    new = np.ones(X.shape, dtype=bool)
    new[1:] = ordered[1:] > ordered[:-1]
    ranks = np.cumsum(new, axis=0) - 1
    widths = ranks[-1] + 1
    offsets = np.cumsum(widths) - widths
    codes = np.empty(X.shape, dtype=np.intp)
    np.put_along_axis(codes, order, (ranks + offsets) * N_CLASSES, axis=0)
    return RankedColumns(codes, offsets, widths, ordered.T[new.T])


def _best_split(
    cells: np.ndarray,
    counts: np.ndarray,
    n_bins: int,
    min_leaf: int,
) -> tuple[int, int, int] | None:
    """Best split of a node over its candidate columns, or None.

    ``cells`` holds, for the node's m rows and the k candidate columns
    (whose bins lie end to end, ``n_bins`` in all), each row's flat
    (bin, class) histogram cell; ``counts`` are the node's class counts.
    One ``bincount`` gives the class histogram of every column, and its
    running sum the class counts left of every bin boundary, because each
    column's bins hold all m rows (column j's running sum starts at
    ``j * counts``).  The split quality
    sum(left_counts^2)/n_left + sum(right_counts^2)/n_right (an affine
    rescaling of negative weighted Gini) is maximized over the boundaries
    after occupied bins, which are exactly the boundaries between adjacent
    distinct values in the node.  The squares are exact integers, so the
    scores equal those of a sorted scan.  The first maximum of the
    column-major bin order breaks ties toward the lowest feature index,
    then the lowest threshold.

    Returns ``(j, lo, hi)``: the candidate's index and the bins of the
    adjacent occupied values the threshold falls between.
    """
    m = cells.shape[0]
    if m < 2 * min_leaf or m < 2:
        return None
    hist = np.bincount(cells.ravel(), minlength=n_bins * N_CLASSES)
    cum = hist.reshape(n_bins, N_CLASSES).cumsum(axis=0)
    through = cum @ _ONES
    # rows of the bin's own column at or below it; 0 at a column's end
    n_left = through % m
    allowed = n_left >= min_leaf
    if min_leaf > 1:
        allowed &= n_left <= m - min_leaf
    cut = np.flatnonzero(allowed)
    if cut.size == 0:
        return None
    # an empty bin repeats the boundary of the occupied bin before it
    # and so never scores first
    column = through[cut] // m
    n_left = n_left[cut]
    left = cum[cut] - column[:, None] * counts
    right = counts - left
    score = ((left * left) @ _ONES) / n_left + ((right * right) @ _ONES) / (m - n_left)
    best = int(score.argmax())
    lo = int(cut[best])
    hi = lo + 1 + int((through[lo + 1 :] > through[lo]).argmax())
    return int(column[best]), lo, hi


class TreeArrays(NamedTuple):
    """A fitted tree as preorder node arrays (the root is node 0).

    A split node sends a row to ``left`` when its value in column
    ``feature`` is at most ``threshold``, else to ``right``.  A leaf points
    to itself on both sides.  ``value`` is the majority label of the
    fitting rows that reach each node, split nodes included, so the node
    a row holds after d steps is its prediction with the tree cut at
    depth d.  A tree read from a model file has only leaf labels: its
    split nodes hold ``_UNKNOWN``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def depth(self) -> int:
        """Number of split levels below the root (a lone leaf has depth 0)."""
        level, frontier = 0, np.zeros(1, dtype=np.intp)
        while True:
            frontier = frontier[self.left[frontier] != frontier]
            if frontier.size == 0:
                return level
            frontier = np.concatenate([self.left[frontier], self.right[frontier]])
            level += 1

    def to_dict(self) -> dict:
        """The nested-dict form of model files: split nodes hold
        ``feature``, ``threshold``, ``left`` and ``right``, leaves ``label``."""
        leaf = self.left == np.arange(self.left.size)
        nodes = [
            {"label": value} if is_leaf else {"feature": feature, "threshold": threshold}
            for is_leaf, feature, threshold, value in zip(
                leaf.tolist(), self.feature.tolist(), self.threshold.tolist(), self.value.tolist()
            )
        ]
        for node, left, right in zip(nodes, self.left.tolist(), self.right.tolist()):
            if "feature" in node:
                node["left"] = nodes[left]
                node["right"] = nodes[right]
        return nodes[0]

    @classmethod
    def from_dict(cls, root: dict, n_features: int) -> "TreeArrays":
        """Read the nested-dict form back; a node with a missing, mistyped
        or out-of-range key is a ``ValueError``."""
        nodes = _Preorder()
        stack: list[tuple[Any, int]] = [(root, -1)]
        while stack:
            node, right_of = stack.pop()
            if not isinstance(node, dict):
                raise ValueError(f"{_NODE}: not an object")
            if "label" in node:
                label = json_field(node, "label", int, _NODE)
                if not 0 <= label < N_CLASSES:
                    raise ValueError(f"{_NODE}: label {label} is not a class index")
                nodes.add(label, right_of)
                continue
            feature = json_field(node, "feature", int, _NODE)
            if not 0 <= feature < n_features:
                raise ValueError(f"{_NODE}: feature {feature} is not a column index")
            threshold = float(json_field(node, "threshold", float, _NODE))
            index = nodes.add(_UNKNOWN, right_of)
            nodes.split(index, feature, threshold)
            stack.append((json_field(node, "right", dict, _NODE), index))
            stack.append((json_field(node, "left", dict, _NODE), -1))
        return nodes.arrays()


_UNKNOWN = -1
_NODE = "model file tree node"


class _Preorder:
    """Node arrays filled in preorder, left child first: a split node's
    left child is the node added next, and its right child is linked when
    it is added."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[int] = []

    def add(self, value: int, right_of: int) -> int:
        """Add a leaf predicting ``value``, the right child of node
        ``right_of`` (-1: a left child or the root); return its index."""
        node = len(self.value)
        if right_of >= 0:
            self.right[right_of] = node
        self.feature.append(0)
        self.threshold.append(0.0)
        self.left.append(node)
        self.right.append(node)
        self.value.append(value)
        return node

    def split(self, node: int, feature: int, threshold: float) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = node + 1

    def arrays(self) -> TreeArrays:
        return TreeArrays(
            np.array(self.feature, dtype=np.intp),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.left, dtype=np.intp),
            np.array(self.right, dtype=np.intp),
            np.array(self.value, dtype=np.int64),
        )


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    ranked: RankedColumns,
    max_depth: int,
    min_leaf: int,
    seed: int | None,
    mtry: int | None,
) -> TreeArrays:
    """Grow a tree iteratively (preorder, left child first).

    With ``mtry`` below the column count, each node draws its candidate
    columns from its own key (``column_draw``): the root's key is
    ``splitmix64(seed)`` and a node's left and right children have keys
    ``splitmix64(key ^ 1)`` and ``splitmix64(key ^ 2)``.  A node's draw
    thus depends only on the seed and its path, never on which other
    nodes were split, so the tree grown with a depth bound is the deeper
    tree cut there.
    """
    n_features = X.shape[1]
    cells = ranked.codes + y[:, None]
    offsets, widths, values = ranked.offsets, ranked.widths, ranked.values
    all_columns = np.arange(n_features)
    all_bins = int(widths.sum())
    no_shift = np.zeros(n_features, dtype=np.intp)
    drawing = mtry is not None and mtry < n_features
    if drawing:
        assert seed is not None
        steps = draw_steps(n_features)
    nodes = _Preorder()
    # each entry: the node's rows, depth and key, and the node whose right
    # child it is (-1 for a left child or the root)
    stack: list[tuple[np.ndarray, int, int, int]] = [
        (np.arange(X.shape[0]), 0, splitmix64(seed) if drawing else 0, -1)
    ]
    while stack:
        idx, depth, key, right_of = stack.pop()
        counts = np.bincount(y[idx], minlength=N_CLASSES)
        majority = int(counts.argmax())
        node = nodes.add(majority, right_of)
        if depth >= max_depth or counts[majority] == idx.size:
            continue
        if drawing:
            columns = column_draw(key, steps, mtry)
            # move the candidates' bins end to end; shift maps them back
            column_widths = widths[columns]
            ends = column_widths.cumsum()
            shift = offsets[columns] - (ends - column_widths)
            node_cells = cells[idx[:, None], columns] - shift * N_CLASSES
            n_bins = int(ends[-1])
        else:
            columns, shift, node_cells, n_bins = all_columns, no_shift, cells[idx], all_bins
        found = _best_split(node_cells, counts, n_bins, min_leaf)
        if found is None:
            continue
        j, lo, hi = found
        feature = int(columns[j])
        low = float(values[lo + shift[j]])
        threshold = low + (float(values[hi + shift[j]]) - low) / 2.0
        # the midpoint of adjacent floats can round up to the upper value
        mask = X[idx, feature] <= threshold
        if not 0 < np.count_nonzero(mask) < idx.size:
            continue
        nodes.split(node, feature, threshold)
        if drawing:
            left_key, right_key = splitmix64(key ^ 1), splitmix64(key ^ 2)
        else:
            left_key = right_key = 0
        stack.append((idx[~mask], depth + 1, right_key, node))
        stack.append((idx[mask], depth + 1, left_key, -1))
    return nodes.arrays()


def route(
    trees: Sequence[TreeArrays], X: np.ndarray, depths: Sequence[int | None]
) -> list[np.ndarray]:
    """Every tree's labels for every row of ``X``, with the trees cut at
    each depth in ``depths`` (``None``: not cut), as ``(trees, rows)``
    arrays.

    The trees' nodes are laid end to end, and each level moves every row
    of every tree one step down with one gather; a row at a leaf stays.
    After d steps a row holds the node whose ``value`` is its prediction
    at cut depth d.
    """
    X = np.asarray(X, dtype=np.float64)
    sizes = np.array([tree.left.size for tree in trees])
    starts = np.cumsum(sizes) - sizes
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + start for tree, start in zip(trees, starts)])
    right = np.concatenate([tree.right + start for tree, start in zip(trees, starts)])
    value = np.concatenate([tree.value for tree in trees])
    leaf = left == np.arange(left.size)
    rows = np.arange(X.shape[0])
    at = np.repeat(starts, X.shape[0]).reshape(len(trees), X.shape[0])
    level = 0
    labels: dict[int | None, np.ndarray] = {}
    for depth in sorted(set(depths), key=lambda d: _NO_LIMIT if d is None else d):
        bound = _NO_LIMIT if depth is None else depth
        while level < bound and not leaf[at].all():
            at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
            level += 1
        labels[depth] = value[at]
    return [labels[depth] for depth in depths]


class DecisionTreeClassifier:
    """Deterministic CART classifier.

    ``max_depth=None`` means unbounded; ``min_leaf`` is the minimum number
    of training rows each side of a split must keep.  Both must be
    integers.  The fitted tree is ``arrays`` (``TreeArrays``); ``tree`` is
    its nested-dict form, built on each access.
    """

    kind = "dt"
    parameters = ("max_depth", "min_leaf")
    bounded = "max_depth"

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1) -> None:
        self.max_depth = check_depth(max_depth)
        self.min_leaf = check_count("min_leaf", min_leaf)
        self.arrays: TreeArrays | None = None
        self._n_features: int | None = None

    @property
    def n_features(self) -> int:
        if self._n_features is None:
            raise ValueError("classifier is not fitted")
        return self._n_features

    @property
    def tree(self) -> dict | None:
        """The fitted tree as nested dicts (``TreeArrays.to_dict``), or None."""
        return None if self.arrays is None else self.arrays.to_dict()

    def _fitted(self) -> TreeArrays:
        if self.arrays is None:
            raise ValueError("classifier is not fitted")
        return self.arrays

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        seed: int | None = None,
        mtry: int | None = None,
        ranked: RankedColumns | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree; with ``mtry`` each split considers ``mtry``
        columns drawn from ``seed`` and the node's path (see ``_grow``).
        ``ranked`` is ``rank_columns(X)`` when the caller already has it (a
        forest encodes its matrix once for all trees)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty with matching row counts")
        if ranked is None:
            ranked = rank_columns(X)
        bound = self.max_depth if self.max_depth is not None else _NO_LIMIT
        self.arrays = _grow(X, y, ranked, bound, self.min_leaf, seed, mtry)
        self._n_features = X.shape[1]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return route([self._fitted()], X, [None])[0][0]

    def predict_bounded(self, X: np.ndarray, bounds: list[int | None]) -> list[np.ndarray]:
        """Predictions of the tree cut at each depth in ``bounds``, each
        node predicting the majority of its fitting rows recorded at
        growth.  No bound may be deeper than the tree's own ``max_depth``;
        a tree read from a model file cannot be cut."""
        arrays = check_cuttable(self._fitted())
        return [labels[0] for labels in route([arrays], X, bounds)]

    def depth(self) -> int:
        return self._fitted().depth()

    def to_payload(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "n_features": self._n_features,
            "tree": self._fitted().to_dict(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DecisionTreeClassifier":
        model = cls(**{name: payload[name] for name in cls.parameters})
        model._n_features = json_field(payload, "n_features", int, "model file")
        model.arrays = TreeArrays.from_dict(
            json_field(payload, "tree", dict, "model file"), model._n_features
        )
        return model


def check_cuttable(arrays: TreeArrays) -> TreeArrays:
    """``arrays``, which must hold the majority of every split node."""
    if (arrays.value == _UNKNOWN).any():
        raise ValueError("a tree read from a model file cannot be cut at a depth")
    return arrays
