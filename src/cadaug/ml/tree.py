"""CART decision tree with Gini impurity and midpoint thresholds."""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "DecisionTreeClassifier",
    "RankedColumns",
    "check_count",
    "check_depth",
    "column_draw",
    "draw_steps",
    "predict_truncated",
    "rank_columns",
    "splitmix64",
    "tree_depth",
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


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    ranked: RankedColumns,
    max_depth: int,
    min_leaf: int,
    seed: int | None,
    mtry: int | None,
) -> dict:
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
    root: dict = {}
    stack: list[tuple[dict, np.ndarray, int, int]] = [
        (root, np.arange(X.shape[0]), 0, splitmix64(seed) if drawing else 0)
    ]
    while stack:
        node, idx, depth, key = stack.pop()
        counts = np.bincount(y[idx], minlength=N_CLASSES)
        majority = int(counts.argmax())
        if depth >= max_depth or counts[majority] == idx.size:
            node["label"] = majority
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
            node["label"] = majority
            continue
        j, lo, hi = found
        feature = int(columns[j])
        low = float(values[lo + shift[j]])
        threshold = low + (float(values[hi + shift[j]]) - low) / 2.0
        # the midpoint of adjacent floats can round up to the upper value
        mask = X[idx, feature] <= threshold
        if not 0 < np.count_nonzero(mask) < idx.size:
            node["label"] = majority
            continue
        left: dict = {}
        right: dict = {}
        node["feature"] = feature
        node["threshold"] = threshold
        node["left"] = left
        node["right"] = right
        if drawing:
            left_key, right_key = splitmix64(key ^ 1), splitmix64(key ^ 2)
        else:
            left_key = right_key = 0
        stack.append((right, idx[~mask], depth + 1, right_key))
        stack.append((left, idx[mask], depth + 1, left_key))
    return root


def _predict_tree(root: dict, X: np.ndarray, out: np.ndarray) -> None:
    stack: list[tuple[dict, np.ndarray]] = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if "label" in node:
            out[idx] = node["label"]
            continue
        mask = X[idx, node["feature"]] <= node["threshold"]
        stack.append((node["right"], idx[~mask]))
        stack.append((node["left"], idx[mask]))


def predict_truncated(
    root: dict,
    X_fit: np.ndarray,
    y_fit: np.ndarray,
    X: np.ndarray,
    max_depth: int | None,
) -> np.ndarray:
    """Predict with a fitted tree cut at ``max_depth``.

    A node at depth ``max_depth`` predicts the majority label of the
    fitting rows ``(X_fit, y_fit)`` that reach it.  Growth has no other
    dependence on the depth bound (column draws are keyed by the node's
    path), so this equals the prediction of the tree fitted with
    ``max_depth`` on the same rows, seed and ``mtry``.
    """
    bound = max_depth if max_depth is not None else _NO_LIMIT
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(root, np.arange(X_fit.shape[0]), np.arange(X.shape[0]), 0)]
    while stack:
        node, fit_idx, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if "label" in node:
            out[idx] = node["label"]
            continue
        if depth >= bound:
            out[idx] = np.bincount(y_fit[fit_idx], minlength=N_CLASSES).argmax()
            continue
        feature, threshold = node["feature"], node["threshold"]
        fit_mask = X_fit[fit_idx, feature] <= threshold
        mask = X[idx, feature] <= threshold
        stack.append((node["right"], fit_idx[~fit_mask], idx[~mask], depth + 1))
        stack.append((node["left"], fit_idx[fit_mask], idx[mask], depth + 1))
    return out


def tree_depth(node: dict) -> int:
    """Number of split levels below this node (a leaf has depth 0)."""
    best = 0
    stack = [(node, 0)]
    while stack:
        current, depth = stack.pop()
        if "label" in current:
            best = max(best, depth)
            continue
        stack.append((current["left"], depth + 1))
        stack.append((current["right"], depth + 1))
    return best


class DecisionTreeClassifier:
    """Deterministic CART classifier.

    ``max_depth=None`` means unbounded; ``min_leaf`` is the minimum number
    of training rows each side of a split must keep.  Both must be
    integers.
    """

    kind = "dt"

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1) -> None:
        self.max_depth = check_depth(max_depth)
        self.min_leaf = check_count("min_leaf", min_leaf)
        self.tree: dict | None = None
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
        self.tree = _grow(X, y, ranked, bound, self.min_leaf, seed, mtry)
        self._n_features = X.shape[1]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.tree is None:
            raise ValueError("classifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        _predict_tree(self.tree, X, out)
        return out

    def predict_bounded(
        self, X_fit: np.ndarray, y_fit: np.ndarray, X: np.ndarray, bounds: list[int | None]
    ) -> list[np.ndarray]:
        """Predictions of the tree cut at each depth in ``bounds``
        (``predict_truncated``).  ``(X_fit, y_fit)`` must be the rows it
        was fitted on, and no bound may be deeper than its own
        ``max_depth``."""
        if self.tree is None:
            raise ValueError("classifier is not fitted")
        return [predict_truncated(self.tree, X_fit, y_fit, X, bound) for bound in bounds]

    def depth(self) -> int:
        if self.tree is None:
            raise ValueError("classifier is not fitted")
        return tree_depth(self.tree)

    def to_payload(self) -> dict:
        if self.tree is None:
            raise ValueError("classifier is not fitted")
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "n_features": self._n_features,
            "tree": self.tree,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DecisionTreeClassifier":
        model = cls(max_depth=payload["max_depth"], min_leaf=payload["min_leaf"])
        model.tree = payload["tree"]
        model._n_features = payload["n_features"]
        return model
