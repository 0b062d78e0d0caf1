"""The sorted-scan CART split search, kept as the oracle for the tree code.

``cadaug.ml.tree`` finds splits from class histograms over rank-encoded
columns.  This module is the direct method it replaced: at each node, sort
every candidate column, accumulate class counts with a prefix sum and
score every position between distinct values.  The per-node column draw
is computed with Python integers mod 2^64, independently of the
library's ``uint64`` arrays.  Trees grown here must serialize to exactly
the same JSON as trees grown by the library, for
``DecisionTreeClassifier`` and ``RandomForestClassifier`` alike.
"""

from __future__ import annotations

import numpy as np

from cadaug.ml.forest import resolve_max_features
from cadaug.ml.tree import N_CLASSES, _NO_LIMIT
from cadaug.seeding import derive_seed

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def finalizer(z: int) -> int:
    """The SplitMix64 output finalizer on a 64-bit integer."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def splitmix64(x: int) -> int:
    return finalizer((x + GOLDEN) & MASK)


def draw_columns(key: int, n_features: int, mtry: int) -> list[int]:
    """The ``mtry`` columns with the smallest draw keys, ascending; column
    j's draw key is ``finalizer(key + (j + 1) * GOLDEN)`` mod 2^64."""
    keys = [finalizer((key + (j + 1) * GOLDEN) & MASK) for j in range(n_features)]
    return sorted(sorted(range(n_features), key=keys.__getitem__)[:mtry])


def best_split(
    sub: np.ndarray,
    y: np.ndarray,
    columns: np.ndarray,
    min_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) over the candidate columns, or None.

    ``sub`` holds only the candidate columns for the node's rows.  Labels
    are sorted per column, class counts accumulated with a prefix sum, and
    sum(left_counts^2)/n_left + sum(right_counts^2)/n_right maximized.
    Ties break toward the lowest threshold, then the lowest feature index.
    """
    m = sub.shape[0]
    if m < 2 * min_leaf or m < 2:
        return None
    order = np.argsort(sub, axis=0, kind="stable")
    svals = np.take_along_axis(sub, order, axis=0)
    slabs = y[order]
    onehot = slabs[:, :, None] == np.arange(N_CLASSES)[None, None, :]
    cum = np.cumsum(onehot, axis=0, dtype=np.int32)
    left = cum[:-1]
    right = cum[-1][None, :, :] - left
    sizes = np.arange(1, m, dtype=np.float64)[:, None]
    score = (
        (left.astype(np.float64) ** 2).sum(axis=2) / sizes
        + (right.astype(np.float64) ** 2).sum(axis=2) / (m - sizes)
    )
    valid = (svals[1:] > svals[:-1]) & (sizes >= min_leaf) & (m - sizes >= min_leaf)
    score[~valid] = -np.inf
    per_column_pos = score.argmax(axis=0)
    per_column_best = score[per_column_pos, np.arange(score.shape[1])]
    j = int(per_column_best.argmax())
    if not np.isfinite(per_column_best[j]):
        return None
    pos = int(per_column_pos[j])
    lo = float(svals[pos, j])
    hi = float(svals[pos + 1, j])
    return int(columns[j]), lo + (hi - lo) / 2.0


def grow(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_leaf: int,
    seed: int | None,
    mtry: int | None,
) -> dict:
    """Grow a tree (preorder, left child first); a node with key k draws
    its columns from k, and its children have keys splitmix64(k ^ 1) and
    splitmix64(k ^ 2), starting from splitmix64(seed) at the root."""
    n_features = X.shape[1]
    root: dict = {}
    start = splitmix64(seed) if seed is not None else None
    stack: list[tuple[dict, np.ndarray, int, int | None]] = [(root, np.arange(X.shape[0]), 0, start)]
    while stack:
        node, idx, depth, key = stack.pop()
        labels = y[idx]
        counts = np.bincount(labels, minlength=N_CLASSES)
        majority = int(counts.argmax())
        if depth >= max_depth or counts.max() == idx.size:
            node["label"] = majority
            continue
        if mtry is not None and mtry < n_features:
            assert key is not None
            columns = np.array(draw_columns(key, n_features, mtry))
        else:
            columns = np.arange(n_features)
        found = best_split(X[np.ix_(idx, columns)], labels, columns, min_leaf)
        if found is None:
            node["label"] = majority
            continue
        feature, threshold = found
        mask = X[idx, feature] <= threshold
        if not mask.any() or mask.all():
            node["label"] = majority
            continue
        left: dict = {}
        right: dict = {}
        node["feature"] = feature
        node["threshold"] = threshold
        node["left"] = left
        node["right"] = right
        left_key = splitmix64(key ^ 1) if key is not None else None
        right_key = splitmix64(key ^ 2) if key is not None else None
        stack.append((right, idx[~mask], depth + 1, right_key))
        stack.append((left, idx[mask], depth + 1, left_key))
    return root


def tree_payload(X, y, max_depth=None, min_leaf=1, seed=None, mtry=None) -> dict:
    """What ``DecisionTreeClassifier(max_depth, min_leaf).fit(...).to_payload()`` returns."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    bound = max_depth if max_depth is not None else _NO_LIMIT
    return {
        "max_depth": max_depth,
        "min_leaf": min_leaf,
        "n_features": X.shape[1],
        "tree": grow(X, y, bound, min_leaf, seed, mtry),
    }


def forest_payload(
    X, y, n_trees, max_depth=None, min_leaf=1, max_features="sqrt", bootstrap=True, seed=0
) -> dict:
    """What ``RandomForestClassifier(...).fit(X, y).to_payload()`` returns."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    mtry = resolve_max_features(max_features, d)
    trees = []
    for i in range(n_trees):
        tree_seed = derive_seed(seed, f"tree:{i}")
        rng = np.random.default_rng(tree_seed)
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(tree_payload(X[sample], y[sample], max_depth, min_leaf, tree_seed, mtry))
    return {
        "n_trees": n_trees,
        "max_depth": max_depth,
        "min_leaf": min_leaf,
        "max_features": max_features,
        "bootstrap": bootstrap,
        "seed": seed,
        "n_features": d,
        "trees": trees,
    }
