"""The sorted-scan CART split search, kept as the oracle for the tree code.

``cadaug.ml.tree`` finds splits from class histograms over rank-encoded
columns.  This module is the direct method it replaced: at each node, sort
every candidate column, accumulate class counts with a prefix sum and
score every position between distinct values.  Trees grown here must
serialize to exactly the same JSON as trees grown by the library, for
``DecisionTreeClassifier`` and ``RandomForestClassifier`` alike.
"""

from __future__ import annotations

import numpy as np

from cadaug.ml.forest import resolve_max_features
from cadaug.ml.tree import N_CLASSES, _NO_LIMIT
from cadaug.seeding import derive_seed


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
    rng: np.random.Generator | None,
    mtry: int | None,
) -> dict:
    """Grow a tree iteratively (preorder, left child first)."""
    n_features = X.shape[1]
    root: dict = {}
    stack: list[tuple[dict, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        labels = y[idx]
        counts = np.bincount(labels, minlength=N_CLASSES)
        majority = int(counts.argmax())
        if depth >= max_depth or counts.max() == idx.size:
            node["label"] = majority
            continue
        if mtry is not None and mtry < n_features:
            assert rng is not None
            columns = np.sort(rng.choice(n_features, size=mtry, replace=False))
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
        stack.append((right, idx[~mask], depth + 1))
        stack.append((left, idx[mask], depth + 1))
    return root


def tree_payload(X, y, max_depth=None, min_leaf=1, rng=None, mtry=None) -> dict:
    """What ``DecisionTreeClassifier(max_depth, min_leaf).fit(...).to_payload()`` returns."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    bound = max_depth if max_depth is not None else _NO_LIMIT
    return {
        "max_depth": max_depth,
        "min_leaf": min_leaf,
        "n_features": X.shape[1],
        "tree": grow(X, y, bound, min_leaf, rng, mtry),
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
        rng = np.random.default_rng(derive_seed(seed, f"tree:{i}"))
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(tree_payload(X[sample], y[sample], max_depth, min_leaf, rng, mtry))
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
