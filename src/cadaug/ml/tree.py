"""CART decision tree with Gini impurity and midpoint thresholds."""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..jsonfields import json_field

__all__ = [
    "DecisionTreeClassifier",
    "Growth",
    "RankedColumns",
    "TreeArrays",
    "check_count",
    "check_cuttable",
    "check_depth",
    "column_draw",
    "draw_steps",
    "grow",
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


def _finalize(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of every element of a uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def column_draw(key, steps: np.ndarray, mtry: int) -> np.ndarray:
    """The candidate columns of the node with key ``key``, ascending; for
    an array of keys, one row of columns per key.

    Column j's draw key is the SplitMix64 finalizer of
    ``key + steps[j]`` mod 2^64; the node takes the ``mtry`` columns with
    the smallest draw keys.
    """
    z = _finalize(np.add.outer(np.asarray(key, dtype=np.uint64), steps))
    # the finalizer is a bijection and the steps differ, so a node's draw
    # keys are distinct and its mtry smallest are one set
    return np.sort(np.argpartition(z, mtry - 1, axis=-1)[..., :mtry], axis=-1)


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


def rank_columns(X: np.ndarray) -> RankedColumns:
    """Rank-encode every column of a finite float matrix."""
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    # one contiguous row per column: sorting along the rows of a C-order
    # matrix reads strided memory.  Equal values get one rank whatever
    # their order, so the sort need not be stable
    columns = np.ascontiguousarray(X.T)
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    new = np.ones(columns.shape, dtype=bool)
    new[:, 1:] = ordered[:, 1:] > ordered[:, :-1]
    ranks = np.cumsum(new, axis=1) - 1
    widths = ranks[:, -1] + 1
    offsets = np.cumsum(widths) - widths
    codes = np.empty(columns.shape, dtype=np.intp)
    np.put_along_axis(codes, order, (ranks + offsets[:, None]) * N_CLASSES, axis=1)
    return RankedColumns(np.ascontiguousarray(codes.T), offsets, widths, ordered[new])


class TreeArrays(NamedTuple):
    """A tree as node arrays; the root is node 0.

    A fitted tree holds its nodes in level order, parents before
    children (see ``grow``), and a tree read from a model file in
    preorder; ``to_dict``, and so the model files, do not depend on node
    order.

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


class Growth(NamedTuple):
    """The trees one fit grows with ``grow``: tree i on the rows
    ``samples[i]`` of ``X`` with seed ``seeds[i]``, all with ``params``,
    the ``(max_depth, min_leaf, mtry)`` arguments of ``grow``."""

    samples: list[np.ndarray]
    seeds: list[int | None]
    params: tuple[int | None, int, int | None]

    @property
    def rows(self) -> int:
        """The root rows of all the trees together."""
        return sum(len(sample) for sample in self.samples)


# row × candidate-column cells that one split-search pass takes: a level
# with more is searched in chunks, which bounds the memory a level uses
_CHUNK_CELLS = 1 << 14


def grow(
    X: np.ndarray,
    y: np.ndarray,
    samples: Sequence[np.ndarray],
    seeds: Sequence[int | None],
    max_depth: int | None,
    min_leaf: int,
    mtry: int | None,
) -> list[TreeArrays]:
    """One tree per sample, grown on ``X[sample], y[sample]``, all trees
    together one level at a time.

    A node is a leaf at depth ``max_depth`` (None: no bound), when its
    rows share a label, or when no split leaves ``min_leaf`` rows on each
    side; otherwise it takes the best split over its candidate columns
    (``_search``).  With ``mtry`` below the column count, each node draws
    its candidates from its own key (``column_draw``): a root's key is
    ``splitmix64(seed)`` for its tree's seed, and a node's left and right
    children have keys ``splitmix64(key ^ 1)`` and ``splitmix64(key ^ 2)``.
    A node's split thus depends only on its rows and its path, never on
    which other nodes, of its own tree or another, were split: each tree
    equals the tree grown alone, and the tree grown with a depth bound is
    the deeper tree cut there.

    Each level takes every open node of every tree at once: one count of
    their classes, one column draw, one split search per chunk of at
    most ``_CHUNK_CELLS`` row × candidate cells, and one partition.  The
    open nodes' rows are one array of indices into ``X``, node after
    node, so no tree's rows are copied.  Each tree's nodes are numbered
    in level order.
    """
    n_trees, n_features = len(samples), X.shape[1]
    ranked = rank_columns(X)
    bin_column = np.repeat(np.arange(n_features), ranked.widths)
    drawing = mtry is not None and mtry < n_features
    if drawing and any(seed is None for seed in seeds):
        raise ValueError("drawing candidate columns needs a seed")
    steps = draw_steps(n_features)
    # the open nodes: their tree, index in it, key, and rows
    tree = np.arange(n_trees)
    index = np.zeros(n_trees, dtype=np.intp)
    keys = np.array([splitmix64(seed) if drawing else 0 for seed in seeds], dtype=np.uint64)
    sizes = np.array([len(sample) for sample in samples], dtype=np.intp)
    rows = np.concatenate(samples).astype(np.intp, copy=False)
    n_nodes = np.ones(n_trees, dtype=np.intp)
    levels = []
    depth = 0
    while sizes.size:
        n_open = sizes.size
        owner = np.repeat(np.arange(n_open), sizes)
        counts = np.bincount(
            owner * N_CLASSES + y[rows], minlength=n_open * N_CLASSES
        ).reshape(n_open, N_CLASSES)
        feature = np.zeros(n_open, dtype=np.intp)
        threshold = np.zeros(n_open, dtype=np.float64)
        left, right = index.copy(), index.copy()
        levels.append((tree, feature, threshold, left, right, counts.argmax(axis=1)))
        if depth == max_depth:
            break
        searched = (counts.max(axis=1) < sizes) & (sizes >= 2 * min_leaf)
        open_ = np.flatnonzero(searched)
        if open_.size == 0:
            break
        rows, sizes = rows[searched[owner]], sizes[open_]
        columns = column_draw(keys[open_], steps, mtry) if drawing else None
        is_split, split_feature, split_threshold = _search_level(
            ranked, bin_column, y, rows, sizes, counts[open_], columns, min_leaf
        )
        # partition the rows of the split nodes, left child first
        owner = np.repeat(np.arange(open_.size), sizes)
        keep = is_split[owner]
        rows, owner = rows[keep], owner[keep]
        goes_left = X[rows, split_feature[owner]] <= split_threshold[owner]
        n_left = np.bincount(owner[goes_left], minlength=open_.size)
        # the midpoint of adjacent floats can round up to the upper value
        is_split &= (n_left > 0) & (n_left < sizes)
        parents = np.flatnonzero(is_split)
        keep = is_split[owner]
        child = 2 * (np.cumsum(is_split) - 1)[owner] + ~goes_left
        rows = rows[keep][np.argsort(child[keep], kind="stable")]
        sizes = np.stack([n_left[parents], sizes[parents] - n_left[parents]], axis=1).ravel()
        # number the children after every node of the level, tree by tree
        at = open_[parents]
        parent_tree = tree[at]
        first = n_nodes[parent_tree] + 2 * (
            np.arange(parents.size) - np.searchsorted(parent_tree, parent_tree)
        )
        n_nodes += 2 * np.bincount(parent_tree, minlength=n_trees)
        feature[at] = split_feature[parents]
        threshold[at] = split_threshold[parents]
        left[at] = first
        right[at] = first + 1
        tree = np.repeat(parent_tree, 2)
        index = np.stack([first, first + 1], axis=1).ravel()
        if drawing:
            pair = np.stack([keys[at] ^ np.uint64(1), keys[at] ^ np.uint64(2)], axis=1).ravel()
            keys = _finalize(pair + np.uint64(_GOLDEN))
        depth += 1
    fields = [np.concatenate(field) for field in zip(*levels)]
    order = np.argsort(fields[0], kind="stable")
    ends = np.cumsum(np.bincount(fields[0], minlength=n_trees))[:-1]
    per_tree = [np.split(field[order], ends) for field in fields[1:]]
    return [TreeArrays(*arrays) for arrays in zip(*per_tree)]


def _search_level(
    ranked: RankedColumns,
    bin_column: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    columns: np.ndarray | None,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_search`` over a level's nodes in chunks of consecutive nodes,
    each of at most ``_CHUNK_CELLS`` row × candidate cells or one node.

    Returns whether each node splits, and the column and threshold of
    each node that does.
    """
    split = np.zeros(sizes.size, dtype=bool)
    feature = np.zeros(sizes.size, dtype=np.intp)
    threshold = np.zeros(sizes.size, dtype=np.float64)
    n_candidates = ranked.widths.size if columns is None else columns.shape[1]
    row_ends = np.cumsum(sizes)
    cell_ends = row_ends * n_candidates
    a = 0
    while a < sizes.size:
        done = int(cell_ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(cell_ends, done + _CHUNK_CELLS, side="right")))
        nodes, features, thresholds = _search(
            ranked,
            bin_column,
            y,
            rows[row_ends[a] - sizes[a] : row_ends[b - 1]],
            sizes[a:b],
            counts[a:b],
            None if columns is None else columns[a:b],
            min_leaf,
        )
        split[a + nodes] = True
        feature[a + nodes] = features
        threshold[a + nodes] = thresholds
        a = b
    return split, feature, threshold


_NOTHING = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))


def _search(
    ranked: RankedColumns,
    bin_column: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    columns: np.ndarray | None,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best split of each node of a chunk that has one.

    Node i of the chunk holds the next ``sizes[i]`` entries of ``rows``
    and has class counts ``counts[i]`` and candidate columns
    ``columns[i]`` (None: every column); ``bin_column`` maps each bin of
    ``ranked`` to its column.  One sort of every (node, bin, class) cell
    that a row fills in a candidate column gives the chunk's occupied
    bins in (node, column, bin) order and their class histograms; the
    running sums of those within each (node, column) are the class counts
    left of each boundary after an occupied bin, which are exactly the
    boundaries between adjacent distinct values in the node.  The split
    quality sum(left_counts^2)/n_left + sum(right_counts^2)/n_right (an
    affine rescaling of negative weighted Gini) is maximized over them.
    The squares are exact integers, so the scores equal those of a
    sorted scan.  Each node's first maximum breaks ties toward the lowest
    column, then the lowest threshold.

    Returns the split nodes' chunk indices, columns and thresholds, the
    midpoints of the adjacent values the best boundary falls between.
    """
    n_bins = ranked.values.size
    owner = np.repeat(np.arange(sizes.size), sizes)
    if columns is None:
        codes = ranked.codes[rows]
    else:
        codes = ranked.codes[rows[:, None], columns[owner]]
    if codes.size == 0:
        return _NOTHING
    cells = np.sort(codes + (owner * (n_bins * N_CLASSES) + y[rows])[:, None], axis=None)
    edges = np.flatnonzero(_changes(cells, end=True))
    starts = edges[:-1]
    node_bin, label = np.divmod(cells[starts], N_CLASSES)
    new_bin = _changes(node_bin)
    hist = np.zeros((np.count_nonzero(new_bin), N_CLASSES), dtype=np.int64)
    hist.ravel()[(np.cumsum(new_bin) - 1) * N_CLASSES + label] = edges[1:] - starts
    node, bin_ = np.divmod(node_bin[new_bin], n_bins)
    column = bin_column[bin_]
    # a bin's running sums start at its (node, column) group's first bin
    new_group = _changes(node * ranked.widths.size + column)
    first = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1
    cum = hist.cumsum(axis=0)
    before = cum[first] - hist[first]
    n_left = cum @ _ONES - (before @ _ONES)[group]
    m = sizes[node]
    cut = np.flatnonzero((n_left >= min_leaf) & (n_left <= m - min_leaf))
    if cut.size == 0:
        return _NOTHING
    n_left, cut_node = n_left[cut], node[cut]
    left = cum[cut] - before[group[cut]]
    right = counts[cut_node] - left
    score = ((left * left) @ _ONES) / n_left + ((right * right) @ _ONES) / (m[cut] - n_left)
    new_node = _changes(cut_node)
    best = np.maximum.reduceat(score, np.flatnonzero(new_node))
    top = np.flatnonzero(score == best[np.cumsum(new_node) - 1])
    lo = cut[top[_changes(cut_node[top])]]
    # the next occupied bin of the node's column holds the upper value
    low, high = ranked.values[bin_[lo]], ranked.values[bin_[lo + 1]]
    return node[lo], column[lo], low + (high - low) / 2.0


def _changes(a: np.ndarray, end: bool = False) -> np.ndarray:
    """Where a sorted array starts a new run of equal values; with
    ``end``, also one place past its end."""
    new = np.ones(a.size + end, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1 : a.size])
    return new


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
        grown: Callable[[], TreeArrays] | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree; with ``mtry`` each split considers ``mtry``
        columns drawn from ``seed`` and the node's path (see ``grow``).

        ``grown`` returns this tree's arrays from a growth it shares
        with other trees (``forest.SharedGrowth``), which grows them all
        on its first call; ``seed`` and ``mtry`` are then unused.  A
        forest's fit passes it for each of its trees, and
        cross-validation for the trees of one batch of folds (see
        ``growth``).  The growth thus runs inside a tree fit, which is
        where perfbench's tracer times and counts trees.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty with matching row counts")
        if grown is None:
            sample = np.arange(X.shape[0])
            self.arrays = grow(X, y, [sample], [seed], self.max_depth, self.min_leaf, mtry)[0]
        else:
            self.arrays = grown()
        self._n_features = X.shape[1]
        return self

    def growth(self, rows: np.ndarray, n_features: int) -> Growth:
        """The tree that ``fit`` grows on ``X[rows]``, without ``seed``
        or ``mtry``; ``n_features`` is unused."""
        return Growth([rows], [None], (self.max_depth, self.min_leaf, None))

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

    def payload_text(self) -> Iterator[str]:
        """``json.dumps(self.to_payload())``, in one piece."""
        yield json.dumps(self.to_payload())

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
