"""CART decision trees with Gini impurity and midpoint thresholds.

Every tree grows through ``SharedGrowth``, which pools the ``Growth`` of
one or more fits and runs the level-wise ``grow`` once for them all.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..jsonfields import json_field

__all__ = [
    "DecisionTreeClassifier",
    "Growth",
    "RankedColumns",
    "SharedGrowth",
    "TreeArrays",
    "check_count",
    "check_cuttable",
    "check_depth",
    "column_draw",
    "draw_steps",
    "grow",
    "grow_all",
    "rank_columns",
    "route",
    "N_CLASSES",
]

N_CLASSES = 6

_NO_LIMIT = sys.maxsize

_GOLDEN = 0x9E3779B97F4A7C15
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


# a split search's cell key is one int32 word: the row's label takes the
# low _CLASS_BITS bits (N_CLASSES <= 8), its bin the bits above them and
# its node the bits above the bin; a chunk holds few enough nodes that
# every key fits _KEY_BITS bits
_CLASS_BITS = 3
_CLASS_MASK = (1 << _CLASS_BITS) - 1
_KEY_BITS = 31
_MAX_BINS = 1 << (_KEY_BITS - _CLASS_BITS)


class RankedColumns(NamedTuple):
    """A feature matrix as histogram bins: each value is replaced by its rank.

    Column f owns ``widths[f]`` consecutive bins, one per distinct value of
    the column in ascending order; ``column`` maps each bin to its column,
    and ``values`` holds the distinct values bin by bin.  ``codes[i, f]``
    is the int32 ``bin << 3`` of row i in column f: the bin with three
    free low bits, so or-ing in a row's label (below 8) gives its
    (bin, class) cell.  There are at most 2^28 bins, so a code fits 31 bits.
    """

    codes: np.ndarray
    column: np.ndarray
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
    if widths.sum() > _MAX_BINS:
        raise ValueError(f"X has more than {_MAX_BINS} distinct values over its columns")
    offsets = np.cumsum(widths) - widths
    codes = np.empty(columns.shape, dtype=np.int32)
    np.put_along_axis(codes, order, (ranks + offsets[:, None]) << _CLASS_BITS, axis=1)
    column = np.repeat(np.arange(widths.size), widths)
    return RankedColumns(np.ascontiguousarray(codes.T), column, widths, ordered[new])


class TreeArrays(NamedTuple):
    """A tree as node arrays; the root is node 0.

    Nodes are in level order, parents before children, both in a fitted
    tree (see ``grow``) and in a tree read from a model file
    (``from_dict``), so a tree read back has the node arrays of the tree
    written, bar the split nodes' ``value``.

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
        """Read the nested-dict form back, numbering nodes in level order
        as ``grow`` does; a node with a missing, mistyped or out-of-range
        key is a ``ValueError``."""
        nodes = []  # (feature, threshold, left, right, value) of each node
        queue = [root]
        # breadth first: the loop reaches the children it appends
        for index, node in enumerate(queue):
            if not isinstance(node, dict):
                raise ValueError(f"{_NODE}: not an object")
            if "label" in node:
                label = json_field(node, "label", int, _NODE)
                if not 0 <= label < N_CLASSES:
                    raise ValueError(f"{_NODE}: label {label} is not a class index")
                nodes.append((0, 0.0, index, index, label))
                continue
            feature = json_field(node, "feature", int, _NODE)
            if not 0 <= feature < n_features:
                raise ValueError(f"{_NODE}: feature {feature} is not a column index")
            threshold = float(json_field(node, "threshold", float, _NODE))
            nodes.append((feature, threshold, len(queue), len(queue) + 1, _UNKNOWN))
            queue += [json_field(node, side, dict, _NODE) for side in ("left", "right")]
        feature, threshold, left, right, value = zip(*nodes)
        return cls(
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            np.array(value, dtype=np.int64),
        )


_UNKNOWN = -1
_NODE = "model file tree node"


class Growth(NamedTuple):
    """The trees one fit grows with ``grow``: tree i with seed
    ``seeds[i]`` on the rows ``rows`` of ``X`` or, with ``bootstrap``, on
    ``rows[sample]``, where ``sample`` is a draw of ``len(rows)``
    positions from a generator on ``seeds[i]``; all with ``params``, the
    ``(max_depth, min_leaf, mtry)`` arguments of ``grow``.  The samples
    are drawn only when the trees grow (``samples``)."""

    rows: np.ndarray
    seeds: list[int | None]
    bootstrap: bool
    params: tuple[int | None, int, int | None]

    @property
    def root_rows(self) -> int:
        """The root rows of all the trees together."""
        return len(self.rows) * len(self.seeds)

    def samples(self) -> list[np.ndarray]:
        """Each tree's rows of ``X``."""
        if not self.bootstrap:
            return [self.rows] * len(self.seeds)
        n = len(self.rows)
        return [self.rows[np.random.default_rng(seed).integers(0, n, size=n)] for seed in self.seeds]


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
    its candidates from its own key (``column_draw``): a root's key is the
    SplitMix64 step (the golden gamma added, then ``_finalize``) of its
    tree's seed, and a node's children have the steps of ``key ^ 1``
    (left) and ``key ^ 2`` (right).
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
    # labels join the split search's int32 cell keys, and class counts
    # its int32 histograms
    y = np.asarray(y, dtype=np.int32)
    drawing = mtry is not None and mtry < n_features
    if drawing and any(seed is None for seed in seeds):
        raise ValueError("drawing candidate columns needs a seed")
    steps = draw_steps(n_features)
    # the open nodes: their tree, index in it, key, and rows
    tree = np.arange(n_trees)
    index = np.zeros(n_trees, dtype=np.intp)
    keys = _finalize(np.array(seeds, dtype=np.uint64) + np.uint64(_GOLDEN)) if drawing else None
    sizes = np.array([len(sample) for sample in samples], dtype=np.intp)
    rows = np.concatenate(samples).astype(np.intp, copy=False)
    n_nodes = np.ones(n_trees, dtype=np.intp)
    levels = []
    depth = 0
    while sizes.size:
        n_open = sizes.size
        owner = np.repeat(np.arange(n_open), sizes)
        counts = np.bincount(owner * N_CLASSES + y[rows], minlength=n_open * N_CLASSES)
        counts = counts.astype(np.int32).reshape(n_open, N_CLASSES)
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
            ranked, y, rows, sizes, counts[open_], columns, min_leaf
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


def grow_all(X: np.ndarray, y: np.ndarray, growths: Sequence[Growth]) -> list[TreeArrays]:
    """The trees of every growth in ``growths``, in order, grown with one
    ``grow``; every growth must have the same ``params``."""
    samples = [sample for growth in growths for sample in growth.samples()]
    seeds = [seed for growth in growths for seed in growth.seeds]
    return grow(X, y, samples, seeds, *growths[0].params)


class SharedGrowth:
    """The trees of one or more fits on rows of one ``X``, grown together
    (``grow_all``) on the first request for any of them, or elsewhere
    once ``start`` is called.

    Each fit adds its ``Growth``, and each of its trees is still fitted
    through ``DecisionTreeClassifier.fit``, which asks for its tree here:
    the growth runs inside the first tree fit, or that fit waits for the
    started growth, and each fit returns its own tree.  The benchmark's
    tracer times and counts trees at that method.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        self._X, self._y = X, y
        self._growths: list[Growth] = []
        self._n_trees = 0
        self._trees: list[TreeArrays] | None = None
        self._started: Callable[[], list[TreeArrays]] | None = None

    def add(self, growth: Growth) -> Callable[..., TreeArrays]:
        """Take on ``growth``'s trees; returns ``grown``, where
        ``grown(i)`` is its tree i and ``grown()`` its first.  Every
        growth added must have the same ``params``."""
        if self._growths and growth.params != self._growths[0].params:
            raise ValueError("a shared growth's trees must share max_depth, min_leaf and mtry")
        first = self._n_trees
        self._growths.append(growth)
        self._n_trees += len(growth.seeds)
        return partial(self._tree, first)

    def start(self, submit: Callable[[list[Growth]], Callable[[], list[TreeArrays]]]) -> None:
        """Grow the trees elsewhere, starting now: ``submit(growths)``
        starts ``grow_all`` on this growth's ``X``, ``y`` and growths, and
        returns a function that waits for its trees.  No growth may be
        added after this."""
        self._started = submit(self._growths)

    def _tree(self, first: int, i: int = 0) -> TreeArrays:
        if self._trees is None:
            if self._started is None:
                self._trees = grow_all(self._X, self._y, self._growths)
            else:
                self._trees, self._started = self._started(), None
        return self._trees[first + i]


def _search_level(
    ranked: RankedColumns,
    y: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    columns: np.ndarray | None,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_search`` over a level's nodes in chunks of consecutive nodes,
    each of at most ``_CHUNK_CELLS`` row × candidate cells or one node,
    and of few enough nodes that their cell keys fit ``_KEY_BITS`` bits.

    Returns whether each node splits, and the column and threshold of
    each node that does.
    """
    split = np.zeros(sizes.size, dtype=bool)
    feature = np.zeros(sizes.size, dtype=np.intp)
    threshold = np.zeros(sizes.size, dtype=np.float64)
    n_candidates = ranked.widths.size if columns is None else columns.shape[1]
    # a key's node field starts above its (bin, class) bits
    shift = (ranked.values.size - 1).bit_length() + _CLASS_BITS
    max_nodes = 1 << (_KEY_BITS - shift)
    row_ends = np.cumsum(sizes)
    cell_ends = row_ends * n_candidates
    a = 0
    while a < sizes.size:
        done = int(cell_ends[a - 1]) if a else 0
        b = int(np.searchsorted(cell_ends, done + _CHUNK_CELLS, side="right"))
        b = max(a + 1, min(b, a + max_nodes))
        nodes, features, thresholds = _search(
            ranked,
            y,
            rows[row_ends[a] - sizes[a] : row_ends[b - 1]],
            sizes[a:b],
            counts[a:b],
            None if columns is None else columns[a:b],
            min_leaf,
            shift,
        )
        split[a + nodes] = True
        feature[a + nodes] = features
        threshold[a + nodes] = thresholds
        a = b
    return split, feature, threshold


_NOTHING = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))


def _search(
    ranked: RankedColumns,
    y: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    columns: np.ndarray | None,
    min_leaf: int,
    shift: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best split of each node of a chunk that has one.

    Node i of the chunk holds the next ``sizes[i]`` entries of ``rows``
    and has class counts ``counts[i]`` and candidate columns
    ``columns[i]`` (None: every column).  Each row fills one (node, bin,
    class) cell per candidate column, keyed by the int32 word
    ``(node << shift) | code | label``: the rank code (``bin << 3``, see
    ``RankedColumns``) and the label (below 8) take the low ``shift``
    bits, and the caller keeps the chunk's nodes few enough that every
    key fits 31 bits.  One sort of the keys gives the chunk's occupied
    bins in (node, column, bin) order and their class histograms; shifts
    and masks take the keys apart.  The running sums of those histograms
    within each (node, column) are the class counts left of each boundary
    after an occupied bin, which are exactly the boundaries between
    adjacent distinct values in the node.  The split quality
    sum(left_counts^2)/n_left + sum(right_counts^2)/n_right (an affine
    rescaling of negative weighted Gini) is maximized over them.  The
    counts are int32; their sums of squares are exact int64 integers,
    so the scores equal those of a sorted scan.  Each node's first
    maximum breaks ties toward the lowest column, then the lowest
    threshold.

    Returns the split nodes' chunk indices, columns and thresholds, the
    midpoints of the adjacent values the best boundary falls between.
    """
    n_features = ranked.widths.size
    owner = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
    if columns is None:
        cells = ranked.codes.take(rows, axis=0)
    else:
        # one flat gather: faster than indexing with two index arrays
        cells = ranked.codes.take(rows[:, None] * n_features + columns.take(owner, axis=0))
    if cells.size == 0:
        return _NOTHING
    # the gathers copied the codes, so the keys are made and sorted in place
    cells |= ((owner << shift) | y[rows])[:, None]
    cells = cells.ravel()
    cells.sort()
    edges = np.flatnonzero(_changes(cells, end=True))
    starts = edges[:-1]
    run = cells.take(starts)  # the key of each run of equal keys
    node_bin = run >> _CLASS_BITS
    new_bin = _changes(node_bin)
    n_bins = np.count_nonzero(new_bin)
    # row k + 1 of hist is occupied bin k's class histogram, and row k + 1
    # of cum the sum of the histograms of bins 0..k.  Over a big chunk the
    # sums may wrap past int32, but their differences within a node stay
    # exact: they are counts of the node's rows
    hist = np.zeros((n_bins + 1, N_CLASSES), dtype=np.int32)
    hist.ravel()[np.cumsum(new_bin) * N_CLASSES + (run & _CLASS_MASK)] = edges[1:] - starts
    cum = np.cumsum(hist, axis=0, dtype=np.int32)
    node_bin = node_bin.compress(new_bin)
    bin_bits = shift - _CLASS_BITS
    node = node_bin >> bin_bits
    bin_ = node_bin & ((1 << bin_bits) - 1)
    column = ranked.column.take(bin_)
    # a bin's running sums start at its (node, column) group's first bin
    new_group = _changes(node * n_features + column)
    before = cum.take(np.flatnonzero(new_group), axis=0)
    left = cum[1:] - before.take(np.cumsum(new_group) - 1, axis=0)
    n_left = np.einsum("ij->i", left)
    m = sizes.take(node)
    cut = np.flatnonzero((n_left >= min_leaf) & (n_left <= m - min_leaf))
    if cut.size == 0:
        return _NOTHING
    n_left, cut_node, left = n_left.take(cut), node.take(cut), left.take(cut, axis=0)
    right = counts.take(cut_node, axis=0) - left
    score = _squares(left) / n_left + _squares(right) / (m.take(cut) - n_left)
    new_node = _changes(cut_node)
    best = np.maximum.reduceat(score, np.flatnonzero(new_node))
    top = np.flatnonzero(score == best[np.cumsum(new_node) - 1])
    lo = cut[top[_changes(cut_node[top])]]
    # the next occupied bin of the node's column holds the upper value
    low, high = ranked.values[bin_[lo]], ranked.values[bin_[lo + 1]]
    return node[lo], column[lo], low + (high - low) / 2.0


def _squares(counts: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, exact in int64: a count over 46,340
    squares past int32."""
    return np.einsum("ij,ij->i", counts, counts, dtype=np.int64)


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
        grown: Callable[[], TreeArrays] | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree on every column (see ``grow``).

        ``grown`` returns this tree's arrays from a growth it shares
        with other trees (``SharedGrowth``), which grows them all on its
        first call.  A forest's fit passes it for each of its trees, and
        cross-validation for the trees of one batch of folds (see
        ``growth``); without it, the tree is the one growth of its own
        ``growth``.  The growth thus runs inside a tree fit, which is
        where perfbench's tracer times and counts trees.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty with matching row counts")
        if grown is None:
            grown = SharedGrowth(X, y).add(self.growth(np.arange(X.shape[0]), X.shape[1]))
        self.arrays = grown()
        self._n_features = X.shape[1]
        return self

    def growth(self, rows: np.ndarray, n_features: int) -> Growth:
        """The tree that ``fit`` grows on ``X[rows]``; ``n_features`` is
        unused."""
        return Growth(rows, [None], False, (self.max_depth, self.min_leaf, None))

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
