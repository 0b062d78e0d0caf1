"""Tests for the from-scratch classifiers and CV selection."""

import gc
import hashlib
import inspect
import json
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tree_reference
import writer_reference

from cadaug.dataset import Dataset
from cadaug.features import FeatureSchema, all_shapes
from cadaug.ml import (
    N_CLASSES,
    CVPlan,
    CrossValidation,
    DEFAULT_GRIDS,
    DecisionTreeClassifier,
    DegenerateDataError,
    KNNClassifier,
    RandomBaseline,
    RandomForestClassifier,
    Standardizer,
    TrainedModel,
    accuracy,
    standardize_fit,
    train,
)
from cadaug.ml import selection, tree as tree_module
from cadaug.ml.forest import resolve_max_features
from cadaug.ml.tree import column_draw, draw_steps, rank_columns, route
from cadaug.seeding import derive_seed

SCHEMA_12 = FeatureSchema(tuple(all_shapes()[:4]))  # 12 columns


def blobs(n_per_class=100, n_features=12, seed=0, spread=1.0, sep=50.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, sep, size=(6, n_features))
    X = np.vstack(
        [centers[c] + rng.normal(0.0, spread, size=(n_per_class, n_features)) for c in range(6)]
    )
    y = np.repeat(np.arange(6), n_per_class)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def blob_dataset(X, y, role="all"):
    ids = [f"b{i:04d}" for i in range(len(y))]
    return Dataset(ids, X, [int(v) for v in y], SCHEMA_12, "unbalanced", role)


# -- standardization ------------------------------------------------------


def test_standardize_constant_column_maps_to_zero():
    X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    stats = standardize_fit(X)
    Z = stats.transform(X)
    assert np.all(Z[:, 1] == 0.0)
    assert abs(Z[:, 0].mean()) < 1e-12


def test_standardize_train_stats_applied_to_test():
    train_X = np.array([[0.0], [2.0]])
    stats = standardize_fit(train_X)
    test_Z = stats.transform(np.array([[10.0]]))
    assert test_Z[0, 0] == pytest.approx(9.0)  # mean 1, std 1 — no refit


def test_standardize_requires_two_rows():
    with pytest.raises(ValueError):
        standardize_fit(np.array([[1.0, 2.0]]))


def test_standardizer_json_roundtrip():
    stats = standardize_fit(np.array([[0.0, 5.0], [4.0, 5.0]]))
    again = Standardizer.from_json(stats.to_json())
    assert again == stats


# -- knn ------------------------------------------------------------------


def test_knn_memorizes_training_rows():
    X, y = blobs(n_per_class=10)
    model = KNNClassifier(k=1).fit(X, y)
    assert (model.predict(X) == y).all()


def test_knn_vote_tie_goes_to_lowest_label():
    X = np.array([[0.0], [2.0]])
    model = KNNClassifier(k=2).fit(X, np.array([1, 0]))
    assert model.predict(np.array([[1.0]]))[0] == 0


def test_knn_distance_tie_prefers_earlier_row():
    X = np.array([[5.0], [5.0]])
    model = KNNClassifier(k=1).fit(X, np.array([4, 2]))
    assert model.predict(np.array([[5.0]]))[0] == 4


def test_knn_k_clamped_to_training_size():
    X = np.array([[0.0], [1.0], [2.0]])
    model = KNNClassifier(k=21).fit(X, np.array([0, 0, 1]))
    assert model.predict(np.array([[0.5]]))[0] == 0


def test_knn_predict_bounded_equals_fitting_each_k():
    # few distinct values, so many neighbours tie on distance
    rng = np.random.default_rng(12)
    X = rng.integers(0, 3, size=(60, 4)).astype(np.float64)
    y = rng.integers(0, N_CLASSES, size=60)
    queries = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
    ks = [7, 1, 2, 60, 7, 100, 4]
    deep = KNNClassifier(k=100).fit(X, y)
    for k, predicted in zip(ks, deep.predict_bounded(queries, ks)):
        assert (predicted == KNNClassifier(k).fit(X, y).predict(queries)).all(), k


# -- decision tree --------------------------------------------------------


def test_tree_simple_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = DecisionTreeClassifier().fit(X, y)
    assert model.tree["threshold"] == pytest.approx(1.5)
    assert list(model.predict(np.array([[-4.0], [9.0]]))) == [0, 1]
    assert model.depth() == 1


def test_tree_respects_depth_bound():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 5))
    y = rng.integers(0, 6, size=300)
    for bound in (1, 3, 7):
        model = DecisionTreeClassifier(max_depth=bound).fit(X, y)
        assert model.depth() <= bound


def test_tree_min_leaf_blocks_small_splits():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    model = DecisionTreeClassifier(min_leaf=2).fit(X, y)
    # the only impurity-reducing split (0 | 1 1 1) leaves one row on the left
    assert model.depth() <= 1
    if model.depth() == 1:
        mask = X[:, 0] <= model.tree["threshold"]
        assert mask.sum() >= 2 and (~mask).sum() >= 2


def test_tree_pure_node_is_leaf():
    X = np.array([[0.0], [100.0]])
    y = np.array([3, 3])
    model = DecisionTreeClassifier().fit(X, y)
    assert model.tree == {"label": 3}


def test_tree_deterministic():
    X, y = blobs(n_per_class=20, seed=5)
    a = DecisionTreeClassifier(max_depth=8).fit(X, y)
    b = DecisionTreeClassifier(max_depth=8).fit(X, y)
    assert a.tree == b.tree


def test_tree_rejects_non_finite_features():
    X = np.array([[0.0], [np.nan], [2.0]])
    with pytest.raises(ValueError, match="finite"):
        DecisionTreeClassifier().fit(X, np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="finite"):
        RandomForestClassifier(n_trees=2).fit(X, np.array([0, 1, 1]))


def test_rank_columns_bins_and_values(monkeypatch):
    X = np.array([[2.0, -0.0], [0.5, 7.0], [2.0, 0.0], [-1.0, 7.0]])
    ranked = rank_columns(X)
    assert ranked.widths.tolist() == [3, 2]
    assert ranked.column.tolist() == [0, 0, 0, 1, 1]
    assert ranked.values.tolist() == [-1.0, 0.5, 2.0, 0.0, 7.0]
    assert ranked.codes.dtype == np.int32
    bins = ranked.codes >> 3
    assert bins.tolist() == [[2, 3], [1, 4], [2, 3], [0, 4]]
    assert (ranked.values[bins] == X).all()
    # more bins than a 31-bit cell key can hold are refused, not wrapped
    monkeypatch.setattr(tree_module, "_MAX_BINS", 4)
    with pytest.raises(ValueError, match="distinct values"):
        rank_columns(X)


# values that test ties and float corner cases: signed zeros, adjacent
# doubles (their midpoint rounds to the upper one) and tiny magnitudes
CORNER_VALUES = (-0.0, 0.0, 1.0, 1.0000000000000002, -2.5, 3.0, 1e-300, 0.1, 0.30000000000000004)


@st.composite
def split_problems(draw):
    n_base = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 5))
    columns = []
    for _ in range(n_cols):
        pool = draw(
            st.one_of(
                st.lists(st.sampled_from(CORNER_VALUES), min_size=1, max_size=3),
                st.lists(st.floats(-100, 100, width=16), min_size=1, max_size=8),
            )
        )
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_base, max_size=n_base)))
    base = np.array(columns, dtype=np.float64).T
    # repeated rows, possibly with different labels
    rows = draw(st.lists(st.integers(0, n_base - 1), min_size=1, max_size=30))
    n_classes = draw(st.integers(1, N_CLASSES))
    y = draw(st.lists(st.integers(0, n_classes - 1), min_size=len(rows), max_size=len(rows)))
    return base[rows], np.array(y, dtype=np.int64)


def _big_node_problem():
    """50,000 rows whose root keeps 48,020 rows of class 0 on one side of
    its best split: that count squared overflows int32, and an int32 sum
    of squares would split on column 1 instead."""
    i = np.arange(50000)
    X = np.stack([i < 1000, i % 2], axis=1).astype(np.float64)
    y = (i < 1000).astype(np.int64)
    y[::50] = 2
    return X, y


@settings(max_examples=300, deadline=None)
@example(_big_node_problem(), 1, None, False, None, 1, 0)
@given(
    split_problems(),
    st.integers(1, 5),
    st.sampled_from([None, 1, 2, 3, 6]),
    st.booleans(),
    st.one_of(st.sampled_from(["sqrt", "third", None]), st.integers(1, 6)),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_histogram_trees_equal_sorted_scan(problem, min_leaf, max_depth, bootstrap, subset, n_trees, seed):
    X, y = problem
    tree = DecisionTreeClassifier(max_depth, min_leaf).fit(X, y)
    assert json.dumps(tree.to_payload()) == json.dumps(
        tree_reference.tree_payload(X, y, max_depth, min_leaf)
    )
    forest = RandomForestClassifier(n_trees, max_depth, min_leaf, subset, bootstrap, seed).fit(X, y)
    assert json.dumps(forest.to_payload()) == json.dumps(
        tree_reference.forest_payload(X, y, n_trees, max_depth, min_leaf, subset, bootstrap, seed)
    )


@pytest.mark.parametrize("subset, max_depth", [("sqrt", None), ("third", 8), (None, 4)])
def test_histogram_forest_equals_sorted_scan_on_discrete_columns(subset, max_depth):
    # the shape of the experiment's data: few distinct values per column
    rng = np.random.default_rng(17)
    X = rng.integers(0, 13, size=(300, 20)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] + 2 * X[:, 2]).astype(np.int64) % N_CLASSES
    noisy = rng.random(300) < 0.2
    y[noisy] = rng.integers(0, N_CLASSES, size=int(noisy.sum()))
    forest = RandomForestClassifier(3, max_depth, 1, subset, True, 5).fit(X, y)
    assert json.dumps(forest.to_payload()) == json.dumps(
        tree_reference.forest_payload(X, y, 3, max_depth, 1, subset, True, 5)
    )


@pytest.mark.parametrize("key, n_features, mtry, expected", [
    (0, 75, 9, [2, 4, 32, 33, 41, 42, 43, 52, 53]),
    (2**64 - 1, 10, 3, [2, 7, 9]),
    (12345678901234567890, 75, 25, [2, 3, 5, 8, 15, 18, 22, 24, 28, 35, 36, 37, 45,
                                    47, 49, 51, 56, 57, 58, 59, 60, 61, 66, 72, 73]),
])
def test_column_draw_known_answers(key, n_features, mtry, expected):
    # pins the node-keyed draw: a change here changes every forest
    assert column_draw(key, draw_steps(n_features), mtry).tolist() == expected
    assert tree_reference.draw_columns(key, n_features, mtry) == expected


def test_splitmix64_matches_the_standard_generator():
    # the first outputs of SplitMix64 seeded with 0: the finalizer of the
    # state after each golden-gamma step, as grow keys its nodes
    golden = 0x9E3779B97F4A7C15
    states = np.array([(k * golden) % 2**64 for k in range(1, 4)], dtype=np.uint64)
    outputs = tree_module._finalize(states).tolist()
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    keys = np.array([0, 2**64 - 1], dtype=np.uint64)
    assert tree_module._finalize(keys + np.uint64(golden)).tolist() == [
        tree_reference.splitmix64(0), tree_reference.splitmix64(2**64 - 1)
    ]


def test_tree_cut_equals_bounded_fit():
    rng = np.random.default_rng(8)
    X = rng.integers(0, 5, size=(120, 6)).astype(np.float64)
    y = rng.integers(0, N_CLASSES, size=120)
    queries = rng.integers(-1, 6, size=(50, 6)).astype(np.float64)
    depths = [1, 2, 3, 5, None]
    for min_leaf in (1, 3):
        deep = DecisionTreeClassifier(None, min_leaf).fit(X, y)
        for depth, cut in zip(depths, deep.predict_bounded(queries, depths)):
            bounded = DecisionTreeClassifier(depth, min_leaf).fit(X, y)
            assert (cut == bounded.predict(queries)).all(), (min_leaf, depth)


@settings(max_examples=200, deadline=None)
@given(
    split_problems(),
    st.data(),
    st.sampled_from([None, 2, 4]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_flat_routing_equals_routing_the_fitting_rows(problem, data, max_depth, min_leaf,
                                                      n_trees, seed):
    X, y = problem
    d = X.shape[1]
    assume(d >= 2)
    queries = np.array(
        data.draw(st.lists(
            st.lists(st.sampled_from(CORNER_VALUES + (-200.0, 200.0)), min_size=d, max_size=d),
            min_size=1, max_size=10,
        )),
        dtype=np.float64,
    ).reshape(-1, d)
    queries = np.vstack([X, queries])
    mtry = data.draw(st.integers(1, d - 1))
    forest = RandomForestClassifier(n_trees, max_depth, min_leaf, mtry, True, seed).fit(X, y)
    dt = DecisionTreeClassifier(max_depth, min_leaf).fit(X, y)
    deepest = max(tree.depth() for tree in [dt, *forest.trees])
    depths = [*range(1, deepest + 2), None]
    for depth, cut in zip(depths, dt.predict_bounded(queries, depths)):
        expected = tree_reference.predict_truncated(dt.tree, X, y, queries, depth)
        assert cut.tolist() == expected.tolist(), depth
    per_depth = route([tree.arrays for tree in forest.trees], queries, depths)
    for depth, labels, voted in zip(depths, per_depth, forest.predict_bounded(queries, depths)):
        expected = []
        for i, tree in enumerate(forest.trees):
            sample = tree_reference.bootstrap_sample(len(y), derive_seed(seed, f"tree:{i}"), True)
            expected.append(
                tree_reference.predict_truncated(tree.tree, X[sample], y[sample], queries, depth)
            )
        assert labels.tolist() == [e.tolist() for e in expected], depth
        assert voted.tolist() == tree_reference.vote(expected), depth


def test_loaded_models_predict_alike_but_cannot_be_cut():
    rng = np.random.default_rng(23)
    X = rng.integers(0, 6, size=(160, 8)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] * X[:, 2]).astype(np.int64) % N_CLASSES
    queries = rng.integers(-1, 7, size=(70, 8)).astype(np.float64)
    for model in (
        DecisionTreeClassifier(None, 2).fit(X, y),
        RandomForestClassifier(5, 6, 1, "third", True, 3).fit(X, y),
    ):
        again = type(model).from_payload(json.loads(json.dumps(model.to_payload())))
        assert json.dumps(again.to_payload()) == json.dumps(model.to_payload())
        assert again.predict(queries).tolist() == model.predict(queries).tolist()
        plain = model.predict(queries).tolist()
        assert model.predict_bounded(queries, [2, None])[1].tolist() == plain
        with pytest.raises(ValueError, match="cannot be cut"):
            again.predict_bounded(queries, [2, None])
        # read back in the fitted trees' node order, with the split
        # nodes' majorities unknown
        trees = [model] if isinstance(model, DecisionTreeClassifier) else model.trees
        for fitted in (tree.arrays for tree in trees):
            loaded = tree_module.TreeArrays.from_dict(fitted.to_dict(), X.shape[1])
            for name in ("feature", "threshold", "left", "right"):
                assert getattr(loaded, name).tolist() == getattr(fitted, name).tolist(), name
            split = fitted.left != np.arange(fitted.left.size)
            unknown = np.where(split, tree_module._UNKNOWN, fitted.value)
            assert loaded.value.tolist() == unknown.tolist()


def test_tree_view_is_pinned():
    # the nested-dict view and model files must keep their bytes: key
    # order and float formatting, not only dict equality
    rng = np.random.default_rng(29)
    X = rng.integers(0, 9, size=(200, 12)) + rng.normal(0, 1e-3, size=(200, 12)).round(6)
    y = (X[:, 0] + 2 * X[:, 3] + X[:, 7] * X[:, 8]).astype(np.int64) % N_CLASSES
    forest = RandomForestClassifier(5, None, 1, "third", True, 2024).fit(X, y)
    text = json.dumps(forest.to_payload())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fea4d02569d19b821a5ed97149cc7e8683aaaa30683fd287bb32c2c1d532f25e"
    )
    assert forest.trees[0].tree == forest.to_payload()["trees"][0]["tree"]


@pytest.mark.parametrize("budget", [1, 2**62])
def test_chunking_leaves_forests_unchanged(monkeypatch, budget):
    # one node per split-search chunk, and one chunk per level
    rng = np.random.default_rng(37)
    X = rng.integers(0, 6, size=(180, 15)).astype(np.float64)
    y = (X[:, 0] * X[:, 1] + X[:, 2]).astype(np.int64) % N_CLASSES
    # 66,000 distinct values leave a cell key 11 bits for its node, so a
    # level of more than 2,048 nodes is searched in several chunks even
    # at budget 2^62.  The popcounts of the Gray-coded ranks of column 0
    # grow a bushy tree with such levels
    wide_X = rng.random((33000, 2))
    rank = wide_X[:, 0].argsort().argsort()
    wide_y = np.array([bin(r ^ (r >> 1)).count("1") for r in rank.tolist()]) % N_CLASSES
    fits = [
        (RandomForestClassifier(4, None, 1, "sqrt", True, 7), X, y),
        (RandomForestClassifier(4, 5, 3, None, True, 7), X, y),
        (DecisionTreeClassifier(None, 2), X, y),
        (DecisionTreeClassifier(), wide_X, wide_y),
    ]
    expected = [json.dumps(model.fit(data, labels).to_payload()) for model, data, labels in fits]
    wide = fits[-1][0].arrays
    widest, frontier = 0, np.zeros(1, dtype=np.intp)
    while frontier.size:
        frontier = frontier[wide.left[frontier] != frontier]
        widest = max(widest, frontier.size)
        frontier = np.concatenate([wide.left[frontier], wide.right[frontier]])
    assert widest > 2048
    monkeypatch.setattr(tree_module, "_CHUNK_CELLS", budget)
    assert [json.dumps(model.fit(data, labels).to_payload()) for model, data, labels in fits] == expected
    test_tree_view_is_pinned()


# -- random forest --------------------------------------------------------


@pytest.mark.parametrize("max_depth, min_leaf, subset", [
    (None, 1, "sqrt"), (None, 5, "third"), (3, 1, "sqrt"), (6, 2, None),
])
def test_forest_trees_equal_trees_grown_alone(max_depth, min_leaf, subset):
    rng = np.random.default_rng(41)
    X = rng.integers(0, 9, size=(160, 16)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] * X[:, 2]).astype(np.int64) % N_CLASSES
    noisy = rng.random(160) < 0.25
    y[noisy] = rng.integers(0, N_CLASSES, size=int(noisy.sum()))
    forest = RandomForestClassifier(8, max_depth, min_leaf, subset, True, 19).fit(X, y)
    mtry = resolve_max_features(subset, X.shape[1])
    for i, tree in enumerate(forest.trees):
        seed = derive_seed(19, f"tree:{i}")
        sample = tree_reference.bootstrap_sample(len(y), seed, True)
        alone = tree_module.grow(
            X[sample], y[sample], [np.arange(len(sample))], [seed], max_depth, min_leaf, mtry
        )[0]
        for grown, expected in zip(tree.arrays, alone):
            assert grown.tolist() == expected.tolist(), i
    depths = {tree.depth() for tree in forest.trees}
    if max_depth is None:
        assert len(depths) > 1  # the trees end at different depths
    else:
        assert depths == {max_depth}


def test_forest_single_tree_degenerates_to_dt():
    X, y = blobs(n_per_class=20, seed=9)
    forest = RandomForestClassifier(
        n_trees=1, max_depth=6, max_features=None, bootstrap=False, seed=123
    ).fit(X, y)
    plain = DecisionTreeClassifier(max_depth=6).fit(X, y)
    assert forest.trees[0].tree == plain.tree
    queries = np.random.default_rng(1).normal(size=(40, X.shape[1]))
    assert (forest.predict(queries) == plain.predict(queries)).all()


@pytest.mark.parametrize("subset, min_leaf, bootstrap", [
    ("sqrt", 1, True), ("third", 3, True), (2, 1, False), (None, 2, True),
])
def test_bounded_forest_is_the_deep_forest_cut(subset, min_leaf, bootstrap):
    rng = np.random.default_rng(31)
    X = rng.integers(0, 7, size=(150, 9)).astype(np.float64)
    y = (X[:, 0] * X[:, 1] + X[:, 2]).astype(np.int64) % N_CLASSES
    queries = rng.integers(-1, 8, size=(60, 9)).astype(np.float64)
    deep = RandomForestClassifier(6, None, min_leaf, subset, bootstrap, 11).fit(X, y)
    deep_preds = deep.predict(queries)
    depths = [1, 2, 4, 6, None]
    for depth, cut in zip(depths, deep.predict_bounded(queries, depths)):
        bounded = RandomForestClassifier(6, depth, min_leaf, subset, bootstrap, 11).fit(X, y)
        assert (cut == bounded.predict(queries)).all(), depth
    # the depths differ on these data
    assert (RandomForestClassifier(6, 1, min_leaf, subset, bootstrap, 11)
            .fit(X, y).predict(queries) != deep_preds).any()


def test_forest_deterministic_per_seed():
    X, y = blobs(n_per_class=15, seed=2)
    a = RandomForestClassifier(n_trees=10, max_depth=6, seed=7).fit(X, y)
    b = RandomForestClassifier(n_trees=10, max_depth=6, seed=7).fit(X, y)
    assert a.to_payload() == b.to_payload()
    c = RandomForestClassifier(n_trees=10, max_depth=6, seed=8).fit(X, y)
    assert c.to_payload() != a.to_payload()


def test_forest_feature_subset_specs():
    from cadaug.ml.forest import resolve_max_features

    assert resolve_max_features("sqrt", 144) == 12
    assert resolve_max_features("third", 12) == 4
    assert resolve_max_features(None, 9) is None
    assert resolve_max_features(5, 3) == 3
    with pytest.raises(ValueError):
        resolve_max_features("log2", 10)


# -- baseline -------------------------------------------------------------


def test_baseline_near_one_sixth_on_balanced_data():
    n = 6114
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 3))
    y = np.repeat(np.arange(6), n // 6)
    model = RandomBaseline(seed=11).fit(X, y)
    acc = float((model.predict(X) == y).mean())
    assert abs(acc - 1 / 6) <= 0.03
    assert (model.predict(X) == model.predict(X)).all()


# -- CV selection ---------------------------------------------------------


def test_train_rejects_single_class():
    X = np.random.default_rng(0).normal(size=(30, 12))
    ds = blob_dataset(X, np.zeros(30, dtype=int))
    with pytest.raises(DegenerateDataError):
        train("knn", ds, CVPlan(seed=1))


def test_train_rejects_too_few_rows():
    X = np.random.default_rng(0).normal(size=(3, 12))
    ds = blob_dataset(X, np.array([0, 1, 2]))
    with pytest.raises(DegenerateDataError):
        train("knn", ds, CVPlan(folds=5, seed=1))


def test_train_unknown_kind_and_bad_plan():
    X, y = blobs(n_per_class=5)
    ds = blob_dataset(X, y)
    with pytest.raises(ValueError):
        train("svc", ds, CVPlan(seed=0))
    with pytest.raises(ValueError):
        CVPlan(folds=1)
    with pytest.raises(ValueError):
        CVPlan(grids={"knn": []})


@pytest.mark.parametrize("grids, message", [
    ({"rff": [{"n_trees": 5}]}, "unknown model kind 'rff'"),
    ({"dt": [{"maxdepth": 4}]}, r"unknown dt hyperparameters \['maxdepth'\]"),
    ({"knn": [{"k": 3, "max_depth": 2}]}, r"unknown knn hyperparameters \['max_depth'\]"),
    ({"rf": [{"n_trees": 5}, {"n_tree": 5}]}, r"unknown rf hyperparameters \['n_tree'\]"),
    ({"knn": [3]}, "not an object"),
    ({"knn": [{"k": 3}, {}]}, "needs 'k'"),
    ({"dt": [{"max_depth": 0}]}, "max_depth must be >= 1 or None"),
    ({"dt": [{"max_depth": 4, "min_leaf": 0}]}, "min_leaf must be >= 1"),
    ({"knn": [{"k": 0}]}, "k must be >= 1"),
    ({"knn": [{"k": "3"}]}, r"knn grid point \{'k': '3'\}"),
    ({"rf": [{"n_trees": 0}]}, "n_trees must be >= 1"),
    ({"rf": [{"max_depth": 0}]}, "max_depth must be >= 1 or None"),
    ({"rf": [{"min_leaf": 0}]}, "min_leaf must be >= 1"),
    ({"rf": [{"max_features": "bogus"}]}, "unknown max_features spec: 'bogus'"),
    # values of the wrong type were converted: "false" became bootstrap=True, 2.7 became k=2
    ({"rf": [{"bootstrap": "false"}]}, "bootstrap must be true or false, got 'false'"),
    ({"rf": [{"bootstrap": 0}]}, "bootstrap must be true or false, got 0"),
    ({"knn": [{"k": 2.7}]}, "k must be an integer, got 2.7"),
    ({"knn": [{"k": True}]}, "k must be an integer, got True"),
    ({"rf": [{"n_trees": 10.0}]}, "n_trees must be an integer, got 10.0"),
    ({"rf": [{"max_depth": 8.5}]}, "max_depth must be an integer, got 8.5"),
    ({"rf": [{"min_leaf": False}]}, "min_leaf must be an integer, got False"),
    ({"dt": [{"max_depth": "8"}]}, "max_depth must be an integer, got '8'"),
    ({"dt": [{"min_leaf": 1.5}]}, "min_leaf must be an integer, got 1.5"),
    # a kind mapped to something other than a list raised TypeError
    ({"knn": 5}, "knn grid 5 is not a list"),
    ({"rf": None}, "rf grid None is not a list"),
])
def test_cv_plan_rejects_grid_typos(grids, message):
    # unchecked, {"maxdepth": 4} grew an unbounded tree and "rff" was never
    # used; bad values were reported only when training reached them
    with pytest.raises(ValueError, match=message):
        CVPlan(grids=grids)


def test_single_point_grid_still_reports_folds():
    X, y = blobs(n_per_class=10, seed=4)
    ds = blob_dataset(X, y)
    plan = CVPlan(folds=3, grids={"knn": [{"k": 3}]}, seed=5)
    model = train("knn", ds, plan)
    assert model.hyperparameters == {"k": 3}
    assert len(model.cv_results) == 1
    assert len(model.cv_results[0]["fold_accuracies"]) == 3


def test_blobs_holdout_above_ninety_percent():
    X, y = blobs(n_per_class=100, seed=0)
    cut = 480
    train_ds = blob_dataset(X[:cut], y[:cut], role="train")
    test_ds = blob_dataset(X[cut:], y[cut:], role="test")
    for kind in ("knn", "dt", "rf"):
        model = train(kind, train_ds, CVPlan(seed=0))
        assert accuracy(model, test_ds) >= 0.9, kind


def test_train_is_deterministic():
    X, y = blobs(n_per_class=12, seed=6)
    ds = blob_dataset(X, y)
    plan = CVPlan(folds=4, grids={"rf": [{"n_trees": 5, "max_depth": 4}]}, seed=3)
    a = train("rf", ds, plan)
    b = train("rf", ds, plan)
    assert a.to_json() == b.to_json()


def test_trained_model_json_roundtrip(tmp_path):
    X, y = blobs(n_per_class=8, seed=8)
    ds = blob_dataset(X, y)
    queries = np.random.default_rng(4).normal(size=(25, 12))
    for kind, grid in (
        ("knn", [{"k": 3}]),
        ("dt", [{"max_depth": 4, "min_leaf": 1}]),
        ("rf", [{"n_trees": 4, "max_depth": 4}]),
    ):
        model = train(kind, ds, CVPlan(folds=3, grids={kind: grid}, seed=2))
        path = tmp_path / f"{kind}.json"
        model.save(path)
        again = TrainedModel.load(path)
        assert again.kind == model.kind
        assert again.hyperparameters == model.hyperparameters
        assert (again.predict(queries) == model.predict(queries)).all()


def test_model_files_equal_the_per_value_writer(tmp_path):
    X, y = blobs(n_per_class=8, seed=9)
    ds = blob_dataset(X, y)
    path = tmp_path / "model.json"
    for kind, grid in (
        ("knn", [{"k": 3}]),
        ("dt", [{"max_depth": 4, "min_leaf": 1}]),
        ("rf", [{"n_trees": 3, "max_depth": 3}, {"n_trees": 1, "max_depth": None}]),
    ):
        model = train(kind, ds, CVPlan(folds=3, grids={kind: grid}, seed=4))
        model.save(path)
        assert path.read_text() == writer_reference.model_text(model)
    # knn rows as stored: both zeros in one column, subnormal, small,
    # large and inexact values, negatives, nan and inf
    values = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -2.5, float("nan"), float("inf"),
              float("-inf")]
    model = train("knn", ds, CVPlan(folds=3, grids={"knn": [{"k": 1}]}, seed=4))
    stored = np.random.default_rng(3).choice(values, size=X.shape)
    stored[:2, 0] = [-0.0, 0.0]
    model.classifier._X = stored
    model.save(path)
    text = path.read_text()
    assert text == writer_reference.model_text(model)
    assert "[-0.0, " in text and "[0.0, " in text and "NaN" in text and "-Infinity" in text


def test_model_rejects_wrong_width_and_empty_dataset():
    X, y = blobs(n_per_class=8, seed=1)
    ds = blob_dataset(X, y)
    model = train("dt", ds, CVPlan(folds=3, grids={"dt": [{"max_depth": 4}]}, seed=0))
    with pytest.raises(ValueError):
        model.predict(np.zeros((2, 5)))
    empty = Dataset((), [], (), SCHEMA_12, "unbalanced", "test")
    with pytest.raises(ValueError):
        accuracy(model, empty)


def test_default_grids_shape():
    assert [g["k"] for g in DEFAULT_GRIDS["knn"]] == [1, 3, 5, 11, 21]
    assert len(DEFAULT_GRIDS["dt"]) == 8
    assert len(DEFAULT_GRIDS["rf"]) == 6
    assert all(g["n_trees"] == 100 for g in DEFAULT_GRIDS["rf"])


CLASSIFIERS = {"knn": KNNClassifier, "dt": DecisionTreeClassifier, "rf": RandomForestClassifier}


def test_kind_table_names_each_constructors_keywords():
    assert selection.MODEL_KINDS == tuple(selection.CLASSIFIERS) == ("knn", "dt", "rf")
    for kind, cls in selection.CLASSIFIERS.items():
        keywords = [name for name in inspect.signature(cls).parameters if name != "seed"]
        assert cls.kind == kind
        assert list(cls.parameters) == keywords
        assert cls.bounded in cls.parameters


def _cv_fitting_each_point(kind, grid, dataset, plan):
    """The CV record of ``train`` computed by fitting every grid point on
    every fold alone; an rf point gets the seed of its shared forest."""
    X = dataset.X
    y = dataset.y
    order = np.random.default_rng(derive_seed(plan.seed, "cv-folds")).permutation(len(y))
    folds = np.array_split(order, plan.folds)
    results = []
    for params in grid:
        others = {name: value for name, value in params.items() if name != "max_depth"}
        rest = repr(tuple(sorted(others.items())))
        fold_accuracies = []
        for fi, fold in enumerate(folds):
            mask = np.ones(len(y), dtype=bool)
            mask[fold] = False
            seed = {"seed": derive_seed(plan.seed, f"rf:{rest}:{fi}")} if kind == "rf" else {}
            clf = CLASSIFIERS[kind](**params, **seed).fit(X[mask], y[mask])
            fold_accuracies.append(float((clf.predict(X[fold]) == y[fold]).mean()))
        results.append({
            "params": dict(params),
            "fold_accuracies": fold_accuracies,
            "mean_accuracy": sum(fold_accuracies) / len(fold_accuracies),
        })
    return results


def _check_cv_shares_fits_exactly(kind, grid):
    rng = np.random.default_rng(21)
    X = rng.integers(0, 6, size=(180, 12)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] * X[:, 2]).astype(np.int64) % N_CLASSES
    noisy = rng.random(180) < 0.3
    y[noisy] = rng.integers(0, N_CLASSES, size=int(noisy.sum()))
    ds = blob_dataset(X, y)
    plan = CVPlan(folds=4, grids={kind: grid}, seed=13)
    model = train(kind, ds, plan)
    expected = _cv_fitting_each_point(kind, grid, ds, plan)
    assert model.cv_results == expected
    # the grid points fit different models on these data
    assert len(grid) == 1 or len({r["mean_accuracy"] for r in expected}) > 1
    seed = {"seed": derive_seed(13, "rf:final")} if kind == "rf" else {}
    plain = CLASSIFIERS[kind](**model.hyperparameters, **seed).fit(X, y)
    assert json.dumps(model.classifier.to_payload()) == json.dumps(plain.to_payload())


@pytest.mark.parametrize("grid", [
    DEFAULT_GRIDS["dt"],
    [  # repeated points
        {"max_depth": 2, "min_leaf": 1},
        {"max_depth": None, "min_leaf": 2},
        {"max_depth": 2, "min_leaf": 1},
        {"max_depth": 5, "min_leaf": 2},
        {"max_depth": None, "min_leaf": 2},
    ],
    [{"max_depth": 3, "min_leaf": 1}, {"max_depth": 3, "min_leaf": 4}],  # one depth
    [{"min_leaf": 1}, {"min_leaf": 3}, {"min_leaf": 8}],  # no max_depth
    [{"max_depth": 1}, {}, {"max_depth": 2}],
], ids=["default", "repeated", "one-depth", "min-leaf-only", "mixed"])
def test_dt_cv_shares_growth_exactly(grid):
    _check_cv_shares_fits_exactly("dt", grid)


@pytest.mark.parametrize("grid", [
    [
        {"n_trees": 4, "max_depth": depth, "max_features": subset}
        for depth in (2, 4, None)
        for subset in ("sqrt", "third")
    ],
    [  # repeated points, defaults spelled out or not, a depth-only group
        {"n_trees": 3, "max_depth": 1},
        {"n_trees": 3},
        {"n_trees": 3, "max_depth": 3},
        {"n_trees": 3, "max_depth": 1},
        {"n_trees": 3, "max_depth": None, "min_leaf": 1},
        {"n_trees": 3, "max_depth": 2, "bootstrap": False, "max_features": 2},
    ],
    [{"n_trees": 3, "max_depth": 3}, {"n_trees": 3, "max_depth": 3, "min_leaf": 4}],
], ids=["default-shape", "mixed", "one-depth"])
def test_rf_cv_shares_growth_exactly(grid):
    _check_cv_shares_fits_exactly("rf", grid)


@pytest.mark.parametrize("grid", [
    DEFAULT_GRIDS["knn"],
    [{"k": 5}, {"k": 1}, {"k": 11}, {"k": 5}, {"k": 2}],  # repeated and unsorted
    [{"k": 3}, {"k": 134}, {"k": 135}, {"k": 500}],  # a fold fits on 135 rows
    [{"k": 4}],
], ids=["default", "repeated-unsorted", "beyond-fit-rows", "one-k"])
def test_knn_cv_shares_neighbour_order_exactly(grid):
    _check_cv_shares_fits_exactly("knn", grid)


# -- folds grown together --------------------------------------------------


def _cv_problem():
    rng = np.random.default_rng(23)
    X = rng.integers(0, 7, size=(150, 12)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] * X[:, 2]).astype(np.int64) % N_CLASSES
    noisy = rng.random(150) < 0.3
    y[noisy] = rng.integers(0, N_CLASSES, size=int(noisy.sum()))
    return blob_dataset(X, y)


CV_GRIDS = {
    "dt": [
        {"max_depth": depth, "min_leaf": leaf} for depth in (2, 5, None) for leaf in (1, 4)
    ],
    "rf": [
        {"n_trees": 3, "max_depth": depth, "max_features": subset, "bootstrap": bootstrap}
        for depth in (3, None)
        for subset in ("sqrt", None)
        for bootstrap in (True, False)
    ],
}


def _count_growths(monkeypatch):
    """Count ``tree.grow`` calls; ``SharedGrowth`` is its one caller."""
    calls = []
    grow = tree_module.grow

    def counted(*args, **kwargs):
        calls.append(len(args[2]))  # the number of trees grown together
        return grow(*args, **kwargs)

    monkeypatch.setattr(tree_module, "grow", counted)
    return calls


@pytest.mark.parametrize("kind", ["dt", "rf"])
def test_cv_results_do_not_depend_on_the_growth_row_budget(monkeypatch, kind):
    dataset = _cv_problem()
    plan = CVPlan(folds=4, grids=CV_GRIDS, seed=5)
    growths = _count_growths(monkeypatch)
    runs = []
    for budget in (0, 2**40):  # one fold per growth; every fold of a group in one
        monkeypatch.setattr(selection, "_GROWTH_ROWS", budget)
        growths.clear()
        model = train(kind, dataset, plan)
        runs.append((model.cv_results, model.hyperparameters,
                     json.dumps(model.classifier.to_payload())))
        groups = 2 if kind == "dt" else 4
        # the CV growths, then the final refit's own
        assert len(growths) == (4 * groups if budget == 0 else groups) + 1
    assert runs[0] == runs[1]
    assert len({r["mean_accuracy"] for r in runs[0][0]}) > 1


@pytest.mark.parametrize("kind", ["dt", "rf"])
def test_planning_a_cv_grows_no_tree_and_training_frees_its_growths(monkeypatch, kind):
    dataset = _cv_problem()
    plan = CVPlan(folds=4, grids=CV_GRIDS, seed=5)
    grown = _count_growths(monkeypatch)
    cv = CrossValidation(kind, dataset, plan)
    planned = cv.growths()
    assert grown == [] and planned and cv.growths() == planned
    refs = [weakref.ref(growth) for growth in planned]
    del planned
    # each growth and its trees must go as soon as their batch is
    # predicted, by reference counting alone
    gc.disable()
    try:
        train(kind, cv)
        assert cv.growths() == []
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("kind, started", [("dt", [4, 4]), ("rf", [12] * 4)])
def test_cv_growths_started_elsewhere_give_the_cv_grown_in_process(monkeypatch, kind, started):
    # the pipeline starts each training's growths on worker processes;
    # here they are grown at submit, in process
    dataset = _cv_problem()
    plan = CVPlan(folds=4, grids=CV_GRIDS, seed=5)
    submitted = []

    def submit(growths):
        submitted.append(sum(len(growth.seeds) for growth in growths))
        trees = tree_module.grow_all(dataset.X, dataset.y, growths)
        return lambda: trees

    cv = CrossValidation(kind, dataset, plan)
    for growth in cv.growths():
        growth.start(submit)
    assert submitted == started
    growths = _count_growths(monkeypatch)
    ahead = train(kind, cv)
    assert growths == [1 if kind == "dt" else 3]  # only the final refit grows here
    here = train(kind, dataset, plan)
    assert ahead.cv_results == here.cv_results
    assert ahead.hyperparameters == here.hyperparameters
    assert ahead.classifier.to_payload() == here.classifier.to_payload()


def test_root_cells_count_trees_fit_rows_and_candidate_columns():
    # the pipeline trains its pairs in descending order of this measure
    dataset = _cv_problem()  # 150 rows of 12 columns
    plan = CVPlan(folds=4, grids=CV_GRIDS, seed=5)
    fit_rows = 3 * 150  # each row is fitted on in 3 of the 4 folds
    cells = {
        kind: sum(growth.root_cells for growth in CrossValidation(kind, dataset, plan).growths())
        for kind in ("dt", "rf")
    }
    # dt: two groups (min_leaf 1 and 4) of one tree on every column
    assert cells["dt"] == 2 * fit_rows * 12
    # rf: four groups of 3 trees, two drawing round(sqrt(12)) = 3 columns
    # and two searching all 12
    assert cells["rf"] == 2 * 3 * fit_rows * (3 + 12)


def test_train_refuses_a_cv_of_another_kind_or_a_second_plan():
    dataset = _cv_problem()
    plan = CVPlan(folds=4, grids=CV_GRIDS, seed=5)
    with pytest.raises(ValueError, match="takes a rf cross-validation"):
        train("rf", CrossValidation("dt", dataset, plan))
    with pytest.raises(ValueError, match="and no plan"):
        train("dt", CrossValidation("dt", dataset, plan), plan)


def test_cv_grows_each_grid_group_once(monkeypatch):
    dataset = _cv_problem()
    plan = CVPlan(folds=5, grids=CV_GRIDS, seed=8)
    growths = _count_growths(monkeypatch)
    train("rf", dataset, plan)
    # each of the four groups' growths holds the 3 trees of each of 5 folds
    assert growths == [15] * 4 + [3]
    growths.clear()
    train("dt", dataset, plan)
    assert growths == [5, 5, 1]
