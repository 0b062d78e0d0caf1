"""Tests for the S3 action on datasets: balancing, augmentation, splits."""

import random
from collections import Counter

import pytest

from cadaug.augment import (
    apply_permutation,
    augment_full,
    balance,
    permute_ordering_label,
    split,
)
from cadaug.dataset import Dataset, Row, load_dataset, make_dataset, save_dataset
from cadaug.features import FeatureSchema, featurize, featurize_exact, permute_values
from cadaug.labelling import ORDERINGS, label_by_sotd, sotd_scores
from cadaug.poly import Polynomial, X1, X2, X3, VARIABLES
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import ALL_PERMUTATIONS, IDENTITY, Permutation

P = Polynomial.parse

TINY_SCHEMA = FeatureSchema((("degree", "max", False, "max", False),))

PROFILE_COUNTS = (406, 93, 135, 51, 202, 132)  # sums to 1019


def tiny_rows(labels, start=0):
    rows = []
    for k, label in enumerate(labels, start=start):
        rows.append(Row(f"r{k:04d}", (float(k), k + 0.25, k + 0.5), label))
    return rows


def tiny_dataset(labels, provenance="unbalanced", role="all"):
    return Dataset(tuple(tiny_rows(labels)), TINY_SCHEMA, provenance, role)


# -- label permutation ----------------------------------------------------


def test_label_permutation_worked_example():
    swap12 = Permutation.swap(1, 2)
    assert permute_ordering_label(2, swap12) == 0


def test_label_permutation_identity():
    for label in range(6):
        assert permute_ordering_label(label, IDENTITY) == label


def test_label_orbit_covers_all_classes():
    for label in range(6):
        images = {permute_ordering_label(label, s) for s in ALL_PERMUTATIONS}
        assert images == set(range(6))


def test_label_permutation_composition():
    for a in ALL_PERMUTATIONS:
        for b in ALL_PERMUTATIONS:
            for label in range(6):
                two_steps = permute_ordering_label(permute_ordering_label(label, a), b)
                assert two_steps == permute_ordering_label(label, b.compose(a))


# -- row action -----------------------------------------------------------


def test_apply_permutation_moves_blocks_and_label():
    row = Row("a", (10.0, 20.0, 30.0), 2)
    swapped = apply_permutation(row, Permutation.swap(1, 2), TINY_SCHEMA)
    assert swapped.values == (20.0, 10.0, 30.0)
    assert swapped.label == 0
    assert swapped.instance_id == "a"


def test_apply_permutation_group_laws():
    row = Row("a", (1.0, 2.0, 3.0), 4)
    for a in ALL_PERMUTATIONS:
        for b in ALL_PERMUTATIONS:
            direct = apply_permutation(row, b.compose(a), TINY_SCHEMA)
            stepwise = apply_permutation(apply_permutation(row, a, TINY_SCHEMA), b, TINY_SCHEMA)
            assert direct == stepwise
    for a in ALL_PERMUTATIONS:
        back = apply_permutation(apply_permutation(row, a, TINY_SCHEMA), a.inverse(), TINY_SCHEMA)
        assert back == row


def random_instance(rng, id_="r"):
    while True:
        polys = []
        for _ in range(rng.randint(1, 3)):
            terms = [
                ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 4))
            ]
            p = Polynomial.from_terms(terms)
            if not p.is_zero():
                polys.append(p)
        covered = set()
        for p in polys:
            covered |= p.variables()
        if polys and covered == set(VARIABLES):
            return ProblemInstance(id_, frozenset(polys), (("x", X1), ("y", X2), ("z", X3)))


def test_apply_permutation_matches_rename_pipeline():
    # the end-to-end oracle: block permutation + label re-encoding agrees
    # with featurizing and re-labelling the renamed instance (skipping
    # instances whose argmin is tied, where the tie-break is not invariant)
    rng = random.Random(77)
    schema = FeatureSchema.raw()
    checked = 0
    while checked < 4:
        inst = random_instance(rng)
        scores = sotd_scores(inst)
        finite = [s for s in scores if s is not None]
        if not finite or sum(1 for s in scores if s == min(finite)) != 1:
            continue
        checked += 1
        label = label_by_sotd(inst)
        row = Row(inst.id, featurize(inst, schema).values, label.index)
        for sigma in ALL_PERMUTATIONS:
            renamed = ProblemInstance(
                inst.id,
                frozenset(p.rename(sigma) for p in inst.polynomials),
                inst.variable_map,
            )
            expect = Row(
                inst.id,
                featurize(renamed, schema).values,
                label_by_sotd(renamed).index,
            )
            assert apply_permutation(row, sigma, schema) == expect


# -- balance --------------------------------------------------------------


def test_balance_random_is_deterministic():
    ds = tiny_dataset([0] * 30 + [1] * 5)
    a = balance(ds, "random", seed=5)
    b = balance(ds, "random", seed=5)
    assert a == b
    c = balance(ds, "random", seed=6)
    assert c != a
    assert a.provenance == "balanced"
    assert len(a) == len(ds)
    assert sorted(a.ids()) == sorted(ds.ids())


def test_balance_random_changes_distribution():
    ds = tiny_dataset([0] * 60)
    out = balance(ds, "random", seed=1)
    counts = out.class_counts()
    assert sum(counts) == 60
    assert counts[0] < 60  # overwhelmingly likely under any seed


def test_balance_exact_gap_at_most_one():
    ds = tiny_dataset([0] * 17 + [3] * 2 + [5] * 1)
    out = balance(ds, "exact")
    counts = out.class_counts()
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == 20


def test_balance_exact_1019_structure():
    labels = [l for l, c in enumerate(PROFILE_COUNTS) for _ in range(c)]
    ds = tiny_dataset(labels)
    out = balance(ds, "exact")
    counts = out.class_counts()
    assert sorted(counts) == [169, 170, 170, 170, 170, 170]


def test_balance_exact_six_identical_rows():
    ds = tiny_dataset([0] * 6)
    out = balance(ds, "exact")
    assert sorted(out.class_counts()) == [1, 1, 1, 1, 1, 1]


def test_balance_exact_ignores_seed():
    ds = tiny_dataset([0] * 10 + [2] * 7)
    assert balance(ds, "exact", seed=1) == balance(ds, "exact", seed=99)


def test_balance_rejects_augmented_and_bad_mode():
    ds = tiny_dataset([0, 1, 2])
    with pytest.raises(ValueError):
        balance(ds, "sorted")
    with pytest.raises(ValueError):
        balance(augment_full(ds))


# -- full augmentation ----------------------------------------------------


def test_augment_full_counts():
    labels = [l for l, c in enumerate(PROFILE_COUNTS) for _ in range(c)]
    ds = tiny_dataset(labels)
    out = augment_full(ds)
    assert len(out) == 6 * 1019
    assert out.class_counts() == [1019] * 6
    assert out.provenance == "augmented"


def test_augment_full_single_row():
    ds = tiny_dataset([3])
    out = augment_full(ds)
    assert len(out) == 6
    assert sorted(r.label for r in out.rows) == [0, 1, 2, 3, 4, 5]
    ids = [r.instance_id for r in out.rows]
    assert ids == [f"r0000#{s.name}" for s in ALL_PERMUTATIONS]


def test_augment_full_refuses_twice():
    ds = tiny_dataset([0, 1])
    once = augment_full(ds)
    with pytest.raises(ValueError):
        augment_full(once)


def test_augment_full_row_order():
    ds = tiny_dataset([0, 5])
    out = augment_full(ds)
    assert [r.instance_id for r in out.rows[:6]] == [
        f"r0000#{s.name}" for s in ALL_PERMUTATIONS
    ]
    assert [r.instance_id for r in out.rows[6:]] == [
        f"r0001#{s.name}" for s in ALL_PERMUTATIONS
    ]


# -- split ----------------------------------------------------------------


def test_split_1019_at_20_percent():
    labels = [l for l, c in enumerate(PROFILE_COUNTS) for _ in range(c)]
    ds = tiny_dataset(labels)
    train, test = split(ds, 0.2, seed=3)
    assert len(test) == 204
    assert len(train) == 815
    assert train.role == "train"
    assert test.role == "test"
    assert set(train.ids()).isdisjoint(test.ids())
    assert sorted(train.ids() + test.ids()) == sorted(ds.ids())


def test_split_two_rows_half():
    ds = tiny_dataset([0, 1])
    train, test = split(ds, 0.5, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_split_deterministic():
    ds = tiny_dataset(list(range(6)) * 10)
    a = split(ds, 0.25, seed=11)
    b = split(ds, 0.25, seed=11)
    assert a == b
    c = split(ds, 0.25, seed=12)
    assert c != a


def test_split_validation():
    ds = tiny_dataset([0, 1, 2])
    with pytest.raises(ValueError):
        split(ds, 0.0)
    with pytest.raises(ValueError):
        split(ds, 1.0)
    with pytest.raises(ValueError):
        split(augment_full(ds), 0.5)


def test_split_then_augment_never_leaks():
    ds = tiny_dataset(list(range(6)) * 8)
    train, test = split(ds, 0.25, seed=2)
    aug_train = augment_full(train)
    aug_test = augment_full(test)
    base = lambda rid: rid.split("#")[0]
    train_bases = {base(r.instance_id) for r in aug_train.rows}
    test_bases = {base(r.instance_id) for r in aug_test.rows}
    assert train_bases.isdisjoint(test_bases)


# -- dataset container and IO ---------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        Row("a", (1.0, 2.0, 3.0), 6)
    with pytest.raises(ValueError):
        Dataset((Row("a", (1.0,), 0),), TINY_SCHEMA, "unbalanced", "all")
    with pytest.raises(ValueError):
        Dataset(tuple(tiny_rows([0]) + tiny_rows([1])), TINY_SCHEMA, "unbalanced", "all")
    with pytest.raises(ValueError):
        tiny_dataset([0], provenance="mystery")
    with pytest.raises(ValueError):
        tiny_dataset([0], role="validation")


def test_augmented_dataset_allows_repeated_base_ids():
    ds = tiny_dataset([0, 1])
    out = augment_full(ds)  # ids r0000#123 ... all distinct but share bases
    assert len(out) == 12


def test_dataset_accessors():
    ds = tiny_dataset([0, 1, 1, 4])
    assert ds.class_counts() == [1, 2, 0, 0, 1, 0]
    assert ds.matrix().shape == (4, 3)
    assert list(ds.labels()) == [0, 1, 1, 4]
    assert len(ds) == 4


def test_save_load_roundtrip(tmp_path):
    ds = tiny_dataset([0, 3, 5], provenance="unbalanced", role="train")
    csv = tmp_path / "train.csv"
    save_dataset(ds, csv, seed=42, mode="random")
    loaded, meta = load_dataset(csv, TINY_SCHEMA)
    assert loaded == ds
    assert meta["provenance"] == "unbalanced"
    assert meta["role"] == "train"
    assert meta["seed"] == 42
    assert meta["mode"] == "random"
    assert (tmp_path / "train.meta.json").exists()


def test_load_requires_labels(tmp_path):
    from cadaug.features import write_features_csv

    csv = tmp_path / "x.csv"
    write_features_csv(csv, ["a"], [None], [[1.0, 2.0, 3.0]], TINY_SCHEMA)
    with pytest.raises(ValueError):
        load_dataset(csv, TINY_SCHEMA)
