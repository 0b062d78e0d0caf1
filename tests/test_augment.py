"""Tests for the S3 action on datasets: balancing, augmentation, splits."""

import itertools
import random

import pytest

from cadaug.augment import augment_full, balance, permute_ordering_label, split
from cadaug.dataset import Dataset, load_dataset, save_dataset
from cadaug.features import FeatureSchema, featurize, permute_values
from cadaug.labelling import Ordering, label_by_sotd, sotd_scores
from cadaug.poly import Polynomial, X1, X2, X3, VARIABLES
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import ALL_PERMUTATIONS, IDENTITY, Permutation

TINY_SCHEMA = FeatureSchema((("degree", "max", False, "max", False),))
PAIR_SCHEMA = FeatureSchema(
    (("degree", "max", False, "max", False), ("degree", "sum", False, "max", False))
)

PROFILE_COUNTS = (406, 93, 135, 51, 202, 132)  # sums to 1019


def tiny_dataset(labels, provenance="unbalanced", role="all"):
    ids = [f"r{k:04d}" for k in range(len(labels))]
    X = [(float(k), k + 0.25, k + 0.5) for k in range(len(labels))]
    return Dataset(ids, X, labels, TINY_SCHEMA, provenance, role)


# -- label permutation ----------------------------------------------------


def test_label_permutation_worked_example():
    swap12 = Permutation.swap(1, 2)
    assert permute_ordering_label(2, swap12) == 0


def test_label_permutation_and_triples_match_the_itertools_numbering():
    # the oracle: orderings numbered by itertools.permutations triples, and
    # a label renamed through its Variable objects
    triples = list(itertools.permutations((1, 2, 3)))
    for label, triple in enumerate(triples):
        variables = tuple(VARIABLES[i - 1] for i in triple)
        assert Ordering(label).triple == variables
        for sigma in ALL_PERMUTATIONS:
            renamed = tuple(sigma.apply_index(v.index) for v in variables)
            assert permute_ordering_label(label, sigma) == triples.index(renamed)
    for label in (-1, 6):
        with pytest.raises(ValueError):
            permute_ordering_label(label, IDENTITY)


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


def test_augment_moves_blocks_and_label():
    ds = Dataset(["a"], [[10.0, 20.0, 30.0]], [2], TINY_SCHEMA, "unbalanced", "all")
    out = augment_full(ds)
    swapped = ALL_PERMUTATIONS.index(Permutation.swap(1, 2))
    assert out.ids[swapped] == "a#213"
    assert out.X[swapped].tolist() == [20.0, 10.0, 30.0]
    assert out.y[swapped] == 0


def test_renamed_columns_move_whole_blocks():
    # x1 block (1, 2), x2 block (3, 4), x3 block (5, 6)
    row = [1, 2, 3, 4, 5, 6]
    assert permute_values(row, Permutation.swap(1, 2), PAIR_SCHEMA) == [3, 4, 1, 2, 5, 6]
    # x1 -> x2, x2 -> x3, x3 -> x1
    assert permute_values(row, Permutation((2, 3, 1)), PAIR_SCHEMA) == [5, 6, 1, 2, 3, 4]


def test_renamed_columns_group_laws():
    row = list(range(len(PAIR_SCHEMA)))

    def act(sigma, values):
        return [values[c] for c in PAIR_SCHEMA.renamed_columns(sigma)]

    for a in ALL_PERMUTATIONS:
        for b in ALL_PERMUTATIONS:
            assert act(b.compose(a), row) == act(b, act(a, row))
        assert act(a.inverse(), act(a, row)) == row


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


def test_augment_full_matches_rename_pipeline():
    # the end-to-end oracle: every augmented row equals featurizing and
    # re-labelling the renamed instance (skipping instances whose argmin is
    # tied, where the tie-break is not invariant)
    rng = random.Random(77)
    schema = FeatureSchema.raw()
    instances = []
    while len(instances) < 4:
        inst = random_instance(rng, f"r{len(instances)}")
        scores = sotd_scores(inst)
        finite = [s for s in scores if s is not None]
        if finite and sum(1 for s in scores if s == min(finite)) == 1:
            instances.append(inst)
    ds = Dataset(
        [inst.id for inst in instances],
        [featurize(inst, schema) for inst in instances],
        [label_by_sotd(inst).index for inst in instances],
        schema,
        "unbalanced",
        "all",
    )
    out = augment_full(ds)
    assert len(out) == 6 * len(instances)
    rows = zip(out.ids, out.X.tolist(), out.y.tolist())
    for inst in instances:
        for sigma in ALL_PERMUTATIONS:
            renamed = ProblemInstance(
                inst.id,
                frozenset(p.rename(sigma) for p in inst.polynomials),
                inst.variable_map,
            )
            expect_id = f"{inst.id}#{sigma.name}"
            expect = (expect_id, featurize(renamed, schema), label_by_sotd(renamed).index)
            assert next(rows) == expect


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
    assert sorted(a.ids) == sorted(ds.ids)


@pytest.mark.parametrize("mode", ["random", "exact"])
def test_balance_matches_row_by_row_reference(mode):
    # random: one rng.choice(ALL_PERMUTATIONS) per row, in row order;
    # exact: the least-filled class, ties to the lowest image triple
    labels = [l for l, c in enumerate(PROFILE_COUNTS) for _ in range(c)]
    ds = Dataset(
        [f"r{k}" for k in range(len(labels))],
        [[k, 10 * k, 100 * k, k + 1, k + 2, k + 3] for k in range(len(labels))],
        labels,
        PAIR_SCHEMA,
        "unbalanced",
        "train",
    )
    out = balance(ds, mode, seed=8)
    rng = random.Random(8)
    counts = [0] * 6
    assert out.ids == ds.ids
    rows = zip(ds.X.tolist(), labels, out.X.tolist(), out.y.tolist())
    for values, label, got_values, got_label in rows:
        if mode == "random":
            sigma = rng.choice(ALL_PERMUTATIONS)
        else:
            sigma = min(
                ALL_PERMUTATIONS,
                key=lambda s: (counts[permute_ordering_label(label, s)], s.images),
            )
            counts[permute_ordering_label(label, sigma)] += 1
        assert got_values == permute_values(values, sigma, PAIR_SCHEMA)
        assert got_label == permute_ordering_label(label, sigma)


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
    assert sorted(out.y.tolist()) == [0, 1, 2, 3, 4, 5]
    assert list(out.ids) == [f"r0000#{s.name}" for s in ALL_PERMUTATIONS]


def test_augment_full_refuses_twice():
    ds = tiny_dataset([0, 1])
    once = augment_full(ds)
    with pytest.raises(ValueError):
        augment_full(once)


def test_augment_full_row_order():
    ds = tiny_dataset([0, 5])
    out = augment_full(ds)
    assert list(out.ids[:6]) == [f"r0000#{s.name}" for s in ALL_PERMUTATIONS]
    assert list(out.ids[6:]) == [f"r0001#{s.name}" for s in ALL_PERMUTATIONS]


# -- split ----------------------------------------------------------------


def test_split_1019_at_20_percent():
    labels = [l for l, c in enumerate(PROFILE_COUNTS) for _ in range(c)]
    ds = tiny_dataset(labels)
    train, test = split(ds, 0.2, seed=3)
    assert len(test) == 204
    assert len(train) == 815
    assert train.role == "train"
    assert test.role == "test"
    assert set(train.ids).isdisjoint(test.ids)
    assert sorted(train.ids + test.ids) == sorted(ds.ids)


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
    train_bases = {base(i) for i in aug_train.ids}
    test_bases = {base(i) for i in aug_test.ids}
    assert train_bases.isdisjoint(test_bases)


# -- dataset container and IO ---------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError, match="r0001: label 6 out of range"):
        tiny_dataset([0, 6, -1])
    with pytest.raises(ValueError):
        Dataset(["a"], [[1.0]], [0], TINY_SCHEMA, "unbalanced", "all")
    with pytest.raises(ValueError):
        Dataset(["a", "b"], [[1.0, 2.0, 3.0]], [0, 1], TINY_SCHEMA, "unbalanced", "all")
    with pytest.raises(ValueError, match="b: non-finite feature value"):
        Dataset(["a", "b"], [[1.0, 2.0, 3.0], [1.0, float("inf"), 3.0]], [0, 1],
                TINY_SCHEMA, "unbalanced", "all")
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(["a", "a"], [[1.0, 2.0, 3.0]] * 2, [0, 1], TINY_SCHEMA, "unbalanced", "all")
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
    assert ds.X.shape == (4, 3)
    assert ds.X.flags.c_contiguous and not ds.X.flags.writeable
    assert ds.y.tolist() == [0, 1, 1, 4]
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
