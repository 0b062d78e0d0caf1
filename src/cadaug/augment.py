"""The S3 group action on labelled datasets: balancing and full augmentation.

Renaming variables by a permutation moves a feature vector by block
permutation and re-encodes the best-ordering label, with no
re-featurization and no re-labelling.  `balance` applies one permutation
per row to even out the class distribution; `augment_full` replaces each
row by its six images.  `split` partitions by instance id so that augmenting
train and test separately can never leak an instance across the split.
"""

from __future__ import annotations

import random

from cadaug.dataset import Dataset, Row
from cadaug.features import FeatureSchema, permute_values
from cadaug.labelling import Ordering, ordering_from_triple
from cadaug.symmetry import ALL_PERMUTATIONS, Permutation


def permute_ordering_label(label: int, sigma: Permutation) -> int:
    """Re-encode a best-ordering label 0..5 after renaming variables by
    sigma: (va > vb > vc) becomes (sigma(va) > sigma(vb) > sigma(vc))."""
    triple = Ordering(label).triple
    return ordering_from_triple([sigma.apply_index(v.index) for v in triple]).index


def apply_permutation(row: Row, sigma: Permutation, schema: FeatureSchema) -> Row:
    """One row's sigma-image: block-permuted features, re-encoded label."""
    values = tuple(permute_values(row.values, sigma, schema))
    return Row(row.instance_id, values, permute_ordering_label(row.label, sigma))


def balance(ds: Dataset, mode: str = "random", seed: int = 0) -> Dataset:
    """Apply one permutation per row to even out class counts.

    `random` draws the permutation uniformly and independently per row;
    `exact` greedily sends each row to the least-filled class (gap <= 1,
    deterministic regardless of seed).
    """
    if ds.provenance == "augmented":
        raise ValueError("cannot balance an augmented dataset")
    if mode == "random":
        rng = random.Random(seed)
        rows = [
            apply_permutation(row, rng.choice(ALL_PERMUTATIONS), ds.schema)
            for row in ds.rows
        ]
    elif mode == "exact":
        counts = [0] * 6
        rows = []
        for row in ds.rows:
            # the orbit of any label covers every class exactly once, so
            # every class is reachable; pick the least-filled one
            best_sigma = min(
                ALL_PERMUTATIONS,
                key=lambda s: (counts[permute_ordering_label(row.label, s)], s.images),
            )
            new_row = apply_permutation(row, best_sigma, ds.schema)
            counts[new_row.label] += 1
            rows.append(new_row)
    else:
        raise ValueError(f"unknown balance mode {mode!r}")
    return ds.replace_rows(rows, provenance="balanced")


def augment_full(ds: Dataset) -> Dataset:
    """Replace each row by its six sigma-images, ids suffixed `id#sigma`."""
    if ds.provenance == "augmented":
        raise ValueError("dataset is already augmented; refusing to augment again")
    rows = []
    for row in ds.rows:
        for sigma in ALL_PERMUTATIONS:
            image = apply_permutation(row, sigma, ds.schema)
            rows.append(Row(f"{row.instance_id}#{sigma.name}", image.values, image.label))
    return ds.replace_rows(rows, provenance="augmented")


def split(ds: Dataset, test_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Uniform random split by instance id, deterministic given the seed.

    The test size is the fraction rounded half-up, clamped so both sides
    are non-empty.
    """
    if ds.provenance == "augmented":
        raise ValueError("split must run before augmentation")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction {test_fraction} outside (0, 1)")
    n = len(ds.rows)
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    n_test = int(n * test_fraction + 0.5)
    n_test = max(1, min(n - 1, n_test))
    ids = [row.instance_id for row in ds.rows]
    rng = random.Random(seed)
    rng.shuffle(ids)
    test_ids = set(ids[:n_test])
    train_rows = [row for row in ds.rows if row.instance_id not in test_ids]
    test_rows = [row for row in ds.rows if row.instance_id in test_ids]
    return (
        ds.replace_rows(train_rows, role="train"),
        ds.replace_rows(test_rows, role="test"),
    )
