"""The S3 group action on labelled datasets: balancing and full augmentation.

Renaming variables by a permutation sigma moves a feature row's variable
blocks (the columns ``FeatureSchema.renamed_columns(sigma)``) and
re-encodes its best-ordering label (``permute_ordering_label``), with no
re-featurization and no re-labelling.  `balance` picks one permutation
per row to even out the class distribution, and `augment_full` replaces
each row by its six images; both pick a permutation index per output row
and then build the output with one gather on ``X`` and one lookup in the
6x6 label table.  `split` partitions by instance id so that augmenting
train and test separately can never leak an instance across the split.
"""

from __future__ import annotations

import random

import numpy as np

from cadaug.dataset import Dataset
from cadaug.labelling import Ordering
from cadaug.symmetry import ALL_PERMUTATIONS, Permutation


def permute_ordering_label(label: int, sigma: Permutation) -> int:
    """Re-encode a best-ordering label 0..5 after renaming variables by
    sigma: (va > vb > vc) becomes (sigma(va) > sigma(vb) > sigma(vc)),
    the images of sigma composed after the label's permutation."""
    return ALL_PERMUTATIONS.index(sigma.compose(ALL_PERMUTATIONS[Ordering(label).index]))


# _LABEL_IMAGES[p][label] is the label after renaming by ALL_PERMUTATIONS[p]
_LABEL_IMAGES = [[permute_ordering_label(label, s) for label in range(6)] for s in ALL_PERMUTATIONS]


def _images(ds: Dataset, rows: np.ndarray, perms: np.ndarray, ids, provenance: str) -> Dataset:
    """Output row i is the image of row ``rows[i]`` of `ds` under
    ``ALL_PERMUTATIONS[perms[i]]``."""
    columns = np.array([ds.schema.renamed_columns(s) for s in ALL_PERMUTATIONS], dtype=np.intp)
    X = ds.X[rows[:, None], columns[perms]]
    y = np.array(_LABEL_IMAGES)[perms, ds.y[rows]]
    return Dataset(ids, X, y, ds.schema, provenance, ds.role)


def balance(ds: Dataset, mode: str = "random", seed: int = 0) -> Dataset:
    """Apply one permutation per row to even out class counts.

    `random` draws the permutation uniformly and independently per row;
    `exact` greedily sends each row to the least-filled class (gap <= 1,
    deterministic regardless of seed; ties go to the earliest permutation
    of ``ALL_PERMUTATIONS``).
    """
    if ds.provenance == "augmented":
        raise ValueError("cannot balance an augmented dataset")
    if mode == "random":
        rng = random.Random(seed)
        perms = [ALL_PERMUTATIONS.index(rng.choice(ALL_PERMUTATIONS)) for _ in ds.ids]
    elif mode == "exact":
        counts = [0] * 6
        perms = []
        for label in ds.y.tolist():
            # the orbit of any label covers every class exactly once, so
            # every class is reachable; pick the least-filled one
            p = min(range(6), key=lambda q: counts[_LABEL_IMAGES[q][label]])
            counts[_LABEL_IMAGES[p][label]] += 1
            perms.append(p)
    else:
        raise ValueError(f"unknown balance mode {mode!r}")
    return _images(ds, np.arange(len(ds)), np.array(perms, dtype=np.intp), ds.ids, "balanced")


def augment_full(ds: Dataset) -> Dataset:
    """Replace each row by its six sigma-images, ids suffixed `id#sigma`."""
    if ds.provenance == "augmented":
        raise ValueError("dataset is already augmented; refusing to augment again")
    n, k = len(ds), len(ALL_PERMUTATIONS)
    ids = [f"{i}#{s.name}" for i in ds.ids for s in ALL_PERMUTATIONS]
    return _images(ds, np.repeat(np.arange(n), k), np.tile(np.arange(k), n), ids, "augmented")


def split(ds: Dataset, test_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Uniform random split by instance id, deterministic given the seed.

    The test size is the fraction rounded half-up, clamped so both sides
    are non-empty.
    """
    if ds.provenance == "augmented":
        raise ValueError("split must run before augmentation")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction {test_fraction} outside (0, 1)")
    n = len(ds)
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    n_test = int(n * test_fraction + 0.5)
    n_test = max(1, min(n - 1, n_test))
    ids = list(ds.ids)
    rng = random.Random(seed)
    rng.shuffle(ids)
    test_ids = set(ids[:n_test])
    is_test = np.array([i in test_ids for i in ds.ids])

    def half(mask: np.ndarray, role: str) -> Dataset:
        ids = [i for i, keep in zip(ds.ids, mask) if keep]
        return Dataset(ids, ds.X[mask], ds.y[mask], ds.schema, ds.provenance, role)

    return half(~is_test, "train"), half(is_test, "test")
