"""Labelled feature datasets and their on-disk form.

A Dataset holds its rows as arrays: ``ids`` (one instance id per row),
``X`` (a C-contiguous ``(rows, len(schema))`` float64 matrix computed
under ``schema``) and ``y`` (int64 best-ordering labels 0..5), plus
provenance (unbalanced / balanced / augmented) and role (all / train /
test).  The arrays are read-only, so derived datasets are built by
gathering rows and columns into new arrays.  On disk a dataset is a
feature CSV next to a `.meta.json` sidecar carrying provenance, role,
and the seed/mode that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from cadaug.features import FeatureSchema, read_features_csv, write_features_csv
from cadaug.jsonfields import json_field, read_json

PROVENANCES = ("unbalanced", "balanced", "augmented")
ROLES = ("all", "train", "test")


@dataclass(frozen=True, eq=False)
class Dataset:
    ids: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema
    provenance: str
    role: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        ids = tuple(self.ids)
        width = len(self.schema)
        X = np.array(self.X, dtype=np.float64, order="C")
        if X.size == 0:
            X = X.reshape(0, width)
        if X.ndim != 2 or X.shape[1] != width:
            raise ValueError(f"feature matrix of shape {X.shape} != schema width {width}")
        y = np.array(self.y, dtype=np.int64)
        if X.shape[0] != len(ids) or y.shape != (len(ids),):
            raise ValueError(f"{len(ids)} ids, {X.shape[0]} feature rows and {y.size} labels")
        bad = np.flatnonzero((y < 0) | (y > 5))
        if bad.size:
            raise ValueError(f"{ids[bad[0]]}: label {y[bad[0]]} out of range 0..5")
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"{ids[bad[0]]}: non-finite feature value")
        if self.provenance != "augmented" and len(set(ids)) != len(ids):
            raise ValueError("duplicate instance ids in unaugmented dataset")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.ids, self.schema, self.provenance, self.role)
            == (other.ids, other.schema, other.provenance, other.role)
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )

    def __len__(self) -> int:
        return len(self.ids)

    def class_counts(self) -> list[int]:
        return np.bincount(self.y, minlength=6).tolist()


def save_dataset(ds: Dataset, csv_path, seed: Optional[int] = None, mode: Optional[str] = None):
    """Write the feature CSV and its `.meta.json` provenance sidecar."""
    csv_path = Path(csv_path)
    write_features_csv(csv_path, ds.ids, ds.y.tolist(), ds.X, ds.schema)
    meta = {"provenance": ds.provenance, "role": ds.role, "seed": seed, "mode": mode}
    sidecar_path(csv_path).write_text(json.dumps(meta, indent=2) + "\n")


def sidecar_path(csv_path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".meta.json")


def load_dataset(csv_path, schema: FeatureSchema) -> tuple[Dataset, dict]:
    """Read a feature CSV plus sidecar; every row must carry a label."""
    csv_path = Path(csv_path)
    ids, labels, matrix = read_features_csv(csv_path)
    for i, label in zip(ids, labels):
        if label is None:
            raise ValueError(f"{i}: dataset row has no label")
    side = sidecar_path(csv_path)
    meta = read_json(side, "dataset sidecar") if side.exists() else {}
    if not isinstance(meta, dict):
        raise ValueError(f"dataset sidecar {side}: not a JSON object")
    # a missing key keeps its default; save_dataset writes a null seed or mode
    for key, kind in (("provenance", str), ("role", str), ("seed", int), ("mode", str)):
        if key in meta and (meta[key] is not None or key in ("provenance", "role")):
            json_field(meta, key, kind, f"dataset sidecar {side}")
    ds = Dataset(
        ids,
        matrix,
        labels,
        schema,
        meta.get("provenance", "unbalanced"),
        meta.get("role", "all"),
    )
    return ds, meta
