"""Labelled feature datasets and their on-disk form.

A Dataset couples feature rows with the schema they were computed under,
plus provenance (unbalanced / balanced / augmented) and role (all / train
/ test).  On disk a dataset is a feature CSV next to a `.meta.json`
sidecar carrying provenance, role, and the seed/mode that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from cadaug.features import FeatureSchema, read_features_csv, write_features_csv

PROVENANCES = ("unbalanced", "balanced", "augmented")
ROLES = ("all", "train", "test")


@dataclass(frozen=True)
class Row:
    instance_id: str
    values: tuple[float, ...]
    label: int

    def __post_init__(self):
        if not 0 <= self.label <= 5:
            raise ValueError(f"{self.instance_id}: label {self.label} out of range 0..5")


@dataclass(frozen=True)
class Dataset:
    rows: tuple[Row, ...]
    schema: FeatureSchema
    provenance: str
    role: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        width = len(self.schema)
        for row in self.rows:
            if len(row.values) != width:
                raise ValueError(
                    f"{row.instance_id}: row width {len(row.values)} != schema width {width}"
                )
        if self.provenance != "augmented":
            ids = [row.instance_id for row in self.rows]
            if len(set(ids)) != len(ids):
                raise ValueError("duplicate instance ids in unaugmented dataset")

    def __len__(self) -> int:
        return len(self.rows)

    def ids(self) -> list[str]:
        return [row.instance_id for row in self.rows]

    def matrix(self) -> np.ndarray:
        return np.asarray([row.values for row in self.rows], dtype=np.float64)

    def labels(self) -> np.ndarray:
        return np.asarray([row.label for row in self.rows], dtype=np.int64)

    def class_counts(self) -> list[int]:
        counts = [0] * 6
        for row in self.rows:
            counts[row.label] += 1
        return counts

    def replace_rows(self, rows: Sequence[Row], provenance: str | None = None, role: str | None = None) -> Dataset:
        return Dataset(
            tuple(rows),
            self.schema,
            provenance if provenance is not None else self.provenance,
            role if role is not None else self.role,
        )


def make_dataset(
    ids: Sequence[str],
    matrix: Sequence[Sequence[float]],
    labels: Sequence[int],
    schema: FeatureSchema,
    provenance: str = "unbalanced",
    role: str = "all",
) -> Dataset:
    rows = tuple(
        Row(i, tuple(float(v) for v in values), int(label))
        for i, values, label in zip(ids, matrix, labels)
    )
    return Dataset(rows, schema, provenance, role)


def save_dataset(ds: Dataset, csv_path, seed: Optional[int] = None, mode: Optional[str] = None):
    """Write the feature CSV and its `.meta.json` provenance sidecar."""
    csv_path = Path(csv_path)
    write_features_csv(
        csv_path,
        [r.instance_id for r in ds.rows],
        [r.label for r in ds.rows],
        [r.values for r in ds.rows],
        ds.schema,
    )
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
    meta = json.loads(side.read_text()) if side.exists() else {}
    ds = make_dataset(
        ids,
        matrix,
        labels,
        schema,
        provenance=meta.get("provenance", "unbalanced"),
        role=meta.get("role", "all"),
    )
    return ds, meta
