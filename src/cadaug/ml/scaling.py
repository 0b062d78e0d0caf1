"""Per-feature z-score standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..jsonfields import is_number, json_field

__all__ = ["Standardizer", "standardize_fit"]

_ZERO_VARIANCE = 1e-12


@dataclass(frozen=True)
class Standardizer:
    """Frozen per-feature location/scale statistics.

    Zero-variance features get a unit scale, so after centring they map to
    exactly zero on the data the statistics were fitted on.
    """

    mean: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mean) != len(self.scale):
            raise ValueError("mean and scale must have equal length")
        if any(s <= 0.0 for s in self.scale):
            raise ValueError("scales must be positive")

    @property
    def n_features(self) -> int:
        return len(self.mean)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_features:
            raise ValueError(
                f"expected a 2-d array with {self.n_features} columns, "
                f"got shape {matrix.shape}"
            )
        return (matrix - np.asarray(self.mean)) / np.asarray(self.scale)

    def to_json(self) -> dict:
        return {"mean": list(self.mean), "scale": list(self.scale)}

    @classmethod
    def from_json(cls, data: dict) -> "Standardizer":
        return cls(_numbers(data, "mean"), _numbers(data, "scale"))


def _numbers(data: dict, key: str) -> tuple[float, ...]:
    """``data[key]``, which must be an array of numbers."""
    values = json_field(data, key, list, "model file stats")
    if not all(map(is_number, values)):
        raise ValueError(f"model file stats: {key!r} is not an array of numbers")
    return tuple(float(v) for v in values)


def standardize_fit(matrix: np.ndarray) -> Standardizer:
    """Fit z-score statistics on a training matrix (one row per instance)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("standardization needs at least two rows")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    scale = np.where(std < _ZERO_VARIANCE, 1.0, std)
    return Standardizer(tuple(float(v) for v in mean), tuple(float(v) for v in scale))

