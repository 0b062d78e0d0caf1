"""The descriptor feature grammar, its linear filter, and feature IO.

A descriptor measures one variable through a five-stage pipeline: a base
statistic per monomial (plain degree, or total degree gated on the
variable appearing), an aggregation across a polynomial's monomials, an
optional sign, an aggregation across the instance's polynomials, and a
final optional sign.  The grammar enumerates 2*4*2*4*2 = 128 descriptors
per variable, 384 in total, laid out in variable-major blocks so that
renaming variables acts on feature vectors by permuting blocks.

Everything is evaluated in exact rational arithmetic; floats appear only
at the serialization boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from cadaug import kernels
from cadaug.poly import Variable, VARIABLES
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import Permutation

BASES = ("degree", "gated_degree")
AGGREGATIONS = ("max", "sum", "avg", "avg_nonzero")

# A shape is a descriptor with the variable abstracted away:
# (base, monomial_agg, sign_after_monomial, polynomial_agg, sign_after_polynomial)
Shape = tuple[str, str, bool, str, bool]


def all_shapes() -> tuple[Shape, ...]:
    """The 128 descriptor shapes in canonical enumeration order."""
    return tuple(
        (base, inner, sign_m, outer, sign_p)
        for base, inner, sign_m, outer, sign_p in product(
            BASES, AGGREGATIONS, (False, True), AGGREGATIONS, (False, True)
        )
    )


@dataclass(frozen=True)
class Descriptor:
    variable: Variable
    base: str
    monomial_agg: str
    sign_after_monomial: bool
    polynomial_agg: str
    sign_after_polynomial: bool

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"unknown base {self.base!r}")
        if self.monomial_agg not in AGGREGATIONS or self.polynomial_agg not in AGGREGATIONS:
            raise ValueError("unknown aggregation")

    @property
    def shape(self) -> Shape:
        return (
            self.base,
            self.monomial_agg,
            self.sign_after_monomial,
            self.polynomial_agg,
            self.sign_after_polynomial,
        )

    @property
    def name(self) -> str:
        sm = "sign" if self.sign_after_monomial else "id"
        sp = "sign" if self.sign_after_polynomial else "id"
        return ".".join(
            [self.variable.name, self.base, self.monomial_agg, sm, self.polynomial_agg, sp]
        )


def _shape_name(shape: Shape) -> str:
    base, inner, sign_m, outer, sign_p = shape
    return ".".join([base, inner, "sign" if sign_m else "id", outer, "sign" if sign_p else "id"])


_SHAPES_BY_NAME = {_shape_name(shape): shape for shape in all_shapes()}


def _shape_from_name(text: str) -> Shape:
    shape = _SHAPES_BY_NAME.get(text)
    if shape is None:
        raise ValueError(f"unknown descriptor shape {text!r}")
    return shape


@dataclass(frozen=True)
class FeatureSchema:
    """An ordered block-symmetric descriptor list: every shape appears once
    per variable, x1 block first, then x2, then x3."""

    shapes: tuple[Shape, ...]

    @classmethod
    def raw(cls) -> FeatureSchema:
        return cls(all_shapes())

    def __len__(self) -> int:
        return 3 * len(self.shapes)

    def position(self, variable: Variable, shape_index: int) -> int:
        return (variable.index - 1) * len(self.shapes) + shape_index

    def columns_in(self, source: FeatureSchema) -> list[int]:
        """The position in `source`'s layout of each of this schema's
        columns, so a row of `source` narrows to this schema by picking
        those columns.  Every shape of this schema must be in `source`."""
        index = {shape: i for i, shape in enumerate(source.shapes)}
        return [source.position(v, index[shape]) for v in VARIABLES for shape in self.shapes]

    def descriptors(self) -> list[Descriptor]:
        return [
            Descriptor(v, *shape) for v in VARIABLES for shape in self.shapes
        ]

    def column_names(self) -> list[str]:
        width = max(3, len(str(len(self) - 1)))
        return [f"f{i:0{width}d}" for i in range(len(self))]

    def to_json(self) -> dict:
        return {
            "feature_count": len(self),
            "shape_count": len(self.shapes),
            "shapes": [_shape_name(s) for s in self.shapes],
            "descriptors": [d.name for d in self.descriptors()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> FeatureSchema:
        return cls(tuple(_shape_from_name(s) for s in obj["shapes"]))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> FeatureSchema:
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class FeatureVector:
    instance_id: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"{self.instance_id}: non-finite feature value")


# -- evaluation -----------------------------------------------------------


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _exact_mean(values: Sequence):
    total = sum(values)
    n = len(values)
    if isinstance(total, int):
        q, r = divmod(total, n)
        return q if r == 0 else Fraction(total, n)
    out = total / n
    return out.numerator if out.denominator == 1 else out


def _aggregate(values: Sequence, op: str):
    if op == "max":
        return max(values)
    if op == "sum":
        return sum(values)
    if op == "avg":
        return _exact_mean(values)
    if op != "avg_nonzero":
        raise ValueError(f"unknown aggregation {op!r}")
    # mean of the nonzero entries, 0 when there are none
    nonzero = [v for v in values if v]
    if not nonzero:
        return 0
    return _exact_mean(nonzero)


def _monomial_stats(instance: ProblemInstance):
    """Per polynomial, per variable: the degree list and gated-degree list
    over the polynomial's monomials (constants included as degree 0)."""
    stats = []
    for p in instance.sorted_polynomials:
        degs: list[list[int]] = [[], [], []]
        gated: list[list[int]] = [[], [], []]
        for key in p.raw:
            exps = kernels.unpack(key)
            td = exps[0] + exps[1] + exps[2]
            for i in range(3):
                degs[i].append(exps[i])
                gated[i].append(td if exps[i] > 0 else 0)
        stats.append((degs, gated))
    return stats


def evaluate_descriptor(instance: ProblemInstance, d: Descriptor):
    """The exact rational value of one descriptor on one instance."""
    i = d.variable.index - 1
    per_poly = []
    for p in instance.sorted_polynomials:
        values = []
        for key in p.raw:
            exps = kernels.unpack(key)
            if d.base == "degree":
                values.append(exps[i])
            else:
                values.append(exps[0] + exps[1] + exps[2] if exps[i] > 0 else 0)
        inner = _aggregate(values, d.monomial_agg)
        per_poly.append(_sign(inner) if d.sign_after_monomial else inner)
    outer = _aggregate(per_poly, d.polynomial_agg)
    return _sign(outer) if d.sign_after_polynomial else outer


def featurize_exact(instance: ProblemInstance, schema: FeatureSchema | None = None) -> list:
    """All schema features as exact rationals, in schema order."""
    if schema is None:
        schema = FeatureSchema.raw()
    stats = _monomial_stats(instance)
    # inner aggregation results per (variable, base, inner_agg, sign), one
    # value per polynomial, computed once and shared across outer stages
    inner_cache: dict[tuple[int, str, str, bool], list] = {}

    def inner_values(var_i: int, base: str, agg: str, signed: bool) -> list:
        key = (var_i, base, agg, signed)
        got = inner_cache.get(key)
        if got is not None:
            return got
        if signed:
            raw = inner_values(var_i, base, agg, False)
            result = [_sign(v) for v in raw]
        else:
            select = 0 if base == "degree" else 1
            result = [_aggregate(stat[select][var_i], agg) for stat in stats]
        inner_cache[key] = result
        return result

    out = []
    for v in VARIABLES:
        var_i = v.index - 1
        for base, inner, sign_m, outer, sign_p in schema.shapes:
            per_poly = inner_values(var_i, base, inner, sign_m)
            value = _aggregate(per_poly, outer)
            out.append(_sign(value) if sign_p else value)
    return out


def featurize(instance: ProblemInstance, schema: FeatureSchema | None = None) -> FeatureVector:
    exact = featurize_exact(instance, schema)
    return FeatureVector(instance.id, tuple(float(v) for v in exact))


# -- permutation action ---------------------------------------------------


def permute_values(values: Sequence, sigma: Permutation, schema: FeatureSchema) -> list:
    """Move the value at (shape, v) to (shape, sigma(v))."""
    if len(values) != len(schema):
        raise ValueError(
            f"feature vector length {len(values)} does not match schema length {len(schema)}"
        )
    block = len(schema.shapes)
    out = list(values)
    for v in VARIABLES:
        src = (v.index - 1) * block
        dst = (sigma.apply_index(v.index) - 1) * block
        out[dst : dst + block] = values[src : src + block]
    return out


# -- essentially-distinct filter ------------------------------------------


# a column adds rank when its residual exceeds this share of its norm (or of 1)
DISTINCT_REL_TOL = 1e-9


def fit_distinct_filter(
    rows: Sequence[Sequence], schema: FeatureSchema | None = None
) -> FeatureSchema:
    """Keep the descriptor shapes that are not in an affine relationship
    with previously kept shapes on the given reference rows.

    Shapes are scanned in canonical order; a shape is kept iff at least one
    of its three variable-columns adds rank over the kept columns plus the
    constant column.  Kept or dropped applies to the whole shape (all three
    variables), so the filtered schema stays block-symmetric.
    """
    if schema is None:
        schema = FeatureSchema.raw()
    matrix = np.asarray(
        [[float(v) for v in row] for row in rows], dtype=np.float64
    )
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need at least 2 feature rows to fit the filter")
    if matrix.shape[1] != len(schema):
        raise ValueError(
            f"feature matrix has {matrix.shape[1]} columns, schema expects {len(schema)}"
        )

    n = matrix.shape[0]
    basis: list[np.ndarray] = [np.full(n, 1.0 / math.sqrt(n))]

    def residual(col: np.ndarray) -> np.ndarray:
        r = col.astype(np.float64)
        for _ in range(2):  # re-orthogonalize for numerical stability
            for q in basis:
                r = r - (q @ r) * q
        return r

    def independent(col: np.ndarray) -> np.ndarray | None:
        scale = np.linalg.norm(col)
        r = residual(col)
        r_norm = np.linalg.norm(r)
        if r_norm > DISTINCT_REL_TOL * max(scale, 1.0):
            return r / r_norm
        return None

    kept: list[Shape] = []
    for shape_index, shape in enumerate(schema.shapes):
        columns = [matrix[:, schema.position(v, shape_index)] for v in VARIABLES]
        if any(independent(col) is not None for col in columns):
            kept.append(shape)
            for col in columns:
                q = independent(col)
                if q is not None:
                    basis.append(q)
    return FeatureSchema(tuple(kept))


# -- CSV serialization ----------------------------------------------------


def write_features_csv(
    path,
    ids: Sequence[str],
    labels: Sequence[Optional[int]],
    matrix: Sequence[Sequence[float]],
    schema: FeatureSchema,
):
    names = schema.column_names()
    with open(path, "w") as fh:
        fh.write("id,label," + ",".join(names) + "\n")
        for row_id, label, row in zip(ids, labels, matrix):
            if len(row) != len(names):
                raise ValueError(f"{row_id}: row length {len(row)} != {len(names)}")
            rendered = ",".join(f"{float(v):.17g}" for v in row)
            fh.write(f"{row_id},{'' if label is None else label},{rendered}\n")


def read_features_csv(path):
    """Returns (ids, labels, matrix); labels are ints or None.

    A value that is not a finite number (``nan``, ``inf``) is rejected,
    naming its row id and column.
    """
    ids: list[str] = []
    labels: list[Optional[int]] = []
    values: list[list[float]] = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:2] != ["id", "label"]:
            raise ValueError(f"unexpected feature CSV header: {header[:2]}")
        width = len(header) - 2
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width + 2:
                raise ValueError(f"row for {parts[0]} has {len(parts) - 2} values, want {width}")
            ids.append(parts[0])
            labels.append(int(parts[1]) if parts[1] != "" else None)
            values.append([float(x) for x in parts[2:]])
    matrix = np.asarray(values, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, column = bad[0]
        raise ValueError(
            f"row for {ids[row]}: {header[column + 2]} is {matrix[row, column]}, not a finite number"
        )
    return ids, labels, matrix
