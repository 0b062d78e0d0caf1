"""The descriptor feature grammar, its linear filter, and feature IO.

A descriptor measures one variable through a five-stage pipeline: a base
statistic per monomial (plain degree, or total degree gated on the
variable appearing), an aggregation across a polynomial's monomials, an
optional sign, an aggregation across the instance's polynomials, and a
final optional sign.  The grammar enumerates 2*4*2*4*2 = 128 descriptors
per variable, 384 in total, laid out in variable-major blocks so that
renaming variables acts on feature vectors by permuting blocks.

Every feature is computed exactly.  ``featurize`` works on one instance's
monomials as integer arrays: per-polynomial reductions give each value as
an integer numerator and denominator, aggregated across polynomials over
their lcm, and floats appear only at the end, one correctly rounded
division per value.  The arrays are int64 while every numerator and
denominator stays below 2^53; past that bound the same expressions run
on Python ints.  The per-descriptor ``Fraction`` loop below is the
reference the tests compare them with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from cadaug import kernels
from cadaug.floattext import text_table
from cadaug.jsonfields import json_field
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
        return f"{self.variable.name}.{_shape_name(self.shape)}"


def _shape_name(shape: Shape) -> str:
    base, inner, sign_m, outer, sign_p = shape
    return ".".join([base, inner, "sign" if sign_m else "id", outer, "sign" if sign_p else "id"])


_SHAPES_BY_NAME = {_shape_name(shape): shape for shape in all_shapes()}


def _shape_named(text: str) -> Shape:
    shape = _SHAPES_BY_NAME.get(text) if isinstance(text, str) else None
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

    def renamed_columns(self, sigma: Permutation) -> list[int]:
        """The column of a row that each column of its sigma-image takes
        its value from: renaming variables by sigma moves the value at
        (shape, v) to (shape, sigma(v))."""
        inverse = sigma.inverse()
        return [
            self.position(VARIABLES[inverse.apply_index(v.index) - 1], i)
            for v in VARIABLES
            for i in range(len(self.shapes))
        ]

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
        names = json_field(obj, "shapes", list, "feature schema")
        return cls(tuple(_shape_named(s) for s in names))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> FeatureSchema:
        return cls.from_json(json.loads(Path(path).read_text()))


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


# every numerator and denominator of a feature stays below this, so each is
# exact in int64 and in float64, and one division rounds the value correctly
_EXACT_BOUND = 1 << 53

# the stages of one aggregation level: an aggregation, then a sign or not
_STAGES = tuple(product(AGGREGATIONS, (False, True)))


def _stage_pairs(top, total, count, nonzero, den):
    """The (numerators, denominators) of every stage in ``_STAGES`` over
    groups of non-negative rationals, stacked on a new leading axis.

    The rationals of a group share the denominator ``den``: ``top`` and
    ``total`` are the max and the sum of their numerators, ``count`` their
    number and ``nonzero`` the number of nonzero ones.
    """
    one = np.ones_like(den)
    nums, dens = [], []
    for num, d in (
        (top, den),
        (total, den),
        (total, count * den),
        (total, np.maximum(nonzero, 1) * den),  # 0 / den when none is nonzero
    ):
        nums += [num, num > 0]
        dens += [d, one]
    return np.stack(nums), np.stack(dens)


@lru_cache(maxsize=16)
def _gather(schema: FeatureSchema) -> np.ndarray:
    """Each schema column's position in the flat layout of
    ``_feature_pairs``: (polynomial stage, monomial stage, base, variable).
    Read-only, as every call for the schema shares it."""
    stage = {s: i for i, s in enumerate(_STAGES)}
    layout = (len(_STAGES), len(_STAGES), len(BASES), 3)
    gather = np.array(
        [
            np.ravel_multi_index(
                (stage[outer, sign_p], stage[inner, sign_m], BASES.index(base), v.index - 1),
                layout,
            )
            for v in VARIABLES
            for base, inner, sign_m, outer, sign_p in schema.shapes
        ],
        dtype=np.intp,
    )
    gather.flags.writeable = False
    return gather


def _feature_pairs(instance: ProblemInstance, schema: FeatureSchema):
    """Every schema feature as an exact fraction, in schema order: a pair
    of integer arrays (numerators, positive denominators), not reduced.

    The arrays are int64 while every numerator and denominator stays
    below ``_EXACT_BOUND``; otherwise they hold Python ints (dtype
    object), computed by the same expressions.
    """
    polys = instance.sorted_polynomials
    counts = [len(p.raw) for p in polys]
    keys = [key for p in polys for key in p.raw]
    # a key past 63 bits (an x3 exponent past its field) does not fit int64
    packed = np.array(keys, dtype=object if max(keys) >> 63 else np.int64)
    exps = np.stack(
        [
            packed & kernels.EXP_MASK,
            (packed >> kernels.EXP_BITS) & kernels.EXP_MASK,
            packed >> (2 * kernels.EXP_BITS),
        ],
        axis=1,
    )
    degree = exps.sum(axis=1)
    # every numerator is at most scale times the lcm of the monomial
    # stages' denominators, and every denominator at most len(polys) times it
    scale = len(polys) * max(counts) * max(int(degree.max()), 1)
    if scale >= _EXACT_BOUND:
        exps, degree = exps.astype(object), degree.astype(object)
    # one column per (base, variable), in BASES order
    base = np.concatenate([exps, np.where(exps > 0, degree[:, None], 0)], axis=1)
    starts = np.cumsum([0] + counts[:-1])
    inner_num, inner_den = _stage_pairs(
        np.maximum.reduceat(base, starts),
        np.add.reduceat(base, starts),
        np.array(counts)[:, None],
        np.add.reduceat(base > 0, starts, dtype=np.int64),
        np.ones_like(base[: len(polys)]),
    )
    # the monomial stages stay below scale, so they are exact in int64
    if scale * math.lcm(*np.unique(inner_den).tolist()) >= _EXACT_BOUND:
        inner_num, inner_den = inner_num.astype(object), inner_den.astype(object)
    lcm = np.lcm.reduce(inner_den, axis=1)
    scaled = inner_num * (lcm[:, None] // inner_den)
    num, den = _stage_pairs(
        scaled.max(axis=1),
        scaled.sum(axis=1),
        len(polys),
        np.count_nonzero(scaled, axis=1),
        lcm,
    )
    gather = _gather(schema)
    return num.reshape(-1)[gather], den.reshape(-1)[gather]


def featurize_exact(instance: ProblemInstance, schema: FeatureSchema | None = None) -> list:
    """All schema features as exact rationals (ints and Fractions), in
    schema order: the value of each descriptor."""
    if schema is None:
        schema = FeatureSchema.raw()
    out = []
    for num, den in zip(*(a.tolist() for a in _feature_pairs(instance, schema))):
        value = Fraction(num, den)
        out.append(value.numerator if value.denominator == 1 else value)
    return out


def featurize(instance: ProblemInstance, schema: FeatureSchema | None = None) -> list[float]:
    """All schema features as floats, in schema order: each the correctly
    rounded value of its exact rational (see ``featurize_exact``).  On
    Python ints, ``/`` rounds correctly too."""
    if schema is None:
        schema = FeatureSchema.raw()
    num, den = _feature_pairs(instance, schema)
    return (num / den).tolist()


# -- permutation action ---------------------------------------------------


def permute_values(values: Sequence, sigma: Permutation, schema: FeatureSchema) -> list:
    """Move the value at (shape, v) to (shape, sigma(v))."""
    if len(values) != len(schema):
        raise ValueError(
            f"feature vector length {len(values)} does not match schema length {len(schema)}"
        )
    return [values[c] for c in schema.renamed_columns(sigma)]


# -- essentially-distinct filter ------------------------------------------


# a column adds rank when its residual exceeds this share of its norm (or of 1)
DISTINCT_REL_TOL = 1e-9


def fit_distinct_filter(matrix: np.ndarray, schema: FeatureSchema | None = None) -> FeatureSchema:
    """Keep the descriptor shapes that are not in an affine relationship
    with previously kept shapes on the rows of the given feature matrix.

    Shapes are scanned in canonical order; a shape is kept iff at least one
    of its three variable-columns adds rank over the kept columns plus the
    constant column.  Kept or dropped applies to the whole shape (all three
    variables), so the filtered schema stays block-symmetric.

    A column adds rank when its residual after classical Gram–Schmidt,
    done twice, against the orthonormal basis found so far is longer than
    ``DISTINCT_REL_TOL`` times the column (or 1, if longer); each pass is
    two matrix-vector products over the basis.
    """
    if schema is None:
        schema = FeatureSchema.raw()
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need at least 2 feature rows to fit the filter")
    if matrix.shape[1] != len(schema):
        raise ValueError(
            f"feature matrix has {matrix.shape[1]} columns, schema expects {len(schema)}"
        )

    n = matrix.shape[0]
    columns = np.ascontiguousarray(matrix.T)
    basis = np.empty((len(schema) + 1, n))
    basis[0] = 1.0 / math.sqrt(n)
    rank = 1
    kept: list[Shape] = []
    for shape_index, shape in enumerate(schema.shapes):
        before = rank
        for v in VARIABLES:
            col = columns[schema.position(v, shape_index)]
            r = col.copy()
            for _ in range(2):  # re-orthogonalize for numerical stability
                r -= (basis[:rank] @ r) @ basis[:rank]
            r_norm = np.linalg.norm(r)
            if r_norm > DISTINCT_REL_TOL * max(np.linalg.norm(col), 1.0):
                basis[rank] = r / r_norm
                rank += 1
        if rank > before:
            kept.append(shape)
    return FeatureSchema(tuple(kept))


# -- CSV serialization ----------------------------------------------------


def write_features_csv(
    path,
    ids: Sequence[str],
    labels: Sequence[Optional[int]],
    matrix: Sequence[Sequence[float]],
    schema: FeatureSchema,
):
    """Write a header and one row per (id, label, feature row); each value
    is written as ``f"{v:.17g}"``, which reads back bit for bit."""
    names = schema.column_names()
    for row_id, row in zip(ids, matrix):
        if len(row) != len(names):
            raise ValueError(f"{row_id}: row length {len(row)} != {len(names)}")
    values = np.asarray(matrix, dtype=np.float64).reshape(-1, len(names))
    cells = text_table(values, "{:.17g}".format)
    with open(path, "w") as fh:
        fh.write("id,label," + ",".join(names) + "\n")
        for row_id, label, row in zip(ids, labels, cells):
            fh.write(f"{row_id},{'' if label is None else label},{','.join(row)}\n")


def read_features_csv(path):
    """Returns (ids, labels, matrix); labels are ints or None.

    A label that is not an integer, or a value that is not a number or not
    finite (``nan``, ``inf``), is rejected, naming its row id and column.
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
            try:
                labels.append(int(parts[1]) if parts[1] != "" else None)
            except ValueError:
                raise ValueError(
                    f"row for {parts[0]}: label is {parts[1]!r}, not an integer"
                ) from None
            row = []
            for name, cell in zip(header[2:], parts[2:]):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"row for {parts[0]}: {name} is {cell!r}, not a number"
                    ) from None
            values.append(row)
    matrix = np.asarray(values, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, column = bad[0]
        raise ValueError(
            f"row for {ids[row]}: {header[column + 2]} is {matrix[row, column]}, not a finite number"
        )
    return ids, labels, matrix
