"""The per-descriptor ``Fraction`` evaluation and the per-vector
permutation action, kept as oracles for ``cadaug.features``.

``featurize`` computes every descriptor of an instance at once from
integer arrays; ``evaluate_descriptor`` is the direct reading of the
grammar it is checked against: one descriptor at a time, each stage an
exact int or ``Fraction``.  ``permute_values`` renames a feature vector's
variables by moving whole values, the action that
``FeatureSchema.renamed_columns`` states as column indices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from cadaug import kernels
from cadaug.features import Descriptor, FeatureSchema
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import Permutation


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


def permute_values(values: Sequence, sigma: Permutation, schema: FeatureSchema) -> list:
    """Move the value at (shape, v) to (shape, sigma(v))."""
    if len(values) != len(schema):
        raise ValueError(
            f"feature vector length {len(values)} does not match schema length {len(schema)}"
        )
    return [values[c] for c in schema.renamed_columns(sigma)]
