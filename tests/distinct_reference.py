"""The per-vector Gram–Schmidt distinct filter, kept as the oracle for
``cadaug.features.fit_distinct_filter``.

The library projects each column against the whole basis with two
matrix-vector products per pass (classical Gram–Schmidt, done twice).
This module is the direct method it replaced: one projection per basis
vector, in order (modified Gram–Schmidt, done twice).  On well-separated
data both keep the same shapes.
"""

from __future__ import annotations

import math

import numpy as np

from cadaug.features import DISTINCT_REL_TOL, FeatureSchema
from cadaug.poly import VARIABLES


def kept_shapes(matrix: np.ndarray, schema: FeatureSchema) -> tuple:
    """The shapes ``fit_distinct_filter(matrix, schema)`` keeps."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    basis = [np.full(n, 1.0 / math.sqrt(n))]
    kept = []
    for shape_index, shape in enumerate(schema.shapes):
        rank = len(basis)
        for v in VARIABLES:
            col = matrix[:, schema.position(v, shape_index)]
            r = col.copy()
            for _ in range(2):
                for q in basis:
                    r = r - (q @ r) * q
            r_norm = np.linalg.norm(r)
            if r_norm > DISTINCT_REL_TOL * max(np.linalg.norm(col), 1.0):
                basis.append(r / r_norm)
        if len(basis) > rank:
            kept.append(shape)
    return tuple(kept)
