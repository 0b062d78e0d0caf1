"""Float matrices as text, each distinct value formatted once.

The feature CSVs and the knn model files write every value of a matrix,
and a feature column takes few distinct values; formatting each of them
once and gathering the texts costs far less than formatting every cell.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["text_table"]


def text_table(matrix: np.ndarray, fmt: Callable[[float], str]) -> list[list[str]]:
    """``[[fmt(v) for v in row] for row in matrix.tolist()]`` for a 2-d
    float matrix, calling ``fmt`` once per distinct value of each column.

    Values are told apart by bit pattern, so ``-0.0`` keeps its own text.
    """
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.uint64)
    table = np.empty(bits.shape, dtype=object)
    for j in range(bits.shape[1]):
        distinct, inverse = np.unique(bits[:, j], return_inverse=True)
        texts = np.array([fmt(v) for v in distinct.view(np.float64).tolist()], dtype=object)
        table[:, j] = texts[inverse]
    return table.tolist()
