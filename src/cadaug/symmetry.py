"""The symmetric group S3 acting on the three canonical variable indices.

A permutation is stored by its images: ``images[i-1]`` is the index that
variable ``i`` is sent to.  The canonical enumeration order is the
lexicographic order of the image triples, so the identity ("123") comes
first and the full reversal ("321") last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Permutation:
    images: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.images) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1, 2, 3): {self.images!r}")

    @classmethod
    def identity(cls) -> Permutation:
        return cls((1, 2, 3))

    @classmethod
    def swap(cls, a: int, b: int) -> Permutation:
        """Transposition exchanging variable indices a and b."""
        images = [1, 2, 3]
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
        return cls(tuple(images))

    @property
    def name(self) -> str:
        """Compact image string, e.g. "213" for the swap of x1 and x2."""
        return "".join(str(i) for i in self.images)

    def apply_index(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: Permutation) -> Permutation:
        """Permutation sending i to self(other(i)): ``other`` acts first."""
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0, 0, 0]
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == (1, 2, 3)

    def __repr__(self) -> str:
        return f"Permutation({self.name})"


IDENTITY = Permutation.identity()
ALL_PERMUTATIONS: tuple[Permutation, ...] = tuple(
    Permutation(images) for images in itertools.permutations((1, 2, 3))
)
