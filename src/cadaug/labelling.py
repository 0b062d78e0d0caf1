"""Best-ordering labels from CAD timings or the built-in projection proxy.

The authoritative labelling path reads per-ordering CAD timing records and
takes the fastest ordering.  When no timings exist, a desk-scale proxy
stands in: for each of the six orderings, run a McCallum-style projection
chain and score it by the sum of total degrees of all monomials across all
levels (sotd); the lowest score wins.  Both paths discard an instance only
when every ordering fails (timeout, or projection budget overrun).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from cadaug import kernels
from cadaug.poly import Polynomial, Variable, VARIABLES
from cadaug.resultants import discriminant, resultant
from cadaug.smtlib import ProblemInstance

DEFAULT_TIMEOUT = 60.0

# Ordering index -> variable indices, greatest first.  Index 0 is
# x1 > x2 > x3, index 5 is x3 > x2 > x1, in lexicographic triple order.
_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(permutations((1, 2, 3)))
_TRIPLE_TO_INDEX = {t: i for i, t in enumerate(_TRIPLES)}


class LabellingError(Exception):
    pass


class MissingOrderingError(LabellingError):
    pass


class BudgetExceededError(LabellingError):
    """A projection level exceeded the resource budget for one ordering."""


@dataclass(frozen=True, order=True)
class Ordering:
    """One of the six variable orderings, encoded 0..5."""

    index: int

    def __post_init__(self):
        if not 0 <= self.index <= 5:
            raise ValueError(f"ordering index out of range: {self.index}")

    @property
    def triple(self) -> tuple[Variable, Variable, Variable]:
        """The ordering's variables, greatest first."""
        return tuple(VARIABLES[i - 1] for i in _TRIPLES[self.index])

    @property
    def name(self) -> str:
        return " > ".join(v.name for v in self.triple)

    def __repr__(self) -> str:
        return f"Ordering({self.index}: {self.name})"


ORDERINGS: tuple[Ordering, ...] = tuple(Ordering(i) for i in range(6))


def ordering_from_triple(indices: Sequence[int]) -> Ordering:
    """The ordering whose variables, greatest first, have these indices."""
    return ORDERINGS[_TRIPLE_TO_INDEX[tuple(indices)]]


# -- timing records -------------------------------------------------------


@dataclass(frozen=True)
class TimingRecord:
    """Per-ordering CAD seconds for one instance; None marks a timeout."""

    instance_id: str
    times: tuple[Optional[float], ...]

    def __post_init__(self):
        if len(self.times) != 6:
            raise MissingOrderingError(
                f"{self.instance_id}: need times for all 6 orderings, got {len(self.times)}"
            )
        for i, t in enumerate(self.times):
            if t is not None and t <= 0:
                raise ValueError(f"{self.instance_id}: non-positive time for ordering {i}")


def label_from_timings(rec: TimingRecord, timeout: float = DEFAULT_TIMEOUT) -> Optional[Ordering]:
    """The fastest ordering, or None (discard) when all six timed out.

    An entry counts as timed out when it is the TIMEOUT marker or when it
    exceeds the threshold.  Ties break to the lowest ordering index.
    """
    best: Optional[Ordering] = None
    best_time = None
    for ordering, t in zip(ORDERINGS, rec.times):
        if t is None or t > timeout:
            continue
        if best_time is None or t < best_time:
            best, best_time = ordering, t
    return best


def read_timings_csv(path) -> dict[str, TimingRecord]:
    """Read `instance_id,ordering,seconds` rows (header required); seconds
    is a positive finite decimal or the literal TIMEOUT."""
    partial: dict[str, dict[int, Optional[float]]] = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != ["instance_id", "ordering", "seconds"]:
            raise ValueError(f"unexpected timings CSV header: {header}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"timings CSV line {line_no}: need 3 fields")
            instance_id, ordering_text, seconds_text = parts
            ordering = _parsed(int, ordering_text)
            if ordering is None or not 0 <= ordering <= 5:
                raise ValueError(f"timings CSV line {line_no}: bad ordering {ordering_text!r}")
            if seconds_text == "TIMEOUT":
                seconds = None
            else:
                # nan would never lose a comparison and inf is no measurement
                seconds = _parsed(float, seconds_text)
                if seconds is None or not 0 < seconds < math.inf:
                    raise ValueError(
                        f"timings CSV line {line_no}: seconds {seconds_text!r} is not "
                        "a positive finite number or TIMEOUT"
                    )
            bucket = partial.setdefault(instance_id, {})
            if ordering in bucket:
                raise ValueError(
                    f"timings CSV line {line_no}: duplicate ordering {ordering} for {instance_id}"
                )
            bucket[ordering] = seconds
    records = {}
    for instance_id, bucket in partial.items():
        if sorted(bucket) != [0, 1, 2, 3, 4, 5]:
            raise MissingOrderingError(
                f"{instance_id}: timings cover orderings {sorted(bucket)}, need all of 0..5"
            )
        records[instance_id] = TimingRecord(instance_id, tuple(bucket[i] for i in range(6)))
    return records


def _parsed(convert, text: str):
    """convert(text), or None when the text does not parse."""
    try:
        return convert(text)
    except ValueError:
        return None


def write_timings_csv(records: Iterable[TimingRecord], path):
    with open(path, "w") as fh:
        fh.write("instance_id,ordering,seconds\n")
        for rec in records:
            for i, t in enumerate(rec.times):
                rendered = "TIMEOUT" if t is None else repr(t)
                fh.write(f"{rec.instance_id},{i},{rendered}\n")


# -- label files ----------------------------------------------------------


def write_labels_csv(labelled: Iterable[tuple[str, int]], path):
    """Write `instance_id,label` rows, one per labelled instance."""
    with open(path, "w") as fh:
        fh.write("instance_id,label\n")
        for instance_id, label in labelled:
            fh.write(f"{instance_id},{label}\n")


def read_labels_csv(path) -> dict[str, int]:
    """Read a file written by `write_labels_csv`: instance id -> label 0..5."""
    labels: dict[str, int] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "instance_id,label":
            raise ValueError(f"unexpected labels CSV header: {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"labels CSV line {line_no}: need 2 fields")
            instance_id, label_text = parts
            label = _parsed(int, label_text)
            if label is None or not 0 <= label <= 5:
                raise ValueError(f"labels CSV line {line_no}: bad label {label_text!r}")
            if instance_id in labels:
                raise ValueError(f"labels CSV line {line_no}: duplicate id {instance_id}")
            labels[instance_id] = label
    return labels


# -- the projection proxy oracle ------------------------------------------


@dataclass(frozen=True)
class ProjectionBudget:
    """Resource cap per ordering, playing the role of the CAD timeout."""

    max_polys: int = 512
    max_total_degree: int = 200


DEFAULT_BUDGET = ProjectionBudget()

PolySet = Union[ProblemInstance, Iterable[Polynomial]]


def _as_polys(value: PolySet) -> list[Polynomial]:
    if isinstance(value, ProblemInstance):
        return value.sorted_polynomials
    return sorted(value, key=lambda p: p.sort_key())


def mccallum_projection(polys: Iterable[Polynomial], v: Variable) -> set[Polynomial]:
    """One projection step eliminating v: coefficients, discriminants and
    pairwise resultants of the polynomials containing v, plus pass-through
    of the rest; everything made primitive, constants dropped."""
    ordered = _as_polys(polys)
    containing = [p for p in ordered if p.contains(v)]
    out: set[Polynomial] = set()

    def add(q: Polynomial):
        q = q.primitive()
        if not q.is_constant():
            out.add(q)

    for p in ordered:
        if not p.contains(v):
            add(p)
    for p in containing:
        for coeff in p.coefficients_wrt(v):
            add(coeff)
        if p.degree_in(v) >= 2:
            add(discriminant(p, v))
    for p, q in combinations(containing, 2):
        add(resultant(p, q, v))
    return out


def _check_budget(level: set[Polynomial], budget: ProjectionBudget, ordering: Ordering):
    if len(level) > budget.max_polys:
        raise BudgetExceededError(
            f"{ordering!r}: level has {len(level)} polynomials (cap {budget.max_polys})"
        )
    for p in level:
        if p.total_degree > budget.max_total_degree:
            raise BudgetExceededError(
                f"{ordering!r}: polynomial of total degree {p.total_degree} (cap {budget.max_total_degree})"
            )


def projection_chain(
    polys: PolySet, ordering: Ordering, budget: ProjectionBudget = DEFAULT_BUDGET
) -> list[set[Polynomial]]:
    """Levels [input, after eliminating the greatest variable, after also
    eliminating the middle variable]."""
    level3 = set(_as_polys(polys))
    _check_budget(level3, budget, ordering)
    greatest, middle, _ = ordering.triple
    level2 = mccallum_projection(level3, greatest)
    _check_budget(level2, budget, ordering)
    level1 = mccallum_projection(level2, middle)
    _check_budget(level1, budget, ordering)
    return [level3, level2, level1]


def sotd(chain: Iterable[Iterable[Polynomial]]) -> int:
    """Sum of total degrees of every monomial at every level."""
    total = 0
    for level in chain:
        for p in level:
            for key in p.raw:
                total += kernels.total_degree(key)
    return total


def sotd_scores(polys: PolySet, budget: ProjectionBudget = DEFAULT_BUDGET) -> list[Optional[int]]:
    """Per-ordering sotd, or None where the projection blew the budget."""
    base = _as_polys(polys)
    scores: list[Optional[int]] = []
    for ordering in ORDERINGS:
        try:
            scores.append(sotd(projection_chain(base, ordering, budget)))
        except BudgetExceededError:
            scores.append(None)
    return scores


def label_by_sotd(polys: PolySet, budget: ProjectionBudget = DEFAULT_BUDGET) -> Optional[Ordering]:
    """Argmin-sotd ordering, ties to the lowest index; None (discard) when
    every ordering exceeded the budget."""
    best: Optional[Ordering] = None
    best_score: Optional[int] = None
    for ordering, score in zip(ORDERINGS, sotd_scores(polys, budget)):
        if score is None:
            continue
        if best_score is None or score < best_score:
            best, best_score = ordering, score
    return best
