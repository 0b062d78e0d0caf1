"""Best-ordering labels from CAD timings or the built-in projection proxy.

The authoritative labelling path reads per-ordering CAD timing records and
takes the fastest ordering.  When no timings exist, a desk-scale proxy
stands in: for each of the six orderings, run a McCallum-style projection
chain and score it by the sum of total degrees of all monomials across all
levels (sotd; Dolzmann, Seidl & Sturm, "Efficient projection orders for
CAD", ISSAC 2004); the lowest score wins, ties to the lowest ordering
index.  Both paths discard an instance only when every ordering fails
(timeout, or projection budget overrun).

One generator, ``_projection``, computes a projection level: it yields
each polynomial of the level as it is made, and computes each resultant
or discriminant only when the walk reaches it.  ``mccallum_projection``
is the set of what it yields.

One driver, ``_scores``, walks the chains of all six orderings.  The two
orderings that eliminate the same variable first share one first
projection level, so an instance costs at most three first levels, not
six.  ``sotd_scores`` runs it unpruned and returns all six scores:
``synth`` needs them to fabricate timings, and the tests use them as the
oracle for the label.

``label_by_sotd`` needs only the argmin, and runs the same driver with
branch and bound (Land & Doig, 1960).  A chain's sotd is a sum of
non-negative terms, one per distinct polynomial of each level, so a
running sum kept while a level is read from the generator never falls.
An ordering is abandoned, and scores None, as soon as its running sum
exceeds the best complete (score, index) so far, or equals that score
with a higher index: it cannot win, and its remaining resultants are
never computed.  So each score the pruned driver records is the best so
far, and the lowest score, ties to the lowest index, is the label of
``sotd_scores``.  A shared first level is abandoned only once both of
its orderings are beaten.  First levels, and then the two second levels
of each, are tried cheapest first, by an estimate from degrees alone
(``_cost``), so that a low score is found early and bounds the rest;
the label does not depend on this order, because orderings are
compared on (score, index).  An ordering that is not abandoned runs
every budget check of ``projection_chain``, so both labellers discard
the same instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Iterable, Iterator, Optional, Union

from cadaug import kernels
from cadaug.poly import Polynomial, Variable, VARIABLES
from cadaug.resultants import discriminant, resultant, total_degree_bound
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import ALL_PERMUTATIONS

DEFAULT_TIMEOUT = 60.0


class LabellingError(Exception):
    pass


class MissingOrderingError(LabellingError):
    pass


class BudgetExceededError(LabellingError):
    """A projection level exceeded the resource budget for one ordering."""


@dataclass(frozen=True, order=True)
class Ordering:
    """One of the six variable orderings, encoded 0..5: ordering i lists,
    greatest first, the images of ``ALL_PERMUTATIONS[i]``."""

    index: int

    def __post_init__(self):
        if not 0 <= self.index <= 5:
            raise ValueError(f"ordering index out of range: {self.index}")

    @property
    def triple(self) -> tuple[Variable, Variable, Variable]:
        """The ordering's variables, greatest first."""
        return tuple(VARIABLES[i - 1] for i in ALL_PERMUTATIONS[self.index].images)

    @property
    def name(self) -> str:
        return " > ".join(v.name for v in self.triple)

    def __repr__(self) -> str:
        return f"Ordering({self.index}: {self.name})"


ORDERINGS: tuple[Ordering, ...] = tuple(Ordering(i) for i in range(6))


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


def _lowest(scores: Iterable) -> Optional[Ordering]:
    """The ordering with the lowest score, ties to the lowest index; a
    None score is skipped, and all None gives None."""
    best: Optional[Ordering] = None
    best_score = None
    for ordering, score in zip(ORDERINGS, scores):
        if score is not None and (best_score is None or score < best_score):
            best, best_score = ordering, score
    return best


def label_from_timings(rec: TimingRecord, timeout: float = DEFAULT_TIMEOUT) -> Optional[Ordering]:
    """The fastest ordering, or None (discard) when all six timed out.

    An entry counts as timed out when it is the TIMEOUT marker or when it
    exceeds the threshold.  Ties break to the lowest ordering index.
    """
    return _lowest(None if t is None or t > timeout else t for t in rec.times)


def read_timings_csv(path) -> dict[str, TimingRecord]:
    """Read `instance_id,ordering,seconds` rows (header required); seconds
    is a positive finite decimal or the literal TIMEOUT."""
    partial: dict[str, dict[int, Optional[float]]] = {}
    header = ["instance_id", "ordering", "seconds"]
    for where, (instance_id, ordering_text, seconds_text) in _csv_rows(path, "timings", header):
        ordering = _parsed(int, ordering_text)
        if ordering is None or not 0 <= ordering <= 5:
            raise ValueError(f"{where}: bad ordering {ordering_text!r}")
        if seconds_text == "TIMEOUT":
            seconds = None
        else:
            # nan would never lose a comparison and inf is no measurement
            seconds = _parsed(float, seconds_text)
            if seconds is None or not 0 < seconds < math.inf:
                raise ValueError(
                    f"{where}: seconds {seconds_text!r} is not a positive finite number or TIMEOUT"
                )
        bucket = partial.setdefault(instance_id, {})
        if ordering in bucket:
            raise ValueError(f"{where}: duplicate ordering {ordering} for {instance_id}")
        bucket[ordering] = seconds
    records = {}
    for instance_id, bucket in partial.items():
        if sorted(bucket) != [0, 1, 2, 3, 4, 5]:
            raise MissingOrderingError(
                f"{path}: {instance_id}: timings cover orderings {sorted(bucket)}, need all of 0..5"
            )
        records[instance_id] = TimingRecord(instance_id, tuple(bucket[i] for i in range(6)))
    return records


def _parsed(convert, text: str):
    """convert(text), or None when the text does not parse."""
    try:
        return convert(text)
    except ValueError:
        return None


def _csv_rows(path, kind: str, header: list[str]) -> Iterator[tuple[str, list[str]]]:
    """The fields of each non-blank line of a ``kind`` CSV file after its
    header, with where the line is ("{path}: {kind} CSV line {n}").
    Raises ValueError for a wrong header or a wrong number of fields."""
    with open(path) as fh:
        found = fh.readline().strip().split(",")
        if found != header:
            raise ValueError(f"{path}: unexpected {kind} CSV header: {found}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: {kind} CSV line {line_no}"
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(f"{where}: need {len(header)} fields")
            yield where, fields


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
    for where, (instance_id, label_text) in _csv_rows(path, "labels", ["instance_id", "label"]):
        label = _parsed(int, label_text)
        if label is None or not 0 <= label <= 5:
            raise ValueError(f"{where}: bad label {label_text!r}")
        if instance_id in labels:
            raise ValueError(f"{where}: duplicate id {instance_id}")
        labels[instance_id] = label
    return labels


# -- the projection proxy oracle ------------------------------------------


@dataclass(frozen=True)
class ProjectionBudget:
    """Resource cap per ordering, playing the role of the CAD timeout.

    ``max_polys`` and ``max_total_degree`` cap each level of the chain.
    ``max_degree_bound`` caps, before it is computed, the total-degree
    bound of every resultant and discriminant (``total_degree_bound``):
    the packed resultant's work and memory grow with the square of that
    bound even when the result is sparse or zero.  A discriminant with
    bound 506 takes about a second on one core."""

    max_polys: int = 512
    max_total_degree: int = 200
    max_degree_bound: int = 512


DEFAULT_BUDGET = ProjectionBudget()

PolySet = Union[ProblemInstance, Iterable[Polynomial]]


def _projection(
    polys: Iterable[Polynomial], v: Variable, budget: ProjectionBudget
) -> Iterator[Polynomial]:
    """The polynomials of one projection step eliminating v, each made
    primitive and yielded as it is made, constants dropped: the
    polynomials without v, the coefficients of those with v, then their
    discriminants, then their pairwise resultants.  Each discriminant or
    resultant is computed only when the walk reaches it, just after its
    total-degree bound is checked against ``budget.max_degree_bound``;
    BudgetExceededError is raised instead of computing one over the cap.
    A polynomial may be yielded more than once."""

    def check(m: int, n: int, deg_p: int, deg_q: int):
        bound = total_degree_bound(m, n, deg_p, deg_q)
        if bound > budget.max_degree_bound:
            raise BudgetExceededError(
                f"res_{v} has total-degree bound {bound} (cap {budget.max_degree_bound})"
            )

    def made() -> Iterator[Polynomial]:
        # (p, degree in v, total degree) of each polynomial containing v
        containing = []
        for p in polys:
            m = p.degree_in(v)
            if m:
                containing.append((p, m, p.total_degree))
            else:
                yield p
        for p, _, _ in containing:
            yield from p.coefficients_wrt(v)
        for p, m, deg_p in containing:
            if m >= 2:
                # dp/dv has degree m - 1 in v and total degree at most deg_p - 1
                check(m, m - 1, deg_p, deg_p - 1)
                yield discriminant(p, v)
        for (p, m, deg_p), (q, n, deg_q) in combinations(containing, 2):
            check(m, n, deg_p, deg_q)
            yield resultant(p, q, v)

    for q in made():
        if not q.is_constant():
            yield q.primitive()


def mccallum_projection(
    polys: Iterable[Polynomial], v: Variable, budget: ProjectionBudget = DEFAULT_BUDGET
) -> set[Polynomial]:
    """One projection step eliminating v: coefficients, discriminants and
    pairwise resultants of the polynomials containing v, plus pass-through
    of the rest; everything made primitive, constants dropped.  Raises
    BudgetExceededError instead of computing a resultant or discriminant
    whose total-degree bound exceeds ``budget.max_degree_bound``.

    The input order does not matter: a primitive polynomial has a positive
    leading coefficient, and res(p, q) = ±res(q, p)."""
    return set(_projection(polys, v, budget))


def _check_budget(level: AbstractSet[Polynomial], budget: ProjectionBudget):
    if len(level) > budget.max_polys:
        raise BudgetExceededError(f"level has {len(level)} polynomials (cap {budget.max_polys})")
    for p in level:
        if p.total_degree > budget.max_total_degree:
            raise BudgetExceededError(
                f"polynomial of total degree {p.total_degree} (cap {budget.max_total_degree})"
            )


def _input_level(polys: PolySet, budget: ProjectionBudget) -> AbstractSet[Polynomial]:
    """The first level of a chain: the input polynomials, checked against
    the budget."""
    level = polys.polynomials if isinstance(polys, ProblemInstance) else set(polys)
    _check_budget(level, budget)
    return level


def projection_chain(
    polys: PolySet, ordering: Ordering, budget: ProjectionBudget = DEFAULT_BUDGET
) -> list[AbstractSet[Polynomial]]:
    """Levels [input, after eliminating the greatest variable, after also
    eliminating the middle variable].  Raises BudgetExceededError when a
    level overruns the budget."""
    chain = [_input_level(polys, budget)]
    for v in ordering.triple[:2]:
        chain.append(mccallum_projection(chain[-1], v, budget))
        _check_budget(chain[-1], budget)
    return chain


def sotd(chain: Iterable[Iterable[Polynomial]]) -> int:
    """Sum of total degrees of every monomial at every level."""
    total = 0
    for level in chain:
        for p in level:
            for key in p.raw:
                total += kernels.total_degree(key)
    return total


def _cost(level: Iterable[Polynomial], v: Variable) -> int:
    """Estimated work of eliminating v from level, from degrees alone: the
    sum of the squared total-degree bounds of its discriminants and
    resultants."""
    containing = [(m, p.total_degree) for p in level if (m := p.degree_in(v))]
    cost = sum(total_degree_bound(m, m - 1, d, d - 1) ** 2 for m, d in containing if m >= 2)
    for (m, deg_p), (n, deg_q) in combinations(containing, 2):
        cost += total_degree_bound(m, n, deg_p, deg_q) ** 2
    return cost


def _bounded_level(
    level: AbstractSet[Polynomial],
    v: Variable,
    budget: ProjectionBudget,
    total: int,
    index: int,
    best: tuple[float, int],
) -> Optional[tuple[set[Polynomial], int]]:
    """``level`` with v eliminated, and ``total`` plus its sotd.  None when
    the new level overruns the budget, or as soon as the running total
    shows that ordering ``index`` cannot beat ``best``, the lowest
    complete (score, index) so far: a sotd only grows as a chain gains
    polynomials.  With ``best`` (inf, 0), nothing is abandoned."""
    if (total, index) > best:
        return None
    out: set[Polynomial] = set()
    try:
        for q in _projection(level, v, budget):
            if q in out:
                continue
            out.add(q)
            degrees = list(map(kernels.total_degree, q.raw))
            total += sum(degrees)
            if (
                len(out) > budget.max_polys
                or max(degrees) > budget.max_total_degree
                or (total, index) > best
            ):
                return None
    except BudgetExceededError:
        return None
    return out, total


def _scores(polys: PolySet, budget: ProjectionBudget, prune: bool) -> list[Optional[int]]:
    """Per-ordering sotd of ``projection_chain``, None where the chain
    overran the budget.  With ``prune``, an ordering that cannot beat the
    lowest complete (score, index) so far is abandoned and scores None, so
    each score recorded is the best so far (see the module docstring)."""
    scores: list[Optional[int]] = [None] * len(ORDERINGS)
    try:
        level3 = _input_level(polys, budget)
    except BudgetExceededError:
        return scores
    base = sotd([level3])
    best: tuple[float, int] = (math.inf, 0)  # no complete score yet: nothing is beaten
    for first in sorted(VARIABLES, key=lambda v: _cost(level3, v)):
        pair = [o for o in ORDERINGS if o.triple[0] == first]
        # the shared level is dropped only once both orderings are beaten,
        # and the lower-index one is beaten first
        shared = _bounded_level(level3, first, budget, base, pair[0].index, best)
        if shared is None:
            continue  # both orderings that eliminate it first score None
        level2, total = shared
        for ordering in sorted(pair, key=lambda o: _cost(level2, o.triple[1])):
            scored = _bounded_level(level2, ordering.triple[1], budget, total, ordering.index, best)
            if scored is not None:
                scores[ordering.index] = scored[1]
                if prune:
                    best = (scored[1], ordering.index)
    return scores


def sotd_scores(polys: PolySet, budget: ProjectionBudget = DEFAULT_BUDGET) -> list[Optional[int]]:
    """Per-ordering sotd of ``projection_chain``, or None where the chain
    overran the budget."""
    return _scores(polys, budget, prune=False)


def label_by_sotd(polys: PolySet, budget: ProjectionBudget = DEFAULT_BUDGET) -> Optional[Ordering]:
    """Argmin-sotd ordering, ties to the lowest index; None (discard) when
    every ordering exceeded the budget.  The label of ``sotd_scores``,
    found without scoring the orderings that cannot win."""
    return _lowest(_scores(polys, budget, prune=True))
