"""Seeded synthetic corpus generator.

Produces small QF_NRA scripts whose best CAD ordering (under the sotd
proxy) is strongly correlated with the instances' degree profile, with a
deliberately skewed class distribution — the regime the augmentation
experiment is about.  Each instance assigns its three variables to a
heavy/medium/light degree tier; the tier assignment is drawn from a
skewed distribution, and the proxy labeller rewards orderings that keep
the heavy variable around longest, so labels end up both imbalanced and
predictable from the degree-profile features.

The module also derives a consistent synthetic timings table from the
proxy scores, so the timings-based labelling path can be exercised end
to end.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from .labelling import TimingRecord, sotd_scores
from .poly import Polynomial, VARIABLES
from .smtlib import ProblemInstance, normalize_atom, render_script

__all__ = ["synthesize_instance", "synthesize_corpus", "timings_from_sotd"]

_TIERS = tuple(itertools.permutations((1, 2, 3)))

# weight of each (heavy, medium, light) tier assignment; the skew induces
# the class imbalance the experiment needs
_TIER_WEIGHTS = (2, 3, 5, 8, 15, 60)

# exponent range for each tier
_TIER_CAPS = {"heavy": (2, 5), "medium": (1, 2), "light": (1, 1)}


def _tiered_polynomial(rng: random.Random, tiers: tuple[int, int, int]) -> Polynomial:
    """A small polynomial whose degree mass follows the tier assignment.

    Terms are mostly single-variable powers, with an occasional second
    variable coupled in at exponent 1 so that cross-variable descriptors
    stay informative.
    """
    heavy, medium, light = tiers
    caps = {heavy: _TIER_CAPS["heavy"], medium: _TIER_CAPS["medium"], light: _TIER_CAPS["light"]}
    while True:
        terms = []
        for v in rng.sample((heavy, medium, light), k=rng.randint(2, 3)):
            lo, hi = caps[v]
            exponents = [0, 0, 0]
            exponents[v - 1] = rng.randint(lo, hi)
            if rng.random() < 0.3:
                other = rng.choice([w for w in (1, 2, 3) if w != v])
                exponents[other - 1] = 1
            coeff = rng.choice([c for c in range(-4, 5) if c])
            terms.append((tuple(exponents), coeff))
        if rng.random() < 0.5:
            terms.append(((0, 0, 0), rng.choice([c for c in range(-3, 4) if c])))
        poly = Polynomial.from_terms(terms)
        if not poly.is_zero() and not poly.is_constant():
            return normalize_atom(poly)


def synthesize_instance(rng: random.Random, instance_id: str) -> ProblemInstance:
    """One random instance with a tiered degree profile over its variables."""
    while True:
        tiers = rng.choices(_TIERS, weights=_TIER_WEIGHTS)[0]
        polys = {_tiered_polynomial(rng, tiers) for _ in range(2)}
        covered = set()
        for p in polys:
            covered |= p.variables()
        if len(polys) >= 2 and covered == set(VARIABLES):
            return ProblemInstance(
                instance_id,
                frozenset(polys),
                tuple((v.name, v) for v in VARIABLES),
            )


def synthesize_corpus(
    out_dir: str | Path, n_instances: int, seed: int = 0
) -> list[ProblemInstance]:
    """Write n_instances .smt2 files under out_dir and return the instances."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    instances = []
    for i in range(n_instances):
        inst = synthesize_instance(rng, f"synth{i:05d}")
        (out_dir / f"{inst.id}.smt2").write_text(render_script(inst))
        instances.append(inst)
    return instances


# fabricated seconds per unit of (1 + sotd score)
_SECONDS_PER_DEGREE = 0.01


def timings_from_sotd(instances: list[ProblemInstance]) -> list[TimingRecord]:
    """Fabricate a timings table whose argmin agrees with the sotd proxy.

    Each ordering's runtime is proportional to its sotd score; orderings
    whose projection blows the budget become timeouts.
    """
    records = []
    for inst in instances:
        scores = sotd_scores(inst)
        times = tuple(
            None if s is None else _SECONDS_PER_DEGREE * (1 + s) for s in scores
        )
        records.append(TimingRecord(inst.id, times))
    return records
