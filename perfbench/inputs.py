"""Seeded inputs for the benchmark workloads.

Every workload starts from the same base corpus: the first instances that
``synthesize_corpus`` writes for the acceptance corpus seed.  The workload
seed does not draw a fresh corpus.  It picks an S3 relabelling of the
variables (and, for the experiments, how instance ids are assigned, which
decides the train/test split, plus the noise in the timings table).  A
relabelled instance costs the same projection work as the original, so
every seed asks for the same amount of work, while the bytes the program
reads differ from seed to seed.  Independent corpora of a few hundred
instances differ by about 15% in labelling work, because a handful of
slow instances carry most of it; that spread would swamp any bound.
"""

from __future__ import annotations

import random
from pathlib import Path

from cadaug.labelling import DEFAULT_TIMEOUT, ORDERINGS
from cadaug.poly import VARIABLES
from cadaug.smtlib import ProblemInstance, normalize_atom, render_script
from cadaug.symmetry import ALL_PERMUTATIONS, Permutation
from cadaug.synth import synthesize_corpus

__all__ = [
    "BASE_SEED",
    "base_corpus",
    "experiment_corpus",
    "label_corpus",
    "relabel",
    "write_corpus",
    "write_timings_csv",
]

BASE_SEED = 20240817  # corpus seed of the acceptance experiment

# timings model: seconds = SCALE * 2 ** (2 * deg(first eliminated) + deg(second))
# times lognormal noise; anything over the labeller's timeout is written
# as TIMEOUT, which happens when the heaviest variable goes first
_TIMING_SCALE = 0.02
_TIMING_NOISE = 0.3


def base_corpus(out_dir: Path, n_instances: int) -> list[ProblemInstance]:
    """The first n_instances of the acceptance corpus, written under out_dir."""
    return synthesize_corpus(out_dir, n_instances, BASE_SEED)


def relabel(instance: ProblemInstance, sigma: Permutation, new_id: str | None = None) -> ProblemInstance:
    """The instance with variable i renamed to sigma(i)."""
    return ProblemInstance(
        new_id or instance.id,
        frozenset(normalize_atom(p.rename(sigma)) for p in instance.polynomials),
        instance.variable_map,
    )


def label_corpus(base: list[ProblemInstance], seed: int) -> list[ProblemInstance]:
    """Each base instance under its own random relabelling."""
    rng = random.Random(f"label-sotd:{seed}")
    return [relabel(inst, rng.choice(ALL_PERMUTATIONS)) for inst in base]


def experiment_corpus(base: list[ProblemInstance], seed: int) -> list[ProblemInstance]:
    """The base corpus under one relabelling, with shuffled instance ids.

    One permutation for the whole corpus keeps the skewed class
    distribution the experiment is about (it only moves the skew to another
    class); the shuffled ids change which instances the split sends to the
    test set.
    """
    rng = random.Random(f"experiment:{seed}")
    sigma = rng.choice(ALL_PERMUTATIONS)
    slots = list(range(len(base)))
    rng.shuffle(slots)
    return [relabel(inst, sigma, f"inst{slot:05d}") for inst, slot in zip(base, slots)]


def write_corpus(instances: list[ProblemInstance], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        (out_dir / f"{inst.id}.smt2").write_text(render_script(inst))


def write_timings_csv(instances: list[ProblemInstance], path: Path, seed: int) -> None:
    """A per-ordering timings table that the degree features can predict.

    Eliminating a high-degree variable early is expensive, so the fastest
    ordering keeps the heaviest variable for last; the noise breaks ties
    between equal degrees and sometimes flips close calls.
    """
    rng = random.Random(f"timings:{seed}")
    with open(path, "w") as fh:
        fh.write("instance_id,ordering,seconds\n")
        for inst in instances:
            degree = {v: max(p.degree_in(v) for p in inst.polynomials) for v in VARIABLES}
            for ordering in ORDERINGS:
                first, second, _ = ordering.triple
                seconds = (
                    _TIMING_SCALE
                    * 2.0 ** (2 * degree[first] + degree[second])
                    * rng.lognormvariate(0.0, _TIMING_NOISE)
                )
                rendered = "TIMEOUT" if seconds > DEFAULT_TIMEOUT else f"{seconds:.6f}"
                fh.write(f"{inst.id},{ordering.index},{rendered}\n")
