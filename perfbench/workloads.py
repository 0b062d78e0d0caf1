"""The three benchmark workloads, their rounds and their output checks.

A round is one unit of the closed loop: ``label-sotd`` ingests a corpus
and labels its instances one at a time; the two experiments make one
``run_pipeline`` call.  Calls go through module attributes
(``smtlib.ingest_directory``, ``labelling.label_by_sotd``,
``pipeline.run_pipeline``) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from cadaug import labelling, pipeline, smtlib
from cadaug.augment import permute_ordering_label
from cadaug.ml import DEFAULT_GRIDS
from cadaug.smtlib import ProblemInstance
from cadaug.symmetry import ALL_PERMUTATIONS

from inputs import base_corpus, experiment_corpus, label_corpus, relabel, write_corpus, write_timings_csv
from speed import IdleProbe, SpeedProbe
from tracing import Tracer

__all__ = ["PATH_KEYS", "WORKLOADS", "Experiment", "LabelSotd", "Round", "s3_check"]

RUN_SEED = 42  # run seed of the acceptance experiment
# the default 100 trees per forest would make rf training ten times longer
# and leave time for a single round per run; every other grid value is the default
RF_TREES = 10
GRIDS = {
    **DEFAULT_GRIDS,
    "rf": [dict(point, n_trees=RF_TREES) for point in DEFAULT_GRIDS["rf"]],
}
S3_SAMPLE = 4
# inputs a round needs that are paths; the rest of a round's inputs are JSON values
PATH_KEYS = ("corpus", "timings", "out")
PINS = Path(__file__).parent / "pins.json"


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _timed(wall0: float, cpu0: float, probe: SpeedProbe, attempted: int) -> Round:
    """A round timed from (wall0, cpu0) to now, less the probe's samples."""
    return Round(
        time.perf_counter() - wall0 - probe.wall_s,
        cpu_seconds() - cpu0 - probe.cpu_s,
        attempted=attempted,
        ref_factor=probe.factor,
        speed_samples=len(probe.samples),
    )


def _failure(label: str, err: Exception) -> str:
    """The error with the frame that raised it."""
    return f"{label}: " + " ".join(line.strip() for line in traceback.format_exception(err)[-2:])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _size(instance: ProblemInstance) -> int:
    return sum(p.total_degree * len(p.raw) for p in instance.polynomials)


@dataclass
class Round:
    """What one round measured and what its checks found.

    ``wall_s`` and ``cpu_s`` leave out the speed probe's samples;
    ``ref_factor`` rescales them to reference seconds (see ``speed.py``).
    """

    wall_s: float
    cpu_s: float
    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    acc_aug_bal: Optional[float] = None
    io_bytes: int = 0
    ref_factor: float = 1.0
    speed_samples: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def s3_check(instances: list[ProblemInstance], seed: int) -> tuple[int, list[str]]:
    """Relabel a sample of the cheaper half of the instances by a random
    non-identity sigma: the sotd score of every ordering o must move, exactly,
    to ordering sigma(o).  Returns the number checked and the problems found."""
    cheap = sorted(instances, key=lambda inst: (_size(inst), inst.id))[: max(1, len(instances) // 2)]
    rng = random.Random(f"s3-check:{seed}")
    problems = []
    sample = rng.sample(cheap, min(S3_SAMPLE, len(cheap)))
    for inst in sample:
        sigma = rng.choice(ALL_PERMUTATIONS[1:])
        before = labelling.sotd_scores(inst)
        after = labelling.sotd_scores(relabel(inst, sigma))
        for o, score in enumerate(before):
            if after[permute_ordering_label(o, sigma)] != score:
                problems.append(f"S3 check: {inst.id} under {sigma.name}: ordering {o} scores {score}, its image does not")
                break
    return len(sample), problems


def _pin_check(workload: str, inputs: dict, digest: str) -> Optional[str]:
    """None if the labels digest matches the pinned one, or nothing is pinned
    for this seed and corpus size."""
    pin = json.loads(PINS.read_text()).get(workload)
    if pin is None or (pin["seed"], pin["instances"]) != (inputs["seed"], inputs["size"]):
        return None
    if pin["labels_sha256"] == digest:
        return None
    return f"labels digest {digest} differs from the digest pinned for seed {inputs['seed']}"


class LabelSotd:
    """Ingest a corpus, then label its instances one at a time by sotd."""

    name = "label-sotd"
    reference = "poly"  # the speed probe's reference unit

    def __init__(self, instances: int) -> None:
        self.instances = instances

    def prepare(self, seed: int, work: Path) -> dict:
        base = base_corpus(work / "base", self.instances)
        corpus = label_corpus(base, seed)
        write_corpus(corpus, work / "corpus")
        return {
            "seed": seed,
            "size": self.instances,
            "corpus": work / "corpus",
            "expected": len({inst.polynomials for inst in corpus}),
            "instances": corpus,
        }

    def run(self, inputs: dict, tracer: Optional[Tracer] = None, probe: Optional[SpeedProbe] = None) -> Round:
        span = tracer.span("bench.round", run="round") if tracer else contextlib.nullcontext()
        probe = probe or IdleProbe()
        labels: dict[str, Optional[int]] = {}
        latencies, failures = [], []
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        with span, probe:
            instances = smtlib.ingest_directory(inputs["corpus"])
            for inst in instances:
                if tracer:
                    tracer.run = inst.id
                start, sampled = time.perf_counter(), probe.wall_s
                try:
                    ordering = labelling.label_by_sotd(inst)
                except Exception as err:  # a failed operation is counted, not fatal
                    failures.append(_failure(inst.id, err))
                    continue
                latencies.append(time.perf_counter() - start - (probe.wall_s - sampled))
                labels[inst.id] = None if ordering is None else ordering.index
        # operations: each instance, the ingested count and the label digest
        result = _timed(wall0, cpu0, probe, attempted=len(instances) + 2)
        result.latencies_s = latencies
        for problem in failures:
            result.fail(problem)
        if len(instances) != inputs["expected"]:
            result.fail(f"ingested {len(instances)} instances, expected {inputs['expected']}")
        text = "".join(f"{i},{'' if v is None else v}\n" for i, v in sorted(labels.items()))
        result.digests["labels"] = hashlib.sha256(text.encode()).hexdigest()
        problem = _pin_check(self.name, inputs, result.digests["labels"])
        if problem:
            result.fail(problem)
        return result


class Experiment:
    """One run_pipeline call per round with exact balancing and run seed 42."""

    def __init__(self, name: str, labeller: str, instances: int, reference: str) -> None:
        self.name = name
        self.labeller = labeller
        self.instances = instances
        self.reference = reference  # the speed probe's reference unit

    def prepare(self, seed: int, work: Path) -> dict:
        base = base_corpus(work / "base", self.instances)
        corpus = experiment_corpus(base, seed)
        write_corpus(corpus, work / "corpus")
        timings = None
        if self.labeller == "timings":
            timings = work / "timings.csv"
            write_timings_csv(corpus, timings, seed)
        return {
            "seed": seed,
            "size": self.instances,
            "corpus": work / "corpus",
            "timings": timings,
            "out": work / "out",
            "instances": corpus,
        }

    def run(self, inputs: dict, tracer: Optional[Tracer] = None, probe: Optional[SpeedProbe] = None) -> Round:
        out = inputs["out"]
        shutil.rmtree(out, ignore_errors=True)
        config = pipeline.ExperimentConfig(
            input_dir=inputs["corpus"],
            out_dir=out,
            labeller=self.labeller,
            timings_csv=inputs["timings"],
            balance_mode="exact",
            seed=RUN_SEED,
            grids=GRIDS,
        )
        span = tracer.span("pipeline.run_pipeline", run="round") if tracer else contextlib.nullcontext()
        probe = probe or IdleProbe()
        error = None
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        with span, probe:
            try:
                matrix = pipeline.run_pipeline(config)
            except Exception as err:  # a failed operation is counted, not fatal
                error = _failure("run_pipeline", err)
        # operations: the run and the label digest
        result = _timed(wall0, cpu0, probe, attempted=2)
        if error:
            result.fail(error)
            return result
        missing = [
            name for name in ("instances.jsonl", "labels.csv", "schema.json", "matrix.json",
                              "matrix.csv", "report.md", "datasets.json")
            if not (out / name).is_file()
        ]
        cells = list(matrix.accuracy.values())
        if missing:
            result.fail(f"missing artifacts: {', '.join(missing)}")
            return result
        if len(cells) != 27 or not all(0.0 <= a <= 1.0 for a in cells):
            result.fail("accuracy matrix is not 27 cells within [0, 1]")
        result.acc_aug_bal = sum(matrix.cell(m, "augmented", "balanced") for m in matrix.models) / len(matrix.models)
        result.digests = {"labels": sha256_file(out / "labels.csv"), "matrix": sha256_file(out / "matrix.json")}
        result.io_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        problem = _pin_check(self.name, inputs, result.digests["labels"])
        if problem:
            result.fail(problem)
        return result


WORKLOADS = {
    w.name: w
    for w in (
        LabelSotd(instances=60),
        # training only: numpy split scans and interpreted bookkeeping
        Experiment("experiment-timings", "timings", instances=120, reference="mixed"),
        # half labelling, which slows down with the host more than training does
        Experiment("experiment-sotd", "sotd", instances=40, reference="poly"),
    )
}
