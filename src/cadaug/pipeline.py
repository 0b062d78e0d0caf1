"""End-to-end experiment orchestration.

``run_pipeline`` is a list of stages, each writing its artifacts under the
output directory:

1. ingest: parse the corpus into instances (``instances.jsonl``);
2. label: the best ordering of each instance (``labels.csv``);
3. datasets: featurize each labelled instance once with the raw schema,
   split by instance id, fit the essentially-distinct filter on the
   training half (``schema.json``), narrow both halves to its columns and
   derive their balanced and augmented variants (``datasets/``);
4. train and evaluate: every model kind on each training set, scored on
   every testing set, plus the uniform-random baseline (``models/``);
5. report: the accuracy matrix, a ``report.ResultMatrix`` (``matrix.json``,
   ``matrix.csv``, ``report.md``).

A stage's ``ValueError`` or ``OSError`` surfaces as a ``PipelineError``
naming the stage.  All randomness flows from one master seed through
:func:`cadaug.seeding.derive_seed`, so a fixed config reproduces every
table cell bit for bit.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from . import report
from .augment import augment_full, balance, split
from .dataset import Dataset, PROVENANCES, save_dataset
from .features import FeatureSchema, featurize, fit_distinct_filter
from .features import featurize_exact  # noqa: F401  perfbench/tracing.py patches it here
from .labelling import (
    DEFAULT_TIMEOUT,
    label_by_sotd,
    label_from_timings,
    read_timings_csv,
    write_labels_csv,
)
from .ml import CVPlan, CrossValidation, DEFAULT_GRIDS, MODEL_KINDS, RandomBaseline
from .ml import accuracy as model_accuracy
from .ml import train as train_model
from .ml import workers
from .report import ResultMatrix, improvement_summary
from .seeding import derive_seed
from .smtlib import ProblemInstance, ingest_directory, write_instances_jsonl

__all__ = [
    "ExperimentConfig",
    "PipelineError",
    "ResultMatrix",
    "label_instances",
    "run_pipeline",
]

LABELLERS = ("timings", "sotd")


class PipelineError(Exception):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full experiment run depends on."""

    input_dir: Path
    out_dir: Path
    labeller: str = "sotd"
    timings_csv: Optional[Path] = None
    timeout: float = DEFAULT_TIMEOUT
    test_fraction: float = 0.2
    balance_mode: str = "random"
    seed: int = 0
    models: tuple[str, ...] = MODEL_KINDS
    cv_folds: int = 5
    grids: Mapping[str, Sequence[Mapping[str, Any]]] = field(
        default_factory=lambda: DEFAULT_GRIDS
    )

    def __post_init__(self):
        if self.labeller not in LABELLERS:
            raise ValueError(f"unknown labeller {self.labeller!r}")
        if self.labeller == "timings" and self.timings_csv is None:
            raise ValueError("labeller 'timings' requires a timings CSV")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.balance_mode not in ("random", "exact"):
            raise ValueError(f"unknown balance mode {self.balance_mode!r}")
        if not self.models:
            raise ValueError("at least one model kind is required")
        for i, kind in enumerate(self.models):
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
            if kind in self.models[:i]:
                raise ValueError(f"model kind {kind!r} is listed twice")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        CVPlan(folds=self.cv_folds, grids=self.grids)  # fail on a bad grid before labelling


def label_instances(
    instances: Sequence[ProblemInstance],
    labeller: str,
    timings_csv: Optional[Path],
    timeout: float,
) -> list[tuple[ProblemInstance, int]]:
    """Each instance with its best-ordering label, in input order.

    `labeller` is "timings" (read `timings_csv`; an instance without
    records counts as all-timeout) or "sotd".  Instances every ordering of
    which timed out or blew the projection budget are discarded.
    """
    records = read_timings_csv(timings_csv) if labeller == "timings" else None
    labelled = []
    for inst in instances:
        if records is None:
            ordering = label_by_sotd(inst)
        else:
            rec = records.get(inst.id)
            ordering = None if rec is None else label_from_timings(rec, timeout)
        if ordering is not None:
            labelled.append((inst, ordering.index))
    return labelled


@contextmanager
def _stage(name: str, context: str = ""):
    """Report a ValueError or OSError raised inside as PipelineError(name)."""
    try:
        yield
    except (OSError, ValueError) as err:
        raise PipelineError(name, f"{context}{err}") from err


def _ingest(config: ExperimentConfig, out: Path) -> list[ProblemInstance]:
    with _stage("ingest"):
        instances = ingest_directory(config.input_dir)
    if not instances:
        raise PipelineError("ingest", f"no usable instances under {config.input_dir}")
    write_instances_jsonl(instances, out / "instances.jsonl")
    return instances


def _label(
    config: ExperimentConfig, out: Path, instances: Sequence[ProblemInstance]
) -> list[tuple[ProblemInstance, int]]:
    with _stage("label"):
        labelled = label_instances(instances, config.labeller, config.timings_csv, config.timeout)
    if not labelled:
        raise PipelineError("label", "empty labelled dataset")
    write_labels_csv(((inst.id, label) for inst, label in labelled), out / "labels.csv")
    return labelled


def _datasets(
    config: ExperimentConfig, out: Path, labelled: Sequence[tuple[ProblemInstance, int]]
) -> dict[tuple[str, str], Dataset]:
    """The six datasets by (provenance, role), each saved under datasets/.

    Every labelled instance is featurized once, with the raw schema.  The
    essentially-distinct filter is fitted on the raw training half only;
    it keeps or drops whole shapes, so both halves narrow to its schema by
    picking the kept shapes' columns of their raw rows.
    """
    raw_schema = FeatureSchema.raw()
    ids = [inst.id for inst, _ in labelled]
    X = [featurize(inst, raw_schema) for inst, _ in labelled]
    y = [label for _, label in labelled]
    with _stage("split"):
        train_raw, test_raw = split(
            Dataset(ids, X, y, raw_schema, "unbalanced", "all"),
            config.test_fraction,
            derive_seed(config.seed, "split"),
        )
    with _stage("filter"):
        schema = fit_distinct_filter(train_raw.X)
    schema.save(out / "schema.json")
    columns = schema.columns_in(raw_schema)
    unbalanced = [
        Dataset(half.ids, half.X[:, columns], half.y, schema, "unbalanced", half.role)
        for half in (train_raw, test_raw)
    ]
    datasets = {("unbalanced", ds.role): ds for ds in unbalanced}
    with _stage("augment"):
        for ds in unbalanced:
            seed = derive_seed(config.seed, f"balance:{ds.role}")
            datasets[("balanced", ds.role)] = balance(ds, config.balance_mode, seed)
        for ds in unbalanced:
            datasets[("augmented", ds.role)] = augment_full(ds)
    data_dir = out / "datasets"
    data_dir.mkdir(exist_ok=True)
    for (provenance, role), ds in datasets.items():
        save_dataset(
            ds,
            data_dir / f"{role}_{provenance}.csv",
            seed=config.seed,
            mode=config.balance_mode if provenance == "balanced" else None,
        )
    return datasets


def _schedule(
    config: ExperimentConfig, datasets: Mapping[tuple[str, str], Dataset]
) -> list[CrossValidation]:
    """The cross-validation of every (kind, trained_on) pair, planned in
    canonical order (``config.models`` by ``PROVENANCES``), listed in the
    order the pairs are trained.

    The pairs that grow no trees (knn) come first, so that this process
    has work while the workers start.  The others follow in descending
    order of planned work, their growths' root cells
    (``SharedGrowth.root_cells``), ties in canonical order: the longest
    growths start first, so that none is left to run alone at the end.
    A training set that cannot be planned fails before the first fit.
    """
    planned = []
    for kind in config.models:
        for trained_on in PROVENANCES:
            plan = CVPlan(
                folds=config.cv_folds,
                grids=config.grids,
                seed=derive_seed(config.seed, f"train:{kind}:{trained_on}"),
            )
            with _stage("train", f"{kind} on {trained_on}: "):
                cv = CrossValidation(kind, datasets[(trained_on, "train")], plan)
            planned.append((sum(growth.root_cells for growth in cv.growths()), cv))
    planned.sort(key=lambda pair: (pair[0] > 0, -pair[0]))
    return [cv for _, cv in planned]


def _start_growths(schedule: Sequence[CrossValidation], stack: ExitStack) -> None:
    """Start every tree growth of the cross-validations in ``schedule``,
    in its order, on worker processes (a pool entered on ``stack``).  No
    pool starts when there is no growth, on a single usable CPU or
    without ``fork``: each growth then runs in process when its pair
    trains."""
    growths = [(index, growth) for index, cv in enumerate(schedule) for growth in cv.growths()]
    jobs = workers.default_jobs()
    if not growths or jobs == 1 or not workers.can_fork():
        return
    training = [(cv.dataset.X, cv.dataset.y) for cv in schedule]
    submit = stack.enter_context(workers.growth_pool(min(jobs, len(growths)), training))
    for index, growth in growths:
        growth.start(submit[index])


def _train_and_evaluate(
    config: ExperimentConfig, out: Path, datasets: Mapping[tuple[str, str], Dataset]
) -> tuple[dict[tuple[str, str, str], float], dict[str, float]]:
    """Every model's accuracy by (model, trained_on, tested_on), in
    canonical order, and the uniform-random baseline's by tested_on;
    models are saved under models/.

    The pairs train in ``_schedule`` order, their trees grown on worker
    processes (``_start_growths``); the models are still fitted, saved
    and scored here, one at a time.
    """
    model_dir = out / "models"
    model_dir.mkdir(exist_ok=True)
    schedule = _schedule(config, datasets)
    scored: dict[tuple[str, str, str], float] = {}
    with ExitStack() as pool:
        with _stage("train", "starting worker processes: "):
            _start_growths(schedule, pool)
        for cv in schedule:
            kind, trained_on = cv.kind, cv.dataset.provenance
            with _stage("train", f"{kind} on {trained_on}: "):
                model = train_model(kind, cv)
            model.save(model_dir / f"{kind}_{trained_on}.json")
            for tested_on in PROVENANCES:
                scored[(kind, trained_on, tested_on)] = model_accuracy(
                    model, datasets[(tested_on, "test")]
                )
    accuracy = {
        (kind, trained_on, tested_on): scored[kind, trained_on, tested_on]
        for kind in config.models
        for trained_on in PROVENANCES
        for tested_on in PROVENANCES
    }
    train_unb = datasets[("unbalanced", "train")]
    baseline_model = RandomBaseline(seed=derive_seed(config.seed, "baseline")).fit(
        train_unb.X, train_unb.y
    )
    baseline = {
        tested_on: model_accuracy(baseline_model, datasets[(tested_on, "test")])
        for tested_on in PROVENANCES
    }
    return accuracy, baseline


def _report(
    config: ExperimentConfig,
    out: Path,
    datasets: Mapping[tuple[str, str], Dataset],
    accuracy: dict[tuple[str, str, str], float],
    baseline: dict[str, float],
) -> ResultMatrix:
    matrix = ResultMatrix(
        models=tuple(config.models),
        accuracy=accuracy,
        dataset_summary={
            f"{role}_{provenance}": {"rows": len(ds), "class_counts": ds.class_counts()}
            for (provenance, role), ds in datasets.items()
        },
        baseline=baseline,
        feature_counts={
            "raw": len(FeatureSchema.raw()),
            "distinct": len(datasets[("unbalanced", "train")].schema),
        },
        improvements={},
        seed=config.seed,
        labeller=config.labeller,
    )
    matrix.improvements = improvement_summary(matrix)
    matrix.save(out / "matrix.json")
    report.write_report(matrix, out)
    return matrix


def run_pipeline(config: ExperimentConfig) -> ResultMatrix:
    """Execute the full experiment and return the accuracy matrix."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    instances = _ingest(config, out)
    labelled = _label(config, out, instances)
    datasets = _datasets(config, out, labelled)
    accuracy, baseline = _train_and_evaluate(config, out, datasets)
    return _report(config, out, datasets, accuracy, baseline)
