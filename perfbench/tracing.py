"""Spans around the public entry points of each cadaug layer.

The traced run replaces module and class attributes with timing wrappers
for the duration of a ``with instrument(tracer):`` block and restores them
afterwards; no file of the program changes.  A wrapper is installed where
the caller looks the name up: ``run_pipeline`` imported its stage
functions by name, so those are patched on ``cadaug.pipeline``, while the
resultant code reaches the kernels through ``cadaug.kernels`` attributes.

Spans are kept in memory as ``[name, start, end, parent, run, leaf_s]``
and written out at the end.  The two polynomial kernels are called
millions of times, so they get no span of their own: their calls and time
are summed per kernel and added to the ``leaf_s`` of the enclosing span,
which is enough to compute every layer's self time.
"""

from __future__ import annotations

import contextlib
import json
import logging
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

import cadaug.kernels
import cadaug.labelling
import cadaug.pipeline
import cadaug.report
from cadaug.ml import DecisionTreeClassifier, KNNClassifier, RandomForestClassifier, TrainedModel
from cadaug.pipeline import ResultMatrix

__all__ = ["LAYERS", "Tracer", "instrument", "layer_metrics"]

NAME, START, END, PARENT, RUN, LEAF = range(6)

# span name prefix -> layer whose self time it counts toward
LAYERS = {
    "smtlib.ingest_directory": "smtlib",
    "labelling.": "labelling",
    "resultants.": "resultants",
    "features.": "features",
    "augment.": "augment",
    "ml.": "ml",
    "io.": "io",
    "pipeline.": "pipeline",
    "bench.": "bench",
}
KERNELS = ("kmul", "kdiv_exact")


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS.items():
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


class Tracer:
    """In-memory spans plus per-kernel call counts and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run: Optional[str] = None
        self.kernel_calls: dict[str, int] = defaultdict(int)
        self.kernel_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_resultants: set = set()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run, 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, run: Optional[str] = None):
        if run is not None:
            self.run = run
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            index = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_kernel(self, fn: Callable, kernel: str) -> Callable:
        calls, totals, spans, stack = self.kernel_calls, self.kernel_s, self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                calls[kernel] += 1
                totals[kernel] += elapsed
                if stack:
                    spans[stack[-1]][LEAF] += elapsed

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(n)) for n in names)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by child spans or kernel calls."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child):
            out[layer_of(s[NAME])] += s[END] - s[START] - covered - s[LEAF]
        out["kernels"] = sum(self.kernel_s.values())
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "kernels": {k: {"calls": self.kernel_calls[k], "s": self.kernel_s[k]} for k in KERNELS},
            "spans": [
                {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "run": s[RUN], "kernel_s": s[LEAF]}
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n")


# -- hooks that record counts at the layer boundaries ----------------------


def _new_instance(tracer: Tracer, args, kwargs) -> None:
    tracer.seen_resultants = set()


def _repeat_key(kind: str) -> Callable:
    def before(tracer: Tracer, args, kwargs) -> None:
        key = (kind, *args)
        tracer.counts["resultants.keyed_calls"] += 1
        if key in tracer.seen_resultants:
            tracer.counts["resultants.repeats"] += 1
        else:
            tracer.seen_resultants.add(key)

    return before


def _after_label(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["labelling.instances"] += 1
    if result is None:
        tracer.counts["labelling.discarded"] += 1


def _after_scores(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["labelling.over_budget"] += sum(1 for s in result if s is None)


def _after_ingest(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["smtlib.files"] += sum(1 for _ in Path(args[0]).rglob("*.smt2"))


def _after_filter(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["features.kept"] += len(result)


def _tree_nodes(node: dict) -> int:
    count, stack = 0, [node]
    while stack:
        current = stack.pop()
        count += 1
        if "label" not in current:
            stack.append(current["left"])
            stack.append(current["right"])
    return count


def _after_tree_fit(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["ml.tree.nodes"] += _tree_nodes(result.tree)


class _RejectCounter(logging.Handler):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.counts["smtlib.rejected"] += 1


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the timing wrappers; restore the originals on exit."""
    pipeline, labelling = cadaug.pipeline, cadaug.labelling
    # (owner, attribute, span name, before hook, after hook)
    plan: list[tuple[Any, str, Any, Optional[Callable], Optional[Callable]]] = [
        (pipeline, "ingest_directory", "smtlib.ingest_directory", None, _after_ingest),
        (cadaug.smtlib, "ingest_directory", "smtlib.ingest_directory", None, _after_ingest),
        (pipeline, "write_instances_jsonl", "io.write_instances_jsonl", None, None),
        (pipeline, "label_by_sotd", "labelling.label_by_sotd", _new_instance, _after_label),
        (labelling, "label_by_sotd", "labelling.label_by_sotd", _new_instance, _after_label),
        (labelling, "sotd_scores", "labelling.sotd_scores", None, _after_scores),
        (pipeline, "read_timings_csv", "labelling.read_timings_csv", None, None),
        (pipeline, "label_from_timings", "labelling.label_from_timings", None, _after_label),
        (labelling, "resultant", "resultants.resultant", _repeat_key("res"), None),
        (labelling, "discriminant", "resultants.discriminant", _repeat_key("disc"), None),
        (pipeline, "featurize", "features.featurize", None, None),
        (pipeline, "featurize_exact", "features.featurize_exact", None, None),
        (pipeline, "fit_distinct_filter", "features.fit_distinct_filter", None, _after_filter),
        (pipeline, "split", "augment.split", None, None),
        (pipeline, "balance", "augment.balance", None, None),
        (pipeline, "augment_full", "augment.augment_full", None, None),
        (pipeline, "save_dataset", "io.save_dataset", None, None),
        (pipeline, "train_model", lambda kind, *a, **k: f"ml.train.{kind}", None, None),
        (pipeline, "model_accuracy", "ml.accuracy", None, None),
        (KNNClassifier, "fit", "ml.knn.fit", None, None),
        (KNNClassifier, "predict", "ml.knn.predict", None, None),
        (DecisionTreeClassifier, "fit", "ml.tree.fit", None, _after_tree_fit),
        (DecisionTreeClassifier, "predict", "ml.tree.predict", None, None),
        (RandomForestClassifier, "fit", "ml.forest.fit", None, None),
        (RandomForestClassifier, "predict", "ml.forest.predict", None, None),
        (TrainedModel, "save", "io.model_save", None, None),
        (ResultMatrix, "save", "io.matrix_save", None, None),
        (cadaug.report, "write_report", "io.write_report", None, None),
    ]
    saved = []
    for owner, attr, name, before, after in plan:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, before, after))
    for kernel in KERNELS:
        original = getattr(cadaug.kernels, kernel)
        saved.append((cadaug.kernels, kernel, original))
        setattr(cadaug.kernels, kernel, tracer.wrap_kernel(original, kernel))
    rejects = _RejectCounter(tracer)
    ingest_log = logging.getLogger("cadaug.ingest")
    ingest_log.addHandler(rejects)
    try:
        yield tracer
    finally:
        ingest_log.removeHandler(rejects)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _quantile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=10)[q - 1]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round that took wall_s seconds."""
    t, c = tracer, tracer.counts
    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"kernels.{k}_calls"] = t.kernel_calls[k]
        m[f"kernels.{k}_s"] = t.kernel_s[k]
    for kind in ("resultant", "discriminant"):
        m[f"resultants.{kind}_calls"] = t.count(f"resultants.{kind}")
        m[f"resultants.{kind}_s"] = t.total(f"resultants.{kind}")
    m["resultants.repeat_share"] = c["resultants.repeats"] / c["resultants.keyed_calls"] if c["resultants.keyed_calls"] else 0.0

    label_s = sorted(t.durations("labelling.label_by_sotd"), reverse=True)
    m["labelling.sotd_s"] = sum(label_s)
    m["labelling.instances"] = c["labelling.instances"]
    m["labelling.discarded"] = c["labelling.discarded"]
    m["labelling.over_budget"] = c["labelling.over_budget"]
    m["labelling.top10_share"] = sum(label_s[:10]) / sum(label_s) if label_s else 0.0
    m["labelling.timings_s"] = t.total("labelling.read_timings_csv", "labelling.label_from_timings")
    m["labelling.label_ms_p50"] = _quantile_ms(label_s, 5)
    m["labelling.label_ms_p90"] = _quantile_ms(label_s, 9)

    for kind in ("knn", "dt", "rf"):
        m[f"ml.train_{kind}_s"] = t.total(f"ml.train.{kind}")
    train_spans = {i for i, s in enumerate(t.spans) if s[NAME].startswith("ml.train.")}
    fits = ("ml.knn.fit", "ml.tree.fit", "ml.forest.fit")
    m["ml.cv_fits"] = sum(1 for s in t.spans if s[NAME] in fits and s[PARENT] in train_spans)
    m["ml.tree.fits"] = t.count("ml.tree.fit")
    m["ml.tree.nodes"] = c["ml.tree.nodes"]
    m["ml.tree.fit_s"] = t.total("ml.tree.fit")
    m["ml.tree.nodes_per_s"] = m["ml.tree.nodes"] / m["ml.tree.fit_s"] if m["ml.tree.fit_s"] else 0.0
    m["ml.forest.fit_s"] = t.total("ml.forest.fit")
    m["ml.knn.predict_s"] = t.total("ml.knn.predict")
    m["ml.eval_s"] = t.total("ml.accuracy")

    m["smtlib.ingest_s"] = t.total("smtlib.ingest_directory")
    m["smtlib.files"] = c["smtlib.files"]
    m["smtlib.rejected"] = c["smtlib.rejected"]
    m["features.featurize_s"] = t.total("features.featurize", "features.featurize_exact")
    m["features.filter_s"] = t.total("features.fit_distinct_filter")
    m["features.kept"] = c["features.kept"]
    m["augment.balance_s"] = t.total("augment.balance")
    m["augment.augment_s"] = t.total("augment.augment_full")
    m["dataset.save_s"] = t.total("io.save_dataset")
    m["selection.model_save_s"] = t.total("io.model_save")
    m["report.write_s"] = t.total("io.write_report", "io.matrix_save")

    self_s = t.self_times()
    for layer in sorted(set(LAYERS.values()) | {"kernels"}):
        m[f"self.{layer}_s"] = self_s.get(layer, 0.0)
    m["share.label_stack"] = sum(self_s.get(x, 0.0) for x in ("labelling", "resultants", "kernels")) / wall_s
    m["share.ml"] = self_s.get("ml", 0.0) / wall_s
    return m
