"""The benchmark's traced run patches stage functions on ``cadaug.pipeline``.

``perfbench/tracing.py`` replaces module attributes such as
``cadaug.pipeline.label_from_timings`` with timing wrappers.  These tests
fail if the labelling loop or a stage of ``run_pipeline`` stops looking
those names up there (a dropped import, or a direct call into another
module), which would otherwise only show up as missing spans or a
``KeyError`` in ``--trace 1`` runs.  The tracer likewise wraps
``DecisionTreeClassifier.fit`` and counts tree nodes from ``result.tree``,
so forests must fit every tree through it.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from cadaug import pipeline
from cadaug.dataset import Dataset
from cadaug.features import FeatureSchema, all_shapes
from cadaug.ml import CVPlan, train
from cadaug.labelling import TimingRecord, write_timings_csv
from cadaug.poly import VARIABLES, Polynomial, X1, X2, X3
from cadaug.smtlib import ProblemInstance
from cadaug.synth import synthesize_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
x1, x2, x3 = (Polynomial.variable(v) for v in VARIABLES)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _instances(n):
    varmap = (("x", X1), ("y", X2), ("z", X3))
    polys = [frozenset({x1**(k + 1) + x2*x3 - (k + 1), x1*x2 + x3}) for k in range(n)]
    return [ProblemInstance(f"i{k}", p, varmap) for k, p in enumerate(polys)]


def test_timings_labelling_is_traced(tracing, tmp_path):
    instances = _instances(3)
    timings = tmp_path / "timings.csv"
    write_timings_csv(
        [
            TimingRecord("i0", (3.0, 1.0, 2.0, 4.0, 5.0, 6.0)),
            TimingRecord("i1", (None,) * 6),
        ],
        timings,
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        labelled = pipeline.label_instances(instances, "timings", timings, 60.0)
    assert [(inst.id, label) for inst, label in labelled] == [("i0", 1)]
    assert tracer.count("labelling.read_timings_csv") == 1
    assert tracer.count("labelling.label_from_timings") == 2  # i2 has no records
    assert tracer.counts["labelling.instances"] == 2
    assert tracer.counts["labelling.discarded"] == 1
    assert pipeline.label_from_timings.__module__ == "cadaug.labelling"  # restored


def test_sotd_labelling_is_traced(tracing):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        labelled = pipeline.label_instances(_instances(2), "sotd", None, 60.0)
    assert len(labelled) == 2
    assert tracer.count("labelling.label_by_sotd") == 2
    assert tracer.count("resultants.resultant") > 0


def _tree_dataset():
    rng = np.random.default_rng(4)
    X = rng.integers(0, 4, size=(40, 12)).astype(np.float64)
    y = (X[:, 0] + X[:, 1]).astype(int) % 3
    schema = FeatureSchema(tuple(all_shapes()[:4]))  # 12 columns
    return Dataset([f"r{i}" for i in range(40)], X, y, schema, "unbalanced", "all")


def test_tree_fits_are_traced(tracing):
    dataset = _tree_dataset()
    plan = CVPlan(
        folds=2,
        grids={
            "dt": [{"max_depth": 2}, {"max_depth": None}],
            "rf": [{"n_trees": 3, "max_depth": 3}, {"n_trees": 3, "max_depth": None}],
        },
        seed=1,
    )
    NAME, PARENT = tracing.NAME, tracing.PARENT
    for kind, nested in (("rf", True), ("dt", False)):
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            train(kind, dataset, plan)
        fits = [s for s in tracer.spans if s[NAME] == "ml.tree.fit"]
        assert fits, kind
        in_forest = [
            s for s in fits
            if s[PARENT] is not None and tracer.spans[s[PARENT]][NAME] == "ml.forest.fit"
        ]
        if nested:
            # 3 trees per forest; the two depths share one forest per fold,
            # plus the final refit
            assert len(in_forest) == len(fits) == 9
        else:
            assert not in_forest
        assert tracer.counts["ml.tree.nodes"] > 0, kind


def test_knn_fits_once_per_fold(tracing):
    plan = CVPlan(folds=2, grids={"knn": [{"k": 1}, {"k": 3}]}, seed=1)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        train("knn", _tree_dataset(), plan)
    # the two k share one fit per fold, plus the final refit
    assert tracer.count("ml.knn.fit") == 3


def test_every_pipeline_stage_is_traced(tracing, tmp_path):
    synthesize_corpus(tmp_path / "corpus", 24, seed=3)
    config = pipeline.ExperimentConfig(
        input_dir=tmp_path / "corpus",
        out_dir=tmp_path / "out",
        cv_folds=2,
        grids={"knn": [{"k": 1}], "dt": [{"max_depth": 3}], "rf": [{"n_trees": 2, "max_depth": 3}]},
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        pipeline.run_pipeline(config)
    for name in (
        "smtlib.ingest_directory",
        "io.write_instances_jsonl",
        "labelling.label_by_sotd",
        "features.featurize",
        "features.fit_distinct_filter",
        "augment.split",
        "augment.balance",
        "augment.augment_full",
        "io.save_dataset",
        "ml.train.knn",
        "ml.train.dt",
        "ml.train.rf",
        "ml.accuracy",
        "io.write_report",
    ):
        assert tracer.count(name) > 0, name
    labelled = len((tmp_path / "out" / "labels.csv").read_text().splitlines()) - 1
    assert labelled > 0
    assert tracer.count("features.featurize") == labelled  # once per labelled instance
