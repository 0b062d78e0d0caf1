"""End-to-end pipeline tests on small synthetic corpora."""

import json

import pytest

from cadaug.features import FeatureSchema
from cadaug.labelling import write_timings_csv
from cadaug.pipeline import (
    ExperimentConfig,
    PipelineError,
    ResultMatrix,
    improvement_summary,
    run_pipeline,
)
from cadaug.report import render_matrix_csv
from cadaug.synth import synthesize_corpus, timings_from_sotd

SMALL_GRIDS = {
    "knn": [{"k": 3}],
    "dt": [{"max_depth": 8, "min_leaf": 1}],
    "rf": [{"n_trees": 10, "max_depth": 8}],
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    instances = synthesize_corpus(root, 50, seed=3)
    return root, instances


def small_config(corpus_dir, out_dir, **overrides):
    defaults = dict(
        input_dir=corpus_dir,
        out_dir=out_dir,
        seed=11,
        cv_folds=3,
        grids=SMALL_GRIDS,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def experiment(corpus, tmp_path_factory):
    """One run shared by the tests that only read its result and files."""
    root, _ = corpus
    out = tmp_path_factory.mktemp("exp")
    return run_pipeline(small_config(root, out)), out


def test_run_pipeline_structure(experiment):
    matrix, out = experiment

    assert matrix.models == ("knn", "dt", "rf")
    assert len(matrix.accuracy) == 27
    assert all(0.0 <= v <= 1.0 for v in matrix.accuracy.values())

    names = {f"{role}_{prov}" for role in ("train", "test")
             for prov in ("unbalanced", "balanced", "augmented")}
    assert set(matrix.dataset_summary) == names
    train_unb = matrix.dataset_summary["train_unbalanced"]
    aug = matrix.dataset_summary["train_augmented"]
    assert aug["rows"] == 6 * train_unb["rows"]
    assert len(set(aug["class_counts"])) == 1  # uniform after augmentation

    for artifact in (
        "instances.jsonl", "labels.csv", "schema.json",
        "matrix.json", "matrix.csv", "report.md", "datasets.json",
    ):
        assert (out / artifact).exists(), artifact
    assert len(list((out / "models").glob("*.json"))) == 9
    assert len(list((out / "datasets").glob("*.csv"))) == 6

    schema = FeatureSchema.load(out / "schema.json")
    assert len(schema) == matrix.feature_counts["distinct"]
    assert len(schema) % 3 == 0 and len(schema) <= 384
    assert matrix.feature_counts["raw"] == 384


def test_no_id_leaks_between_train_and_test(experiment):
    _, out = experiment

    def base_ids(path):
        with open(path) as fh:
            next(fh)
            return {line.split(",", 1)[0].split("#")[0] for line in fh if line.strip()}
    for provenance in ("unbalanced", "balanced", "augmented"):
        train_ids = base_ids(out / "datasets" / f"train_{provenance}.csv")
        test_ids = base_ids(out / "datasets" / f"test_{provenance}.csv")
        assert train_ids.isdisjoint(test_ids)


def test_pipeline_determinism(corpus, tmp_path):
    root, _ = corpus
    a = run_pipeline(small_config(root, tmp_path / "a"))
    b = run_pipeline(small_config(root, tmp_path / "b"))
    assert a.accuracy == b.accuracy
    assert (tmp_path / "a" / "matrix.csv").read_bytes() == (
        tmp_path / "b" / "matrix.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "report.md").read_bytes() == (
        tmp_path / "b" / "report.md"
    ).read_bytes()


def test_timings_labeller_reproduces_sotd_run(corpus, tmp_path):
    root, instances = corpus
    timings_path = tmp_path / "timings.csv"
    write_timings_csv(timings_from_sotd(instances), timings_path)
    via_sotd = run_pipeline(small_config(root, tmp_path / "s", labeller="sotd"))
    via_timings = run_pipeline(
        small_config(root, tmp_path / "t", labeller="timings", timings_csv=timings_path)
    )
    assert via_sotd.accuracy == via_timings.accuracy
    assert (tmp_path / "s" / "matrix.csv").read_bytes() == (
        tmp_path / "t" / "matrix.csv"
    ).read_bytes()


def test_empty_labelled_dataset_error(corpus, tmp_path):
    root, _ = corpus
    empty = tmp_path / "empty.csv"
    empty.write_text("instance_id,ordering,seconds\n")
    with pytest.raises(PipelineError, match="empty labelled dataset"):
        run_pipeline(
            small_config(root, tmp_path / "x", labeller="timings", timings_csv=empty)
        )


def test_missing_corpus_error(tmp_path):
    empty_dir = tmp_path / "none"
    empty_dir.mkdir()
    with pytest.raises(PipelineError, match="ingest"):
        run_pipeline(small_config(empty_dir, tmp_path / "x"))


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", labeller="oracle")
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", labeller="timings")
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", test_fraction=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", balance_mode="sorted")
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", models=())
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", models=("svm",))
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", timeout=0.0)
    with pytest.raises(ValueError, match="maxdepth"):
        ExperimentConfig(tmp_path, tmp_path / "o", grids={"dt": [{"maxdepth": 4}]})


def _matrix_with_balanced_column(cells):
    accuracy = {}
    for model, (unb, bal, aug) in cells.items():
        accuracy[(model, "unbalanced", "balanced")] = unb
        accuracy[(model, "balanced", "balanced")] = bal
        accuracy[(model, "augmented", "balanced")] = aug
    return ResultMatrix(
        models=tuple(cells),
        accuracy=accuracy,
        dataset_summary={},
        baseline={},
        feature_counts={"raw": 384, "distinct": 384},
        improvements={},
        seed=0,
        labeller="sotd",
    )


def test_improvement_summary_arithmetic():
    matrix = _matrix_with_balanced_column(
        {"knn": (0.2, 0.3, 0.3), "dt": (0.2, 0.3, 0.3), "rf": (0.2, 0.3, 0.3)}
    )
    out = improvement_summary(matrix)
    assert out["balanced_vs_unbalanced_pct"] == pytest.approx(50.0)
    assert out["augmented_vs_unbalanced_pct"] == pytest.approx(50.0)


def test_improvement_summary_identity_and_zero_base():
    same = _matrix_with_balanced_column({"knn": (0.4, 0.4, 0.4)})
    assert improvement_summary(same)["balanced_vs_unbalanced_pct"] == pytest.approx(0.0)
    degenerate = _matrix_with_balanced_column({"knn": (0.0, 0.4, 0.4)})
    assert improvement_summary(degenerate)["balanced_vs_unbalanced_pct"] is None


def test_matrix_json_roundtrip(experiment):
    matrix, out = experiment
    again = ResultMatrix.load(out / "matrix.json")
    assert again.accuracy == matrix.accuracy
    assert again.dataset_summary == matrix.dataset_summary
    assert again.improvements == matrix.improvements
    assert render_matrix_csv(again) == render_matrix_csv(matrix)


def test_matrix_csv_row_count(experiment):
    matrix, _ = experiment
    lines = render_matrix_csv(matrix).strip().split("\n")
    assert len(lines) == 1 + len(matrix.models) * 9
