"""End-to-end pipeline tests on small synthetic corpora."""

import errno
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from pathlib import Path

import pytest

from cadaug import pipeline
from cadaug.dataset import PROVENANCES
from cadaug.features import FeatureSchema
from cadaug.labelling import write_timings_csv
from cadaug.ml import tree, workers
from cadaug.pipeline import ExperimentConfig, PipelineError, run_pipeline
from cadaug.report import ResultMatrix, improvement_summary, render_matrix_csv
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


# sha256 of the artifacts of an exact-balanced run of the 50-instance
# corpus, pinned so that a change to any byte of them fails here; matrix.*
# is left out because knn distances go through BLAS, whose rounding may
# vary between builds.  The knn model files are pinned although their cv
# accuracies rest on those distances: they also hold every standardized
# training value as text, which a change to the model writer must keep
PINNED_DIGESTS = {
    "labels.csv": "2e5867e6fc9a2212ea8e457e616acc37f713e680fec93b8a602af5e0964574c7",
    "schema.json": "12a76c357c3ba7085144cda304fb5be55d4c549dd3cb7201aad63bfb2050bd27",
    "datasets/test_augmented.csv": "527bec0ebffc790322f894c6779b4ac4e2a3e286d0d8c33fe007a53720105289",
    "datasets/test_augmented.meta.json": "ab25d9c9e76532dbb469d971deb81480840222b680fcf10ccfb411f96defe380",
    "datasets/test_balanced.csv": "9288820dcf17bfd7f55ed485a599d54b1b17a287334131bc9bbc8231dbd19a08",
    "datasets/test_balanced.meta.json": "6cbdd4e9830598a54f02346b41feb402b7d584f3b3114f2b01ab3b3bb7e18a2e",
    "datasets/test_unbalanced.csv": "7eb86f472de0ff66cbd821232a0835ff933184b8f62ae0abe6b3e29fa666d2dc",
    "datasets/test_unbalanced.meta.json": "084be93d1a253aab7f79117d524b71731ba01861215994805e950af9d898f5e8",
    "datasets/train_augmented.csv": "50fdf33e24ccaf04aa796095e46901b8a0748c6e703f8ea0d2519ab843eb3fa4",
    "datasets/train_augmented.meta.json": "08e96de242a73935297ca23067b0df1f8ff481567c2c3b20e3170465150abe86",
    "datasets/train_balanced.csv": "0a81b00f6e4d47bbaa549b8c1f2678fbedd55a4322119787dd37b58af4ba9312",
    "datasets/train_balanced.meta.json": "2640ddd9b0d8572bba1c358c7cf2ab47491a29651faccb02cf1e4f21f9e46cbc",
    "datasets/train_unbalanced.csv": "134c290b9a550998934c32b4707c65d19fcd9b00abcc2229df5a62c9b83aca4c",
    "datasets/train_unbalanced.meta.json": "e57d5c00a6d65065fa98559ff6109fca0e1d5d1e880f940bb7d138b668f07ef5",
    "models/dt_unbalanced.json": "0990e730788b67a7bc89841b247aebc0d247b8b15521fe7785b9a99bcf94a424",
    "models/dt_balanced.json": "ba1b84356a2ae135ec9a9608df36bdc419b876a19645b5267ff984f03530a95b",
    "models/dt_augmented.json": "9ab1d4b303dbd4db7b640eb081ad85af5d2a1b3e359604130b4a2285ed144085",
    "models/rf_unbalanced.json": "32f55e6e52c15f3f81a8245a3aa34e82b19621782791af97816aa21349358ccc",
    "models/rf_balanced.json": "ea80192c6474d345e3604992bf33fb7e2e3132647c479f3470629a2f413710c0",
    "models/rf_augmented.json": "490900206e09c538c5e1e92b3f89795a43cb8443ff73498085354e5c7d9267a2",
    "models/knn_unbalanced.json": "dd698efe3e87ca4a5e46a33c894af9c5175e119daff98cf67871052e97485d37",
    "models/knn_balanced.json": "07a32fbf6980f25e3c21814c01397c36c0f82049c9863cc79406a43955c437c2",
    "models/knn_augmented.json": "fd9cc3c50d296b61488be08774086baa88dc66c1074ef548b491bd16f39dc34a",
}


def test_artifacts_match_pinned_digests(corpus, tmp_path):
    root, _ = corpus
    out = tmp_path / "out"
    run_pipeline(small_config(root, out, balance_mode="exact"))
    names = ["labels.csv", "schema.json"]
    names += sorted(p.relative_to(out).as_posix() for p in (out / "datasets").iterdir())
    names += [f"models/{kind}_{prov}.json" for kind in ("dt", "rf", "knn") for prov in PROVENANCES]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    assert digests == PINNED_DIGESTS


def _files(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _jobs(monkeypatch, jobs):
    """Grow trees on ``jobs`` worker processes; 1 grows them in process."""
    monkeypatch.setattr(workers, "default_jobs", lambda: jobs)


def test_outputs_do_not_depend_on_the_job_count(tmp_path, monkeypatch):
    # with the default grids, the pool gets 16 growths here: one per dt
    # group and training set, and on the augmented set each 100-tree
    # forest group grows its five folds as batches of 2, 2 and 1
    synthesize_corpus(tmp_path / "corpus", 60, seed=7)
    outputs = []
    for jobs in (1, 2):
        _jobs(monkeypatch, jobs)
        out = tmp_path / f"jobs{jobs}"
        run_pipeline(ExperimentConfig(tmp_path / "corpus", out, seed=7, balance_mode="exact"))
        outputs.append(_files(out))
    names = set(outputs[0])
    assert {"labels.csv", "schema.json", "matrix.json", "matrix.csv", "report.md"} <= names
    assert len([name for name in names if name.startswith("models/")]) == 9
    assert len([name for name in names if name.endswith(".csv")]) == 6 + 2
    assert outputs[0] == outputs[1]


def _growth_work(growths, n_features):
    """The kind and root cells of a list of growths sharing their
    parameters: trees × fit rows × candidate columns."""
    mtry = growths[0].params[2]
    columns = n_features if mtry is None else min(mtry, n_features)
    kind = "rf" if growths[0].bootstrap else "dt"
    return kind, sum(len(growth.seeds) * len(growth.rows) for growth in growths) * columns


def test_pairs_train_knn_first_then_by_descending_root_cells(tmp_path, monkeypatch):
    # longest processing time first: the growths that take longest start
    # on the workers first, while this process trains knn
    synthesize_corpus(tmp_path / "corpus", 60, seed=7)
    train_model, grow_all, growth_pool = pipeline.train_model, tree.grow_all, workers.growth_pool
    trained, grown = {}, {}

    def recording_train(kind, cv):
        cells = sum(growth.root_cells for growth in cv.growths())
        trained[jobs].append((kind, cv.dataset.provenance, cells))
        return train_model(kind, cv)

    def recording_grow_all(X, y, growths):  # in process
        if len(growths[0].rows) < len(X):  # a CV growth, not a refit on every row
            grown[jobs].append(_growth_work(growths, X.shape[1]))
        return grow_all(X, y, growths)

    @contextmanager
    def recording_pool(n_jobs, training):  # submitted to the workers
        def recording(index, submit):
            def submit_recorded(growths):
                grown[jobs].append(_growth_work(growths, training[index][0].shape[1]))
                return submit(growths)
            return submit_recorded

        with growth_pool(n_jobs, training) as submits:
            yield [recording(index, submit) for index, submit in enumerate(submits)]

    monkeypatch.setattr(pipeline, "train_model", recording_train)
    monkeypatch.setattr(tree, "grow_all", recording_grow_all)
    monkeypatch.setattr(workers, "growth_pool", recording_pool)
    for jobs in (1, 2):
        _jobs(monkeypatch, jobs)
        trained[jobs], grown[jobs] = [], []
        run_pipeline(ExperimentConfig(tmp_path / "corpus", tmp_path / f"jobs{jobs}", seed=7))
    assert trained[1] == trained[2]
    assert grown[1] == grown[2]
    order = trained[1]
    assert [pair[:2] for pair in order[:3]] == [("knn", on) for on in PROVENANCES]
    assert [cells for _, _, cells in order[:3]] == [0] * 3
    tree_pairs = order[3:]
    assert sorted(pair[0] for pair in tree_pairs) == ["dt"] * 3 + ["rf"] * 3
    cells = [cells for _, _, cells in tree_pairs]
    assert cells == sorted(cells, reverse=True) and cells[-1] > 0
    assert tree_pairs[0][:2] == ("rf", "augmented")
    # the growths start in the pairs' order, each pair's adding up to its root cells
    started = iter(grown[2])
    for kind, _, cells in tree_pairs:
        total = 0
        while total < cells:
            started_kind, started_cells = next(started)
            assert started_kind == kind
            total += started_cells
        assert total == cells
    assert next(started, None) is None


def test_a_run_without_trees_starts_no_process_pool(tmp_path):
    # knn grows no trees, so the training stage has no growth for a worker
    # and imports none of the pool's modules, even with two CPUs to use
    code = textwrap.dedent(
        f"""
        import sys
        from cadaug.ml import workers
        from cadaug.pipeline import ExperimentConfig, run_pipeline
        from cadaug.synth import synthesize_corpus

        workers.default_jobs = lambda: 2
        synthesize_corpus({str(tmp_path / "corpus")!r}, 30, seed=3)
        run_pipeline(ExperimentConfig({str(tmp_path / "corpus")!r}, {str(tmp_path / "out")!r},
                                      models=("knn",), cv_folds=3))
        print(sorted({{"multiprocessing", "concurrent.futures"}} & set(sys.modules)))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert done.stdout.strip() == "[]"
    assert sorted(p.name for p in (tmp_path / "out" / "models").iterdir()) == [
        f"knn_{on}.json" for on in sorted(PROVENANCES)
    ]


def test_a_pooled_run_leaves_no_worker_running(corpus, tmp_path, monkeypatch):
    root, _ = corpus
    _jobs(monkeypatch, 2)
    run_pipeline(small_config(root, tmp_path / "out"))
    assert multiprocessing.active_children() == []


def test_a_growth_failing_in_a_worker_fails_the_train_stage(corpus, tmp_path, monkeypatch):
    root, _ = corpus
    growers = tmp_path / "growers"
    growers.mkdir()

    def failing(*args, **kwargs):
        (growers / str(os.getpid())).touch()
        raise ValueError("no trees today")

    monkeypatch.setattr(tree, "grow", failing)  # the workers fork after this
    errors = []
    for jobs in (1, 2):
        _jobs(monkeypatch, jobs)
        with pytest.raises(PipelineError) as caught:
            run_pipeline(small_config(root, tmp_path / f"jobs{jobs}"))
        errors.append((caught.value.stage, str(caught.value)))
        assert multiprocessing.active_children() == []
    # the schedule's first tree pair: its growths are the first to start
    assert errors == [("train", "train: rf on augmented: no trees today")] * 2
    assert {int(p.name) for p in growers.iterdir()} - {os.getpid()}  # a worker grew


def test_a_worker_killed_mid_growth_fails_the_train_stage(corpus, tmp_path, monkeypatch):
    # as the kernel's out-of-memory killer would
    root, _ = corpus
    parent = os.getpid()
    grow = tree.grow

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return grow(*args, **kwargs)

    monkeypatch.setattr(tree, "grow", killed)  # the workers fork after this
    _jobs(monkeypatch, 2)
    with pytest.raises(
        PipelineError, match=r"^train: rf on augmented: a tree-growing worker process ended abruptly"
    ) as caught:
        run_pipeline(small_config(root, tmp_path / "out"))
    assert caught.value.stage == "train"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("forks", [0, 1])
def test_a_failing_fork_fails_the_train_stage(corpus, tmp_path, monkeypatch, forks):
    # the pool forks its two workers at the first submit; the first fork
    # or only the second fails, as with EAGAIN when the host is out of
    # processes
    root, _ = corpus
    fork = os.fork
    calls = []

    def failing_fork():
        calls.append(None)
        if len(calls) > forks:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    _jobs(monkeypatch, 2)
    with pytest.raises(
        PipelineError, match=r"^train: starting worker processes: \[Errno 11\] Resource"
    ):
        run_pipeline(small_config(root, tmp_path / "out"))
    assert len(calls) == forks + 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "jobs, models",
    [
        pytest.param(1, ("knn", "dt", "rf"), id="1"),
        pytest.param(2, ("knn", "dt", "rf"), id="2"),
        pytest.param(1, ("dt", "rf"), id="trees-1"),
        pytest.param(2, ("dt", "rf"), id="trees-2"),
    ],
)
def test_degenerate_training_data_fails_the_train_stage(corpus, tmp_path, monkeypatch, jobs, models):
    # every training's folds are planned in canonical order before the
    # first fit, so the first training set that cannot fill them fails
    root, _ = corpus
    _jobs(monkeypatch, jobs)
    config = small_config(root, tmp_path / "out", cv_folds=400, models=models)
    with pytest.raises(
        PipelineError, match=rf"^train: {models[0]} on unbalanced: \d+ rows cannot fill 400"
    ):
        run_pipeline(config)
    assert not any((tmp_path / "out" / "models").iterdir())  # it fails before the first fit
    assert multiprocessing.active_children() == []


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
    with pytest.raises(ValueError, match="model kind 'knn' is listed twice"):
        ExperimentConfig(tmp_path, tmp_path / "o", models=("knn", "dt", "knn"))
    with pytest.raises(ValueError):
        ExperimentConfig(tmp_path, tmp_path / "o", timeout=0.0)
    with pytest.raises(ValueError, match="maxdepth"):
        ExperimentConfig(tmp_path, tmp_path / "o", grids={"dt": [{"maxdepth": 4}]})


@pytest.mark.parametrize("usable, jobs", [(1, 1), (2, 2), (8, 2)])
def test_the_job_count_is_the_usable_cpus_up_to_two(monkeypatch, usable, jobs):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    assert workers.default_jobs() == jobs


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


def test_report_does_not_import_the_pipeline():
    # the matrix lives in report.py, so reading and rendering a saved
    # matrix needs none of the experiment's stages
    code = "import sys, cadaug.report; print('cadaug.pipeline' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "False"


def test_importing_the_pipeline_loads_no_process_pool():
    # the pool's modules load when the training stage starts one, so that
    # importing the package stays as fast and small as before
    code = (
        "import sys, cadaug.pipeline; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"


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
