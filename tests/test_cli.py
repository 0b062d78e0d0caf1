"""CLI verb and exit-code tests (driven through cadaug.cli.main)."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cadaug.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A corpus plus the artifacts of every stage verb, built once."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert run_cli("synth", "--out", corpus, "--count", "40", "--seed", "9",
                   "--timings", root / "timings.csv") == EXIT_OK
    assert run_cli("ingest", "--input", corpus, "--out", root / "instances.jsonl") == EXIT_OK
    assert run_cli("label", "--instances", root / "instances.jsonl",
                   "--out", root / "labels.csv") == EXIT_OK
    assert run_cli(
        "featurize", "--instances", root / "instances.jsonl", "--fit-distinct",
        "--schema-out", root / "schema.json", "--labels", root / "labels.csv",
        "--out", root / "data.csv",
    ) == EXIT_OK
    assert run_cli(
        "split", "--data", root / "data.csv", "--schema", root / "schema.json",
        "--test-fraction", "0.25", "--seed", "4",
        "--out-train", root / "train.csv", "--out-test", root / "test.csv",
    ) == EXIT_OK
    (root / "grid.json").write_text(json.dumps({
        "knn": [{"k": 3}],
        "dt": [{"max_depth": 6, "min_leaf": 1}],
        "rf": [{"n_trees": 8, "max_depth": 6}],
    }))
    return root


def test_stage_artifacts_exist(workspace):
    for name in ("timings.csv", "instances.jsonl", "labels.csv", "schema.json",
                 "data.csv", "train.csv", "test.csv"):
        assert (workspace / name).exists(), name
    with open(workspace / "data.csv") as fh:
        header = fh.readline()
    assert header.startswith("id,label,f")


def test_balance_augment_train_evaluate(workspace, capsys):
    root = workspace
    assert run_cli("balance", "--data", root / "train.csv", "--schema", root / "schema.json",
                   "--mode", "exact", "--out", root / "train_bal.csv") == EXIT_OK
    assert run_cli("augment", "--data", root / "train.csv", "--schema", root / "schema.json",
                   "--out", root / "train_aug.csv") == EXIT_OK
    assert run_cli(
        "train", "--data", root / "train_aug.csv", "--schema", root / "schema.json",
        "--model", "dt", "--seed", "5", "--cv-folds", "3",
        "--grid", root / "grid.json", "--out", root / "dt.json",
    ) == EXIT_OK
    capsys.readouterr()
    assert run_cli("evaluate", "--model", root / "dt.json", "--data", root / "test.csv",
                   "--schema", root / "schema.json") == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("accuracy 0.") or out.startswith("accuracy 1.")


def test_run_and_report_determinism(workspace, tmp_path):
    root = workspace
    common = ("run", "--input", root / "corpus", "--seed", "7",
              "--cv-folds", "3", "--grid", root / "grid.json")
    assert run_cli(*common, "--out", tmp_path / "a") == EXIT_OK
    assert run_cli(*common, "--out", tmp_path / "b") == EXIT_OK
    a = (tmp_path / "a" / "matrix.csv").read_bytes()
    b = (tmp_path / "b" / "matrix.csv").read_bytes()
    assert a == b
    # report verb re-renders identical files from the saved matrix
    assert run_cli("report", "--matrix", tmp_path / "a" / "matrix.json",
                   "--out", tmp_path / "c") == EXIT_OK
    assert (tmp_path / "c" / "matrix.csv").read_bytes() == a
    assert (tmp_path / "c" / "report.md").read_bytes() == (
        tmp_path / "a" / "report.md"
    ).read_bytes()


def test_config_errors_exit_1(workspace, tmp_path):
    root = workspace
    assert run_cli("run", "--input", tmp_path / "missing", "--out", tmp_path / "o") == EXIT_CONFIG
    assert run_cli("nonsense-verb") == EXIT_CONFIG
    assert run_cli("label", "--instances", root / "instances.jsonl",
                   "--labeller", "timings", "--out", tmp_path / "l.csv") == EXIT_CONFIG
    assert run_cli("featurize", "--instances", root / "instances.jsonl",
                   "--schema", root / "schema.json", "--fit-distinct",
                   "--out", tmp_path / "x.csv") == EXIT_CONFIG
    assert run_cli("run", "--input", root / "corpus", "--out", tmp_path / "o",
                   "--test-fraction", "0.0") == EXIT_CONFIG
    bad_grid = tmp_path / "bad_grid.json"
    bad_grid.write_text("[1, 2, 3]")
    assert run_cli("train", "--data", root / "train.csv", "--schema", root / "schema.json",
                   "--model", "dt", "--grid", bad_grid,
                   "--out", tmp_path / "m.json") == EXIT_CONFIG


def test_data_errors_exit_2(workspace, tmp_path):
    root = workspace
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    assert run_cli("ingest", "--input", empty_dir, "--out", tmp_path / "i.jsonl") == EXIT_DATA
    empty_timings = tmp_path / "t.csv"
    empty_timings.write_text("instance_id,ordering,seconds\n")
    assert run_cli("run", "--input", root / "corpus", "--out", tmp_path / "o",
                   "--labeller", "timings", "--timings", empty_timings) == EXIT_DATA
    unlabelled = tmp_path / "u.csv"
    assert run_cli("featurize", "--instances", root / "instances.jsonl",
                   "--schema", root / "schema.json", "--out", unlabelled) == EXIT_OK
    assert run_cli("split", "--data", unlabelled, "--schema", root / "schema.json",
                   "--out-train", tmp_path / "tr.csv",
                   "--out-test", tmp_path / "te.csv") == EXIT_DATA


def test_featurize_with_saved_schema_matches_widths(workspace, tmp_path):
    root = workspace
    out = tmp_path / "again.csv"
    assert run_cli("featurize", "--instances", root / "instances.jsonl",
                   "--schema", root / "schema.json", "--labels", root / "labels.csv",
                   "--out", out) == EXIT_OK
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    with open(root / "data.csv") as fh:
        original = fh.readline().strip().split(",")
    assert header == original


@pytest.mark.parametrize("labeller", ["sotd", "timings"])
def test_label_and_run_write_identical_labels(workspace, tmp_path, labeller):
    root = workspace
    source = ("--labeller", labeller, "--timings", root / "timings.csv")
    assert run_cli("label", "--instances", root / "instances.jsonl", *source,
                   "--out", tmp_path / "labels.csv") == EXIT_OK
    assert run_cli("run", "--input", root / "corpus", *source, "--models", "knn",
                   "--cv-folds", "3", "--grid", root / "grid.json",
                   "--out", tmp_path / "run") == EXIT_OK
    staged = (tmp_path / "labels.csv").read_bytes()
    assert staged.startswith(b"instance_id,label\n") and staged.count(b"\n") > 10
    assert staged == (tmp_path / "run" / "labels.csv").read_bytes()


def test_run_datasets_equal_featurize_with_the_fitted_schema(workspace, tmp_path):
    # run narrows raw rows to the fitted schema's columns; featurizing with
    # that schema directly must give the same rows
    root = workspace
    out = tmp_path / "run"
    assert run_cli("run", "--input", root / "corpus", "--models", "knn", "--cv-folds", "3",
                   "--grid", root / "grid.json", "--out", out) == EXIT_OK
    assert run_cli("featurize", "--instances", out / "instances.jsonl",
                   "--schema", out / "schema.json", "--labels", out / "labels.csv",
                   "--out", tmp_path / "direct.csv") == EXIT_OK

    def rows(path):
        header, *lines = path.read_text().splitlines()
        return header, lines

    header, direct = rows(tmp_path / "direct.csv")
    train_header, train = rows(out / "datasets" / "train_unbalanced.csv")
    test_header, test = rows(out / "datasets" / "test_unbalanced.csv")
    assert header == train_header == test_header
    assert sorted(train + test) == sorted(direct)


def test_featurize_rejects_out_of_range_label(workspace, tmp_path, capsys):
    root = workspace
    first_id = (root / "labels.csv").read_text().splitlines()[1].split(",")[0]
    bad = tmp_path / "labels.csv"
    bad.write_text(f"instance_id,label\n{first_id},7\n")
    assert run_cli("featurize", "--instances", root / "instances.jsonl", "--labels", bad,
                   "--out", tmp_path / "data.csv") == EXIT_DATA
    assert "labels CSV line 2: bad label '7'" in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()


def test_label_names_the_rejected_record(workspace, tmp_path, capsys):
    lines = (workspace / "instances.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["polys"][0][0][2] = [2**21, 0, 1]
    bad = tmp_path / "instances.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
    assert run_cli("label", "--instances", bad, "--out", tmp_path / "l.csv") == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line 2 (id {record['id']!r}): exponent 2097152 outside 0..2097151" in err


def test_grid_typos_are_config_errors(workspace, tmp_path):
    root = workspace
    for grid in ({"dt": [{"maxdepth": 4}]}, {"rff": [{"n_trees": 5}]}, {"dt": [{"max_depth": 0}]},
                 {"rf": [{"bootstrap": "false"}]}, {"knn": [{"k": 2.7}]},
                 {"dt": [{"max_depth": 4.0}]}, {"rf": [{"n_trees": True}]}, {"knn": 5},
                 {"rf": None}):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert run_cli("train", "--data", root / "train.csv", "--schema", root / "schema.json",
                       "--model", "dt", "--grid", path,
                       "--out", tmp_path / "m.json") == EXIT_CONFIG
        assert run_cli("run", "--input", root / "corpus", "--grid", path,
                       "--out", tmp_path / "o") == EXIT_CONFIG
        # rejected before labelling: nothing was written
        assert not (tmp_path / "o" / "labels.csv").exists()
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "m.json").exists()


def test_unknown_schema_shapes_are_data_errors(workspace, tmp_path, capsys):
    root = workspace
    schema = json.loads((root / "schema.json").read_text())
    schema["shapes"][0] = "degree.bogus.id.max.id"
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(schema))
    capsys.readouterr()
    assert run_cli("featurize", "--instances", root / "instances.jsonl", "--schema", bad,
                   "--out", tmp_path / "data.csv") == EXIT_DATA
    assert "unknown descriptor shape 'degree.bogus.id.max.id'" in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()


def test_ingest_skips_a_directory_named_like_a_script(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    decls = "(declare-fun x () Real)(declare-fun y () Real)(declare-fun z () Real)"
    (corpus / "a.smt2").write_text(decls + "(assert (> (+ x y) z))")
    (corpus / "sub.smt2").mkdir()
    assert run_cli("ingest", "--input", corpus, "--out", tmp_path / "i.jsonl") == EXIT_OK
    assert any(rec.getMessage().startswith("skipping sub: ") for rec in caplog.records)
    assert len((tmp_path / "i.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize("shapes", [None, "degree.max.id.max.id"], ids=["missing", "string"])
def test_split_rejects_a_schema_without_a_shape_list(workspace, tmp_path, capsys, shapes):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({} if shapes is None else {"shapes": shapes}))
    capsys.readouterr()
    assert run_cli("split", "--data", workspace / "data.csv", "--schema", schema,
                   "--out-train", tmp_path / "tr.csv",
                   "--out-test", tmp_path / "te.csv") == EXIT_DATA
    err = capsys.readouterr().err
    assert "feature schema: " in err and "'shapes'" in err


@pytest.mark.parametrize("body, message", [
    ({}, "model file: missing key 'kind'"),
    ({"kind": "dt", "hyperparameters": {}, "cv": [], "payload": {}},
     "model file: dt payload lacks key 'max_depth'"),
], ids=["no-kind", "empty-payload"])
def test_evaluate_rejects_a_model_file_without_its_keys(workspace, tmp_path, capsys,
                                                        body, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format": "cadaug-model", "version": 1, **body}))
    capsys.readouterr()
    assert run_cli("evaluate", "--model", model, "--data", workspace / "test.csv",
                   "--schema", workspace / "schema.json") == EXIT_DATA
    assert message in capsys.readouterr().err


def _first_leaf(node):
    while "label" not in node:
        node = node["left"]
    return node


@pytest.mark.parametrize("kind, damage, message", [
    ("knn", lambda m: m["stats"].update(mean=5), "model file stats: 'mean' is not an array"),
    ("knn", lambda m: m["stats"]["scale"].__setitem__(0, "1"),
     "model file stats: 'scale' is not an array of numbers"),
    ("dt", lambda m: m["payload"]["tree"].pop("threshold"),
     "model file tree node: missing key 'threshold'"),
    ("dt", lambda m: m["payload"]["tree"].update(feature="0"),
     "model file tree node: 'feature' is not an integer"),
    ("dt", lambda m: m["payload"]["tree"].update(left=[]),
     "model file tree node: 'left' is not an object"),
    ("rf", lambda m: _first_leaf(m["payload"]["trees"][1]["tree"]).update(label=None),
     "model file tree node: 'label' is not an integer"),
    ("rf", lambda m: _first_leaf(m["payload"]["trees"][0]["tree"]).update(label=6),
     "model file tree node: label 6 is not a class index"),
    # hyperparameters and arrays of the wrong type let a TypeError or an
    # IndexError out, an internal error (exit 3)
    ("rf", lambda m: m["payload"].update(max_depth="3"),
     "model file: rf payload: max_depth must be an integer, got '3'"),
    ("rf", lambda m: m["payload"].update(trees=5), "model file: 'trees' is not an array"),
    ("knn", lambda m: m["payload"].update(k="3"),
     "model file: knn payload: k must be an integer, got '3'"),
    ("dt", lambda m: m["payload"].update(min_leaf=None),
     "model file: dt payload: min_leaf must be an integer, got None"),
    ("knn", lambda m: m["payload"].update(X=5), "model file: 'X' is not an array"),
    ("knn", lambda m: m["payload"]["y"].__setitem__(0, 9),
     "model file: 'y' is not an array of"),
    # rows or labels that do not line up were read without a check
    ("knn", lambda m: [row.pop() for row in m["payload"]["X"]],
     "model file: 'X' is not a non-empty array of"),
    ("knn", lambda m: m["payload"]["y"].pop(), "model file: 'y' is not an array of"),
    ("rf", lambda m: m["payload"].update(n_features=str(m["payload"]["n_features"])),
     "model file: 'n_features' is not an integer"),
    ("rf", lambda m: m["payload"].update(n_features=m["payload"]["n_features"] + 1),
     "model file: a tree's 'n_features' is not the forest's"),
    # json.loads decodes NaN and Infinity, which then loaded and predicted
    ("knn", lambda m: m["stats"]["mean"].__setitem__(0, math.nan),
     "model file stats: 'mean' is not an array of numbers"),
    ("knn", lambda m: m["payload"]["X"][0].__setitem__(0, math.inf),
     "model file: 'X' is not a non-empty array of"),
    ("dt", lambda m: m["payload"]["tree"].update(threshold=math.nan),
     "model file tree node: 'threshold' is not a finite number"),
    # a forest with fewer trees than n_trees loaded, then failed or voted short
    ("rf", lambda m: m["payload"].update(trees=[]), "model file: 'trees' holds 0 trees, not 8"),
    ("rf", lambda m: m["payload"]["trees"].pop(), "model file: 'trees' holds 7 trees, not 8"),
], ids=["knn-mean", "knn-scale", "dt-threshold", "dt-feature", "dt-left", "rf-label",
        "rf-class", "rf-max_depth", "rf-trees", "knn-k", "dt-min_leaf", "knn-X", "knn-y-class",
        "knn-X-width", "knn-y-rows", "rf-n_features", "rf-n_features-tree", "knn-mean-nan",
        "knn-X-inf", "dt-threshold-nan", "rf-no-trees", "rf-trees-short"])
def test_evaluate_rejects_mistyped_model_contents(workspace, tmp_path, capsys,
                                                  kind, damage, message):
    root = workspace
    model = tmp_path / "model.json"
    assert run_cli("train", "--data", root / "train.csv", "--schema", root / "schema.json",
                   "--model", kind, "--cv-folds", "3", "--grid", root / "grid.json",
                   "--out", model) == EXIT_OK
    body = json.loads(model.read_text())
    assert (kind == "knn") == (body["stats"] is not None)
    damage(body)
    model.write_text(json.dumps(body))
    capsys.readouterr()
    assert run_cli("evaluate", "--model", model, "--data", root / "test.csv",
                   "--schema", root / "schema.json") == EXIT_DATA
    assert message in capsys.readouterr().err


def test_report_rejects_a_matrix_file_without_cells(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"format": "cadaug-matrix", "version": 1}))
    capsys.readouterr()
    assert run_cli("report", "--matrix", matrix, "--out", tmp_path / "r") == EXIT_DATA
    assert "matrix file: missing key 'accuracy'" in capsys.readouterr().err


def complete_matrix():
    """A matrix file holding exactly the keys the report reads."""
    provenances = ("unbalanced", "balanced", "augmented")
    return {
        "format": "cadaug-matrix",
        "version": 1,
        "models": ["knn"],
        "accuracy": [
            {"model": "knn", "trained_on": tr, "tested_on": te, "accuracy": 0.5}
            for tr in provenances for te in provenances
        ],
        "dataset_summary": {
            f"{role}_{p}": {"rows": 6, "class_counts": [1] * 6}
            for role in ("train", "test") for p in provenances
        },
        "baseline": {p: 0.25 for p in provenances},
        "feature_counts": {"raw": 384, "distinct": 100},
        "improvements": {"balanced_vs_unbalanced_pct": None},
        "seed": 1,
        "labeller": "sotd",
    }


def test_report_renders_a_complete_matrix_file(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(complete_matrix()))
    assert run_cli("report", "--matrix", matrix, "--out", tmp_path / "r") == EXIT_OK
    assert "| knn | **0.500000** |" in (tmp_path / "r" / "report.md").read_text()


def _drop_cell(data):
    data["accuracy"] = [c for c in data["accuracy"]
                        if (c["trained_on"], c["tested_on"]) != ("unbalanced", "balanced")]


@pytest.mark.parametrize("damage, message", [
    (_drop_cell, "matrix file: no accuracy cell ('knn', 'unbalanced', 'balanced')"),
    (lambda d: d["dataset_summary"].pop("test_augmented"),
     "matrix file dataset_summary: missing key 'test_augmented'"),
    (lambda d: d["dataset_summary"]["train_balanced"].pop("rows"),
     "matrix file dataset_summary train_balanced: missing key 'rows'"),
    (lambda d: d["feature_counts"].pop("distinct"),
     "matrix file feature_counts: missing key 'distinct'"),
    (lambda d: d["baseline"].pop("augmented"), "matrix file baseline: missing key 'augmented'"),
    (lambda d: d["baseline"].update(balanced="0.3"),
     "matrix file baseline: 'balanced' is not a finite number"),
    (lambda d: d["improvements"].update(balanced_vs_unbalanced_pct=[]),
     "matrix file improvements: 'balanced_vs_unbalanced_pct' is not a finite number"),
    (lambda d: d["models"].append(["rf"]),
     "matrix file: no accuracy cell (['rf'], 'unbalanced', 'unbalanced')"),
], ids=["cell", "summary", "rows", "feature-count", "baseline", "baseline-type",
        "improvement-type", "model-type"])
def test_report_names_what_a_matrix_file_lacks(tmp_path, capsys, damage, message):
    data = complete_matrix()
    damage(data)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("report", "--matrix", matrix, "--out", tmp_path / "r") == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("meta, message", [
    ([], "not a JSON object"),
    ({"provenance": 5}, "'provenance' is not a string"),
    ({"role": None}, "'role' is not a string"),
    ({"seed": "4"}, "'seed' is not an integer"),
    ({"mode": 1}, "'mode' is not a string"),
], ids=["list", "provenance", "role", "seed", "mode"])
def test_augment_names_a_mistyped_dataset_sidecar(workspace, tmp_path, capsys,
                                                  meta, message):
    data = tmp_path / "train.csv"
    data.write_bytes((workspace / "train.csv").read_bytes())
    (tmp_path / "train.meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run_cli("augment", "--data", data, "--schema", workspace / "schema.json",
                   "--out", tmp_path / "aug.csv") == EXIT_DATA
    err = capsys.readouterr().err
    assert f"dataset sidecar {tmp_path / 'train.meta.json'}: {message}" in err
    assert not (tmp_path / "aug.csv").exists()


def test_run_skips_a_script_whose_id_holds_a_comma(workspace, tmp_path, caplog):
    # an id is the first, unquoted field of every CSV row
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    decls = "(declare-fun x () Real)(declare-fun y () Real)(declare-fun z () Real)"
    (corpus / "a,b.smt2").write_text(decls + "(assert (> (+ (* x x x) (* y z)) 1))")
    out = tmp_path / "run"
    assert run_cli("run", "--input", corpus, "--models", "knn", "--cv-folds", "3",
                   "--grid", workspace / "grid.json", "--out", out) == EXIT_OK
    assert any(rec.getMessage().startswith("skipping a,b: ") for rec in caplog.records)
    assert "a,b" not in (out / "instances.jsonl").read_text()
    assert run_cli("featurize", "--instances", out / "instances.jsonl",
                   "--schema", out / "schema.json", "--labels", out / "labels.csv",
                   "--out", tmp_path / "direct.csv") == EXIT_OK
    for role in ("train", "test"):
        assert run_cli("split", "--data", out / "datasets" / f"{role}_unbalanced.csv",
                       "--schema", out / "schema.json",
                       "--out-train", tmp_path / "tr.csv",
                       "--out-test", tmp_path / "te.csv") == EXIT_OK


def test_label_keeps_same_stem_files_apart(tmp_path):
    corpus = tmp_path / "corpus"
    decls = "(declare-fun x () Real)(declare-fun y () Real)(declare-fun z () Real)"
    for sub, body in (("a", "(+ (* x x) y)"), ("b", "(- (* y z) x)")):
        (corpus / sub).mkdir(parents=True)
        (corpus / sub / "p.smt2").write_text(decls + f"(assert (> {body} z))")
    assert run_cli("ingest", "--input", corpus, "--out", tmp_path / "i.jsonl") == EXIT_OK
    assert run_cli("label", "--instances", tmp_path / "i.jsonl",
                   "--out", tmp_path / "labels.csv") == EXIT_OK
    rows = (tmp_path / "labels.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["a/p", "b/p"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_features_are_data_errors(workspace, tmp_path, capsys, value):
    root = workspace
    lines = (root / "train.csv").read_text().splitlines()
    header, first = lines[0].split(","), lines[1].split(",")
    first[3] = value
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
    train = ("train", "--schema", root / "schema.json", "--model", "dt", "--cv-folds", "3",
             "--grid", root / "grid.json", "--out", tmp_path / "dt.json")
    capsys.readouterr()
    assert run_cli(*train, "--data", bad) == EXIT_DATA
    message = capsys.readouterr().err
    assert f"row for {first[0]}: {header[3]} is" in message and "not a finite number" in message
    assert run_cli(*train, "--data", root / "train.csv") == EXIT_OK
    assert run_cli("evaluate", "--data", bad, "--schema", root / "schema.json",
                   "--model", tmp_path / "dt.json") == EXIT_DATA


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_blas_to_one_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import os, cadaug; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == expected
