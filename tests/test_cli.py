"""CLI verb and exit-code tests (driven through cadaug.cli.main)."""

import json

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
                 {"dt": [{"max_depth": 4.0}]}, {"rf": [{"n_trees": True}]}):
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
