"""Tests of the benchmark itself: seeded inputs, metric names, the result line.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from harness import measure
from inputs import base_corpus, experiment_corpus, label_corpus, write_corpus, write_timings_csv
from speed import REFERENCE_UNITS, IdleProbe, SpeedProbe
from workloads import WORKLOADS, Experiment, LabelSotd

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

# every metric the benchmark must report, by the workloads that report it;
# "extra" figures are printed by name and unit but are not in the result line
REQUIRED_PER_LAYER = """
kernels.kmul_calls kernels.kmul_s kernels.kdiv_exact_calls kernels.kdiv_exact_s
resultants.resultant_calls resultants.resultant_s resultants.discriminant_calls
resultants.discriminant_s resultants.repeat_share labelling.sotd_s labelling.instances
labelling.discarded labelling.over_budget labelling.top10_share labelling.timings_s
ml.train_knn_s ml.train_dt_s ml.train_rf_s ml.cv_fits ml.tree.fits ml.tree.nodes
ml.tree.fit_s ml.tree.nodes_per_s ml.forest.fit_s ml.knn.predict_s ml.eval_s
smtlib.ingest_s smtlib.files smtlib.rejected features.featurize_s features.filter_s
features.kept augment.balance_s augment.augment_s dataset.save_s selection.model_save_s
report.write_s io.bytes trace.overhead_s kernels.kmul_150_us kernels.kdiv_exact_150_us
resultants.sylvester_4_us resultants.sylvester_6_us resultants.sylvester_8_us
ml.tree.fit_2160_us
""".split()
REQUIRED_END_TO_END = {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
REQUIRED_EXTRA = {
    "label-sotd": {"failed_frac", "label_ms_p50", "label_ms_p90"},
    "experiment-timings": {"failed_frac", "acc_aug_bal"},
    "experiment-sotd": {"failed_frac", "acc_aug_bal"},
}
# raw times and the host's speed, printed beside the rescaled end-to-end metrics
UNTRACED_EXTRA = {"raw_setup_s", "raw_wall_s", "raw_cpu_s", "host_speed"}
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# the real workloads on corpora small enough for a test
SMALL = {
    "label-sotd": LabelSotd(instances=6),
    "experiment-timings": Experiment("experiment-timings", "timings", instances=30, reference="mixed"),
    "experiment-sotd": Experiment("experiment-sotd", "sotd", instances=30, reference="poly"),
}


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _label_inputs(tmp: Path, seed: int) -> dict[str, bytes]:
    base = base_corpus(tmp / "base", 12)
    write_corpus(label_corpus(base, seed), tmp / "corpus")
    return _tree_bytes(tmp / "corpus")


def _experiment_inputs(tmp: Path, seed: int) -> dict[str, bytes]:
    base = base_corpus(tmp / "base", 12)
    corpus = experiment_corpus(base, seed)
    write_corpus(corpus, tmp / "corpus")
    write_timings_csv(corpus, tmp / "timings.csv", seed)
    return {**_tree_bytes(tmp / "corpus"), "timings.csv": (tmp / "timings.csv").read_bytes()}


@pytest.mark.parametrize("make", [_label_inputs, _experiment_inputs])
def test_inputs_follow_the_seed(tmp_path, make):
    first = make(tmp_path / "a", 3)
    assert first == make(tmp_path / "b", 3)
    assert first != make(tmp_path / "c", 4)


def test_timings_table_has_timeouts_and_every_ordering(tmp_path):
    base = base_corpus(tmp_path / "base", 40)
    corpus = experiment_corpus(base, 1)
    write_timings_csv(corpus, tmp_path / "t.csv", 1)
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 * len(corpus)
    assert any(row.endswith(",TIMEOUT") for row in rows)


def test_benchmark_file_names_are_valid():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert all(w.reference in REFERENCE_UNITS for w in WORKLOADS.values())
    assert REQUIRED_END_TO_END <= END_TO_END
    assert set(REQUIRED_PER_LAYER) <= PER_LAYER


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(tmp_path, name, trace):
    result = measure(SMALL[name], 1, 0.0, trace, tmp_path / "work", tmp_path / "traces")
    assert result["failed"] == 0, result["problems"]
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    assert REQUIRED_EXTRA[name] <= set(result["extra"])
    if not trace:
        assert UNTRACED_EXTRA <= set(result["extra"])
        assert result["extra"]["speed_samples"] > 0
    if trace:
        assert (tmp_path / "traces" / f"{name}-seed1.json").is_file()


@pytest.mark.parametrize("kind", sorted(REFERENCE_UNITS))
def test_speed_probe_samples_and_subtracts(kind):
    probe = SpeedProbe(kind, period_s=0.01)
    start = time.perf_counter()
    with probe:
        while time.perf_counter() - start < 0.3:
            pass
    elapsed = time.perf_counter() - start
    assert len(probe.samples) >= 5
    assert 0 < probe.wall_s < elapsed
    assert 0 < probe.cpu_s
    assert probe.factor == pytest.approx(REFERENCE_UNITS[kind][1] / (sum(probe.samples) / len(probe.samples)))
    # the alarm is off again: nothing more is sampled
    count = len(probe.samples)
    time.sleep(0.05)
    assert len(probe.samples) == count


def test_idle_probe_changes_nothing():
    probe = IdleProbe()
    with probe:
        time.sleep(0.02)
    assert (probe.wall_s, probe.cpu_s, probe.factor, probe.samples) == (0.0, 0.0, 1.0, [])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label-sotd", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
