"""Set-up, the closed loop and the metrics of one benchmark run."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cadaug import kernels

from micro import micro_metrics
from speed import calibrate
from tracing import Tracer, instrument, layer_metrics
from workloads import Round, s3_check

__all__ = ["SETUP_REPEATS", "measure", "unit_of", "warm_up"]

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
CALIBRATE_S = 0.25  # host speed measured before and after each set-up
CHILD_TIMEOUT_S = 150  # a whole run must end within 180 s


def _fresh_import() -> None:
    """Import the pipeline in a fresh interpreter, as every CLI run does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import cadaug.pipeline"], env=env, check=True, timeout=60)


WARM_UP_SCRIPT = """(declare-fun x1 () Real) (declare-fun x2 () Real) (declare-fun x3 () Real)
(assert (> (+ (* x1 x1) x2 (- 1)) 0)) (assert (< (* x2 x3 x3) x1))"""


def warm_up() -> None:
    """Run the parser, the labeller and a tree fit once on tiny inputs so
    that first-call costs are not timed."""
    import numpy as np
    from cadaug import labelling, smtlib
    from cadaug.ml import DecisionTreeClassifier

    labelling.label_by_sotd(smtlib.parse_script(WARM_UP_SCRIPT, "warm-up"))
    X = np.arange(24, dtype=np.float64).reshape(12, 2)
    DecisionTreeClassifier().fit(X, np.arange(12) % 3)


def _setup(workload, seed: int, work: Path) -> tuple[float, float, dict]:
    """Median over SETUP_REPEATS of import + input generation + warm-up,
    in reference seconds and as measured.  A set-up starts a process of
    its own, which a speed probe cannot follow, so the host's speed is
    measured just before and just after each one instead."""
    raw, scaled, inputs = [], [], None
    before = calibrate(workload.reference, CALIBRATE_S)
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        _fresh_import()
        inputs = workload.prepare(seed, work / f"setup{k}")
        warm_up()
        raw.append(time.perf_counter() - start)
        after = calibrate(workload.reference, CALIBRATE_S)
        scaled.append(raw[-1] * (before + after) / 2)
        before = after
    return statistics.median(scaled), statistics.median(raw), inputs


def _round_in_child(workload, inputs: dict) -> tuple[Round, float]:
    """One round in a fresh interpreter; returns it with the child's peak RSS."""
    payload = {k: str(v) if isinstance(v, Path) else v for k, v in inputs.items() if k != "instances"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload.name, json.dumps(payload)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        problem = f"round process killed after {CHILD_TIMEOUT_S} s"
    else:
        if proc.returncode == 0:
            data = json.loads(proc.stdout.strip().splitlines()[-1])
            rss_mb = data.pop("rss_mb")
            return Round(**data), rss_mb
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        problem = f"round process exited with code {proc.returncode}: {last}"
    failed = Round(time.perf_counter() - start, 0.0, attempted=1)
    failed.fail(problem)
    return failed, 0.0


def _percentile_ms(values: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(values, n=10)[q - 1]


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, trace_dir: Path) -> dict:
    """Run one workload; return its metrics, extra figures, counts and problems."""
    setup_s, raw_setup_s, inputs = _setup(workload, seed, work)
    n_checks, problems = s3_check(inputs["instances"], seed)
    if not trace:
        rounds, rss, elapsed = [], [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            r, rss_mb = _round_in_child(workload, inputs)
            rounds.append(r)
            rss.append(rss_mb)
            elapsed.append(time.perf_counter() - round_start)
            if time.perf_counter() - start + statistics.median(elapsed) > seconds:
                break
        clean = [r for r in rounds if not r.failed] or rounds
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall_s * r.ref_factor for r in clean),
            "cpu_s": statistics.median(r.cpu_s * r.ref_factor for r in clean),
            "peak_rss_mb": statistics.median(rss),
        }
        round_figures = {
            "raw_setup_s": raw_setup_s,
            "raw_wall_s": statistics.median(r.wall_s for r in clean),
            "raw_cpu_s": statistics.median(r.cpu_s for r in clean),
            "host_speed": statistics.median(r.ref_factor for r in clean),
            "speed_samples": sum(r.speed_samples for r in rounds),
            "round_walls_s": " ".join(f"{r.wall_s * r.ref_factor:.3f}" for r in rounds),
            "round_raw_walls_s": " ".join(f"{r.wall_s:.3f}" for r in rounds),
        }
        latencies = [x for r in rounds for x in r.latencies_s]
    else:
        untraced = workload.run(inputs)
        tracer = Tracer()
        with instrument(tracer):
            traced = workload.run(inputs, tracer)
        rounds = [untraced, traced]
        metrics = layer_metrics(tracer, traced.wall_s)
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        metrics["io.bytes"] = traced.io_bytes
        metrics["ml.acc_aug_bal"] = traced.acc_aug_bal or 0.0
        metrics["kernels.backend_compiled"] = 1 if kernels.BACKEND == "c" else 0
        metrics.update(micro_metrics())
        tracer.write(
            trace_dir / f"{workload.name}-seed{seed}.json",
            {"workload": workload.name, "seed": seed, "backend": kernels.BACKEND,
             "wall_s": traced.wall_s, "untraced_wall_s": untraced.wall_s},
        )
        latencies = untraced.latencies_s
        round_figures = {}
    for r in rounds[1:]:
        if r.digests != rounds[0].digests:
            r.fail("outputs differ between rounds on identical inputs")
    attempted = n_checks + sum(r.attempted for r in rounds)
    failed = len(problems) + sum(r.failed for r in rounds)
    problems += [p for r in rounds for p in r.problems]
    extra: dict[str, float | str] = {"rounds": len(rounds), "failed_frac": failed / attempted}
    if len(latencies) >= 2:
        extra["label_ms_p50"] = _percentile_ms(latencies, 5)
        extra["label_ms_p90"] = _percentile_ms(latencies, 9)
        extra["label_samples"] = len(latencies)
    if rounds[0].acc_aug_bal is not None:
        extra["acc_aug_bal"] = rounds[0].acc_aug_bal
    for name, digest in rounds[0].digests.items():
        extra[f"{name}_sha256"] = digest
    extra["kernels_backend"] = kernels.BACKEND
    extra.update(round_figures)
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed, "problems": problems}


# unit by name suffix, first match wins
UNITS = (("_per_s", "1/s"), ("_s", "s"), ("host_speed", "ratio"), ("_us", "us"), ("_ms", "ms"),
         ("_p50", "ms"), ("_p90", "ms"), ("_mb", "MB"), ("bytes", "bytes"), ("share", "frac"),
         ("acc_aug_bal", "frac"), ("_frac", "frac"))


def unit_of(name: str, value=None) -> str:
    if isinstance(value, str):
        return ""
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "frac" if name.startswith("share.") else "count"
