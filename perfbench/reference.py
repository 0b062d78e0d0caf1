"""Traced reference run of the full acceptance experiment.

    python3 perfbench/reference.py

450 synthetic instances from corpus seed 20240817, run seed 42, exact
balancing, default grids (100 trees per forest), with the benchmark's
tracing on.  It takes about ten minutes on two cores, so it is not a gated
workload; it ties the benchmark's layers to the experiment the paper
reports.  Prints per-layer figures and the balanced-test accuracies, and
writes the spans to ``.perfbench/traces/reference.json``.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
STATE = HERE.parent / ".perfbench"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cadaug import pipeline  # noqa: E402
from cadaug.synth import synthesize_corpus  # noqa: E402

from harness import unit_of  # noqa: E402
from inputs import BASE_SEED  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402


def main() -> int:
    work = STATE / "reference"
    shutil.rmtree(work, ignore_errors=True)
    synthesize_corpus(work / "corpus", 450, BASE_SEED)
    config = pipeline.ExperimentConfig(
        input_dir=work / "corpus", out_dir=work / "out", labeller="sotd", balance_mode="exact", seed=42
    )
    tracer = Tracer()
    start = time.perf_counter()
    with instrument(tracer), tracer.span("pipeline.run_pipeline", run="reference"):
        matrix = pipeline.run_pipeline(config)
    wall_s = time.perf_counter() - start
    tracer.write(STATE / "traces" / "reference.json", {"workload": "reference", "wall_s": wall_s})
    print(f"wall_s {wall_s} s")
    for name, value in layer_metrics(tracer, wall_s).items():
        print(f"{name} {value} {unit_of(name, value)}")
    for model in matrix.models:
        cells = " ".join(f"{m}={matrix.cell(model, m, 'balanced'):.4f}" for m in ("unbalanced", "balanced", "augmented"))
        print(f"balanced-test accuracy {model}: {cells}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
