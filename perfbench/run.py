"""cadaug benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload label-sotd --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the workload runs as a closed loop of rounds (one
operation at a time, no worker threads) until ``--seconds`` is used up,
and the end-to-end metrics are medians over rounds, with times rescaled
to reference seconds by a speed probe (``speed.py``).  With ``--trace 1``
it runs one untraced and one traced round on the same inputs and reports
per-layer metrics, the tracing overhead and fixed-input timings of the
bottom layers; the spans are written to ``.perfbench/traces/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cadaug benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cadaug" / "__init__.py").is_file():
        print(f"error: the cadaug sources are not under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import measure, unit_of
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = STATE / f"work-{workload.name}-{os.getpid()}"
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work, STATE / "traces")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, value in {**result["metrics"], **result["extra"]}.items():
        print(f"{name} {value} {unit_of(name, value)}".rstrip())
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name, value)}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
