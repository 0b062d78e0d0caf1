"""Run one round of a workload in a fresh interpreter.

    python3 perfbench/child.py <workload> '<inputs as JSON>'

Started by the benchmark once per round, so that nothing the program
keeps in memory carries over from one round to the next.  A speed probe
samples the host during the round.  Prints the round's measurements as
one JSON object.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from harness import warm_up  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import PATH_KEYS, WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    workload = WORKLOADS[argv[0]]
    inputs = {k: Path(v) if k in PATH_KEYS and v is not None else v for k, v in json.loads(argv[1]).items()}
    warm_up()
    result = dataclasses.asdict(workload.run(inputs, probe=SpeedProbe(workload.reference)))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
