"""The host's speed, sampled while a measured region runs.

On a shared host the same code can take twice as long from one minute to
the next: the virtual CPU switches between a fast and a slow state many
times a second, and the share of time spent in each drifts over minutes.
No statistic of raw times taken within one run removes that drift.

So the benchmark measures the host alongside the program.  A
``SpeedProbe`` interrupts the measured region every ``PERIOD_S`` seconds
(``SIGALRM``) and runs one reference unit: fixed code of the benchmark's
own, not of the program, that does what the program's hot loops do:
products of sparse polynomials with big integer coefficients (``poly``,
for sotd labelling) or those and a sort-and-prefix-sum split scan in
numpy (``mixed``, for an experiment).  A unit is matched to its
workload because the two kinds of code do not slow down by the same
amount.  The time spent in samples is taken out of the region's wall and
CPU time.  The mean sample duration, against the unit's reference
duration, says how fast the host ran during exactly that region, and
``factor`` rescales a measured time to reference seconds:
the time the region would have taken with the host at reference speed.
A change to the program moves a rescaled time by as much as it moves the
raw one; a change of the host's state moves the samples too, and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["PERIOD_S", "REFERENCE_UNITS", "IdleProbe", "SpeedProbe", "calibrate"]

PERIOD_S = 0.05

_rng = np.random.default_rng(20240817)
_SCAN_X = _rng.integers(0, 13, size=(120, 24)).astype(np.float64)
_SCAN_Y = _rng.integers(0, 6, size=120)
_CLASSES = np.arange(6)


def _sparse_poly(n_terms: int, step: int, big: int, sign: int) -> dict[int, int]:
    return {
        (i * step) | ((i % (step + 2)) << 21) | ((i % (step + 4)) << 42): (big + sign * i) * (i + 1)
        for i in range(n_terms)
    }


def _poly_product(a: dict[int, int], b: dict[int, int]) -> int:
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = out.get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return len(out)


def _split_scan() -> float:
    total = 0.0
    for start in range(0, 24, 3):
        sub = _SCAN_X[start:]
        order = np.argsort(sub, axis=0, kind="stable")
        onehot = _SCAN_Y[start:][order][:, :, None] == _CLASSES[None, None, :]
        counts = np.cumsum(onehot, axis=0, dtype=np.int32).astype(np.float64)
        total += float((counts**2).sum())
    return total


_POLY_SMALL = (_sparse_poly(60, 3, 10**18, 1), _sparse_poly(60, 5, 10**17, -1))
_POLY_LARGE = (_sparse_poly(80, 3, 10**18, 1), _sparse_poly(80, 5, 10**17, -1))


def _poly_unit() -> None:
    """Interpreted big-integer arithmetic only, as in sotd labelling."""
    _poly_product(*_POLY_LARGE)


def _mixed_unit() -> None:
    """Half interpreted big-integer arithmetic, half small numpy calls, as
    in an experiment that labels and trains."""
    _poly_product(*_POLY_SMALL)
    _split_scan()


# kind -> (unit, its mean duration in seconds on the baseline machine, a
# 2-vCPU Intel Xeon KVM guest, over its fast and slow states); the
# duration is the scale of every time rescaled with that unit
REFERENCE_UNITS = {
    "poly": (_poly_unit, 0.0040),
    "mixed": (_mixed_unit, 0.0050),
}


class SpeedProbe:
    """Samples the host's speed during ``with probe:`` blocks.

    ``wall_s`` and ``cpu_s`` are the time spent in samples, to subtract
    from the block's own figures; ``factor`` turns a time measured in the
    blocks into reference seconds.  Usable for one thread of one process:
    signal handlers run in the main thread, between bytecodes.
    """

    def __init__(self, kind: str = "mixed", period_s: float = PERIOD_S) -> None:
        self.unit, self.unit_s = REFERENCE_UNITS[kind]
        self.period_s = period_s
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        self.unit()
        wall1 = time.perf_counter()
        self.samples.append(wall1 - wall0)
        # re-armed only now, so that the program always gets a full period
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        self.cpu_s += time.process_time() - cpu0
        self.wall_s += time.perf_counter() - wall0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        """Reference seconds per measured second; 1 without samples."""
        if not self.samples:
            return 1.0
        return self.unit_s / statistics.fmean(self.samples)


class IdleProbe(SpeedProbe):
    """A probe that takes no samples: nothing to subtract, factor 1."""

    def __enter__(self) -> "IdleProbe":
        return self

    def __exit__(self, *exc) -> None:
        pass


def calibrate(kind: str, seconds: float) -> float:
    """Reference seconds per measured second, from back-to-back reference
    units for about ``seconds``."""
    unit, unit_s = REFERENCE_UNITS[kind]
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        unit()
        samples.append(time.perf_counter() - start)
    return unit_s / statistics.fmean(samples)
