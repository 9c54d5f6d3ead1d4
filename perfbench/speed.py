"""Speed sampling: time measured work in reference-speed seconds.

On shared hosts the same work runs at two or more speeds that switch every
few seconds and differ by up to 1.8x, separately on each core, so medians of
raw wall times do not repeat.  `Sampler` runs a short fixed kernel from a
SIGALRM handler every INTERVAL_S of wall time, on the same core and in the
same process as the measured work.  Its `clock` excludes the kernel's own
time, and `speed_over(a, b)` is the time average of the speed factor over
the samples taken in that `clock` interval: multiplying the interval's
length by it gives the seconds the work would take while the core runs at
the reference speed.

The speed changes move Python-level work by more than dense LAPACK work
(about 1.8x against 1.35x), so the kernel times one of each and `factor`
weighs the two by the share of the measured work spent in dense linear
algebra, which each workload states (workloads.LINALG_SHARE).
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.5
# the kernel parts' median durations on the 2-core Xeon VM the benchmark was
# defined on, at its slower and more common speed; they only fix the scale
# of every reported time
REFERENCE_LINALG_S = 0.0063
REFERENCE_PYTHON_S = 0.0046

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((160, 160))
_ROW = _RNG.standard_normal(200)
# bound at import, before the tracer wraps numpy.linalg.svd, so that samples
# taken during a solve never count as solver SVDs
_SVD = np.linalg.svd


def kernel() -> tuple[float, float]:
    """Seconds for (one dense SVD, a Python loop over small arrays plus float
    formatting): the kinds of work the package spends its time in.  It uses
    numpy and the standard library only, so a change to the package changes
    none of its work; whether the scaled times still move by the true size
    of a change is checked in tests/test_perfbench.py."""
    t0 = time.perf_counter()
    _SVD(_MATRIX, full_matrices=False)
    t1 = time.perf_counter()
    for i in range(400):
        int(np.argmax(_ROW + i))
    ",".join(format(i * 0.1234567, ".17g") for i in range(2000))
    return t1 - t0, time.perf_counter() - t1


def factor(parts: tuple[float, float], linalg_share: float) -> float:
    """Reference seconds per measured second, while the kernel's parts took
    `parts`, of work that spends `linalg_share` of its time in dense linear
    algebra."""
    linalg_s, python_s = parts
    slowdown = linalg_share * linalg_s / REFERENCE_LINALG_S
    return 1.0 / (slowdown + (1.0 - linalg_share) * python_s / REFERENCE_PYTHON_S)


class Sampler:
    def __init__(self, linalg_share: float):
        self.linalg_share = linalg_share
        self.samples: list[tuple[float, float]] = []
        self.times: list[float] = []  # `clock` reading as each sample began
        self.paused = 0.0
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.times.append(t0 - self.paused)
        self.samples.append(kernel())
        self.paused += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter seconds minus the time spent sampling."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def speed_over(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean speed factor of the samples taken in [start, end); with none
        there, of the sample nearest the interval's middle."""
        inside = [s for t, s in zip(self.times, self.samples) if start <= t < end]
        if not inside:
            mid = (start + end) / 2
            inside = [min(zip(self.times, self.samples), key=lambda ts: abs(ts[0] - mid))[1]]
        return sum(factor(s, self.linalg_share) for s in inside) / len(inside)
