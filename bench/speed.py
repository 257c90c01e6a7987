"""A speed probe that scales timings to a fixed reference machine speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, as other tenants' load comes and goes. The drift moves every
timing in a run together. So before every op the harness times a fixed piece
of Python and numpy work that never touches ``hh_bounds``. An op's speed
factor is REFERENCE_S over the mean probe time around it. A timing times
its factor reads as the time on a machine where the probe takes REFERENCE_S.

On a 2-core shared host, ten repeats of one batch of ``bounds`` commands
varied with a coefficient of variation of 0.22. The probe-scaled times
varied with 0.055.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Typical probe time on the reference machine: a 2-core Intel Xeon with
#: Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 1.2e-3
#: A probe reading is the fastest of this many runs of the work; the first
#: run after an op is slowed by caches the op evicted.
REPEATS = 3
#: Probes this many seconds either side of an op also count towards its factor.
MARGIN_S = 1.0


class Probe:
    """Takes one probe reading per call and keeps (end time, seconds)."""

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 65_536)
        self.history: list[tuple[float, float]] = []

    def _work(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(4000):
            acc += (i * 0.5) ** 0.5
        for _ in range(10):
            acc += float(np.exp(self._x).sum())
        return time.perf_counter() - t0

    def __call__(self) -> float:
        reading = min(self._work() for _ in range(REPEATS))
        self.history.append((time.perf_counter(), reading))
        return reading

    def factors(self, spans: list[tuple[float, float]]) -> list[float]:
        """Speed factor of each (start, end) span from the probes around it."""
        times = [t for t, _ in self.history]
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(times, start - MARGIN_S)
            hi = bisect.bisect_right(times, end + MARGIN_S)
            out.append(REFERENCE_S / statistics.fmean(s for _, s in self.history[lo:hi]))
        return out
