"""A clock that runs at a fixed reference host speed.

The benchmark shares a 2-vCPU host with other tenants, and the host's
speed for the same code drifts by 30% and more within minutes (measured:
one closed-loop service rate fell from 7.5 to 4.3 jobs/s over ten runs
of identical code).  Medians over a run cannot remove a drift that
outlasts the run, so every time the benchmark reports is read from this
clock instead of the raw wall clock: between units of work it times a
fixed reference kernel that does not touch the program under test
(Python dict updates, a NumPy gather and sort over ~1.6 MB, a 400x400
matrix product) and scales the wall time elapsed since the previous
calibration by ``REFERENCE_S / kernel time``, averaged over the two
calibrations that bound it.  Time spent calibrating is left out.  On a
host where the kernel takes ``REFERENCE_S`` the clock equals wall time.

A kernel run during which another thread of this process used CPU is
discarded: that slowdown is the program's own (a background checkpoint
writer, say) and must show in the reported times, not be scaled away.
A calibration whose every run is discarded keeps the previous factor.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Optional

import numpy as np

REFERENCE_S = 0.006
"""Kernel time that defines the reference host speed (close to the
kernel's time on the quiet host the bounds were set on)."""

REPS = 3
"""Kernel runs per calibration; the factor uses their mean."""

OTHER_THREADS_CPU_FRAC = 0.02
"""A kernel run is discarded when the process's other threads used more
CPU than this share of the run's wall time."""


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20120521)
        self.matrix = rng.standard_normal((400, 400))
        self.values = rng.standard_normal(200_000)
        self.index = rng.integers(0, 200_000, 200_000)
        self.keys = list(range(20_000))

    def seconds(self) -> float:
        """Wall time of one fixed mix of interpreter, gather and BLAS work."""
        t0 = time.perf_counter()
        table = {}
        for k in self.keys:
            table[k & 1023] = k
        gathered = self.values[self.index]
        gathered.sort()
        self.matrix @ self.matrix
        return time.perf_counter() - t0


class HostClock:
    """Reference-speed time.  :meth:`calibrate` ends one interval of wall
    time and converts it; :attr:`reading` is the reference time at the
    end of the last calibration, and :meth:`reference` converts a raw
    ``time.perf_counter()`` reading that an earlier and a later
    calibration bound.  There is no reading between calibrations, so the
    clock never jumps when a calibration rescales an interval.  With
    ``scaled=False`` :meth:`reference` gives the unscaled wall time with
    the calibrations left out, for reporting raw rates beside the
    scaled ones."""

    def __init__(self, kernel: Optional[ReferenceKernel] = None) -> None:
        self.kernel = kernel or ReferenceKernel()
        self.factors: List[float] = []
        """Every accepted factor, for the report."""
        self.dropped = 0
        """Calibrations all of whose kernel runs were discarded."""
        factor = self._measure()
        if factor is None:
            raise RuntimeError("another thread used CPU during the first calibration")
        self._factor = factor
        self.reading = 0.0
        self._since = time.perf_counter()
        self._wall = 0.0
        # Interval i: wall [_starts[i], _ends[i]) maps to reference time
        # _readings[i] + (wall - _starts[i]) * _scales[i], and to
        # calibration-free wall time _walls[i] + (wall - _starts[i]).
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._readings: List[float] = []
        self._walls: List[float] = []
        self._scales: List[float] = []

    def _measure(self) -> Optional[float]:
        runs = []
        for _ in range(REPS):
            cpu0, own0 = time.process_time(), time.thread_time()
            seconds = self.kernel.seconds()
            other = (time.process_time() - cpu0) - (time.thread_time() - own0)
            if other <= OTHER_THREADS_CPU_FRAC * seconds:
                runs.append(seconds)
        if not runs:
            self.dropped += 1
            return None
        factor = REFERENCE_S * len(runs) / sum(runs)
        self.factors.append(factor)
        return factor

    def calibrate(self) -> None:
        end = time.perf_counter()
        factor = self._measure()
        if factor is None:
            factor = self._factor
        scale = 0.5 * (self._factor + factor)
        self._starts.append(self._since)
        self._ends.append(end)
        self._readings.append(self.reading)
        self._walls.append(self._wall)
        self._scales.append(scale)
        self.reading += (end - self._since) * scale
        self._wall += end - self._since
        self._factor = factor
        self._since = time.perf_counter()

    def reference(self, wall: float, scaled: bool = True) -> float:
        """The reference time of raw wall reading ``wall``; it must lie
        before the last calibration."""
        i = bisect.bisect_right(self._starts, wall) - 1
        if i < 0 or wall > self._ends[-1]:
            raise ValueError("wall reading not bounded by two calibrations")
        offset = min(wall, self._ends[i]) - self._starts[i]
        if not scaled:
            return self._walls[i] + offset
        return self._readings[i] + offset * self._scales[i]
