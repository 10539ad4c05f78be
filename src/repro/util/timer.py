"""Wall-clock timing helpers.

:class:`Stopwatch` accumulates named phase durations; the MRHS driver
uses one to produce the per-phase breakdowns of Tables VI and VII
("Cheb vectors", "Calc guesses", "Cheb single", "1st solve", "2nd solve").
:class:`TimingRecord` is the immutable result of one timing session.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Set


@dataclass(frozen=True)
class TimingRecord:
    """Immutable snapshot of accumulated phase timings (seconds)."""

    phases: Mapping[str, float]
    counts: Mapping[str, int]

    def total(self) -> float:
        # fsum over sorted keys: exact and independent of dict
        # insertion order.
        return math.fsum(self.phases[k] for k in sorted(self.phases))


@dataclass
class Stopwatch:
    """Accumulates wall-clock time per named phase.

    Use as::

        sw = Stopwatch()
        with sw.phase("1st solve"):
            ...

    Nested phases of *different* names are allowed and accumulate
    independently; re-entering a phase that is still running raises
    (the inner exit would double-count the overlapped wall-clock).
    """

    _elapsed: Dict[str, float] = field(default_factory=dict)
    _counts: Dict[str, int] = field(default_factory=dict)
    _active: Set[str] = field(default_factory=set)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if name in self._active:
            raise RuntimeError(
                f"Stopwatch phase {name!r} is already running; re-entrant "
                f"phase() of the same name would double-count its time"
            )
        self._active.add(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._active.discard(name)
            dur = time.perf_counter() - start
            self._elapsed[name] = self._elapsed.get(name, 0.0) + dur
            self._counts[name] = self._counts.get(name, 0) + 1

    def record(self) -> TimingRecord:
        return TimingRecord(phases=dict(self._elapsed), counts=dict(self._counts))
