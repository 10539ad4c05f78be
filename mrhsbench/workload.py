"""What every workload shares: output-check accounting, the recorder
hook, and the interleaved MRHS/original unit loop."""

from __future__ import annotations

import contextlib
import gc
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from protocol import interleave, median, quartiles, spread
from hostspeed import HostClock
from spans import SpanRecorder


class Checks:
    """Every output check is one attempted operation; a wrong output is
    a failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


class Workload:
    """Base class.  Subclasses define ``setup``, ``measure`` and
    ``count_pass``; the runner calls them in this order:

    ``setup`` several times (timed, the last result is kept), then
    ``measure`` for the timed window, or, in the traced run,
    ``count_pass`` three times from one ``snapshot``.
    """

    name = ""
    setup_reps = 3
    """Set-ups per timed run; ``setup_s`` is their median."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.checks = Checks()
        self.rec: Optional[SpanRecorder] = None
        self.clock: Optional[HostClock] = None
        """Set for timed runs: reported times are read from it."""

    # -- hooks ----------------------------------------------------------
    def prepare_checks(self, work: Path) -> None:
        """Reference outputs computed once, outside the timed set-up."""

    def setup(self, work: Path) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what ``setup`` opened."""

    def measure(self, state: Any, seconds: float) -> Dict[str, float]:
        raise NotImplementedError

    def snapshot(self, state: Any) -> Any:
        return None

    def restore(self, state: Any, snap: Any) -> None:
        """Return ``state`` to ``snap`` so a pass repeats the same work."""

    def count_pass(self, state: Any, tag: str) -> Dict[str, Any]:
        """A fixed amount of work; returns unit times and the counts the
        workload measures itself."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------
    def checking(self):
        """Context for an output check: timed as one benchmark span in
        the traced run, with the program calls inside it unrecorded."""
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.paused("bench.check")

    def stamp(self) -> float:
        """A time reading at an interval boundary: reference-speed time
        just after a calibration, or wall time without a clock."""
        if self.clock is None:
            return time.perf_counter()
        self.clock.calibrate()
        return self.clock.reading

    def label(self, unit: str) -> None:
        if self.rec is not None:
            self.rec.unit = unit


class PairedWorkload(Workload):
    """Workloads whose timed window alternates an MRHS unit and an
    original-algorithm unit of ``m`` steps each."""

    m: int
    """Steps per unit."""
    pairs_per_pass: int
    """Pairs in one traced count pass."""
    min_pairs = 3

    def run_unit(self, state: Any, side: str) -> Any:
        """Run one unit; returns what ``check_unit`` needs."""
        raise NotImplementedError

    def check_unit(self, state: Any, side: str, out: Any) -> None:
        raise NotImplementedError

    def check_pair(self, state: Any) -> None:
        """A check once both sides have run the same inputs."""

    def warm_up(self, state: Any) -> None:
        for side in interleave(0):
            self.check_unit(state, side, self.run_unit(state, side))
        self.check_pair(state)

    def pairs(self, state: Any, tag: str, *, n_pairs: int = 0,
              seconds: float = 0.0, outs: Optional[list] = None,
              raw: Optional[Dict[str, List[float]]] = None,
              ) -> Dict[str, List[float]]:
        """Interleaved pairs: ``n_pairs`` of them, or as many as start
        within ``seconds`` (at least ``min_pairs``).  Returns the unit
        times per side; ``outs`` collects ``(side, unit output)`` and
        ``raw`` the unscaled wall times per side."""
        times: Dict[str, List[float]] = {"mrhs": [], "orig": []}
        gc.collect()
        t0 = time.perf_counter()
        i = 0
        while (i < n_pairs if n_pairs else
               i < self.min_pairs or time.perf_counter() - t0 < seconds):
            for side in interleave(i):
                self.label(f"{tag}{i}.{side}")
                start = self.stamp()
                wall = time.perf_counter()
                out = self.run_unit(state, side)
                wall = time.perf_counter() - wall
                times[side].append(self.stamp() - start)
                if raw is not None:
                    raw.setdefault(side, []).append(wall)
                if outs is not None:
                    outs.append((side, out))
                with self.checking():
                    self.check_unit(state, side, out)
            with self.checking():
                self.check_pair(state)
            i += 1
        self.label("")
        return times

    def measure(self, state: Any, seconds: float) -> Dict[str, float]:
        raw: Dict[str, List[float]] = {}
        times = self.pairs(state, "w", seconds=seconds, raw=raw)
        for side, ts in times.items():
            q1, q2, q3 = quartiles(ts)
            print(f"# {side} unit s over {len(ts)} units: q1 {q1:.4f} median {q2:.4f} "
                  f"q3 {q3:.4f}, spread {spread(ts):.3f} "
                  f"({' '.join(f'{t:.3f}' for t in ts)})")
            print(f"# {side} raw wall: median unit {median(raw[side]):.4f} s, "
                  f"{self.m / median(raw[side]):.4f} steps/s")
        return {
            "steps_per_s": self.m / median(times["mrhs"]),
            "orig_steps_per_s": self.m / median(times["orig"]),
        }
