"""Disk/memory governor: budgets and seniority for durable artifacts.

Every durable artifact the stack writes falls into one of three
**seniority classes**, youngest evicted first under pressure:

====================  ====  =============================================
class                 rank  contents
====================  ====  =============================================
``durable``              0  job journal + snapshot, checkpoint ``.npz``
``flight``               1  flight-recorder post-mortem bundles
``telemetry``            2  trace/events/metrics streams + exports
====================  ====  =============================================

A fourth class, ``temp`` (3), is no artifact at all: the temp file of
a :func:`repro.durable.publish` in flight, or the orphan a killed one
left.  It is counted apart so litter never passes for durable state;
the owning writer's recovery removes orphans
(:func:`repro.durable.remove_orphans`).

The :class:`ResourceGovernor` never deletes class-0 artifacts and never
touches *active* stream files — :meth:`emergency_release` reclaims only
sealed telemetry segments (oldest first), then whole flight bundles
(oldest first).  Writers call it when the filesystem says ``ENOSPC``/
``EDQUOT``, giving the senior write (a checkpoint, a journal append)
one retry with reclaimed space before its own degraded ladder engages.

:class:`MemoryGuard` is the RSS-watermark counterpart: an edge-triggered
check (with hysteresis so one breach does not log every step) that the
runner and the job manager poll to shed warm state before the kernel's
OOM killer makes the decision for them.

This module deliberately imports neither :mod:`repro.io` nor
:mod:`repro.telemetry` at the top level — both sit above it in the
import graph.  The telemetry hub is attached late via
:meth:`ResourceGovernor.bind_hub`.
"""

from __future__ import annotations

import logging
import resource
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.durable import is_publish_temp
from repro.resources.rotate import sealed_segments

__all__ = [
    "CLASS_DURABLE",
    "CLASS_FLIGHT",
    "CLASS_TELEMETRY",
    "CLASS_TEMP",
    "MemoryGuard",
    "ResourceExhausted",
    "ResourceGovernor",
    "read_rss_bytes",
]

logger = logging.getLogger(__name__)

CLASS_DURABLE = 0
CLASS_FLIGHT = 1
CLASS_TELEMETRY = 2
CLASS_TEMP = 3

#: Stream stems whose files (and sealed segments) are telemetry-class.
_TELEMETRY_STEMS = ("trace", "events", "metrics")


class ResourceExhausted(RuntimeError):
    """A class-0 (durable) write failed even after emergency release.

    Raised by the checkpoint spill ladder when neither the primary
    directory nor the spill directory can take the write: at that point
    continuing would mean silently losing resumable state, so the
    failure is surfaced FATAL instead.
    """


class ResourceGovernor:
    """Budget + seniority accounting for one artifact directory tree.

    Parameters
    ----------
    directory:
        Root under which the governed artifacts live (the telemetry
        directory; checkpoints/journal may live in subtrees of it or
        beside it — classification is by name, not location).
    stream_budget:
        Default :class:`~repro.resources.rotate.StreamBudget` handed to
        rotating writers created against this governor (``None`` keeps
        streams unbounded).
    spill_dir:
        Optional failover directory for class-0 checkpoint writes.
    flight_keep:
        Flight bundles retained by the recorder's own pruning.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        stream_budget: Optional[Any] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        flight_keep: int = 8,
    ) -> None:
        if flight_keep < 1:
            raise ValueError("flight_keep must be >= 1")
        self.directory = Path(directory)
        self.stream_budget = stream_budget
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.flight_keep = int(flight_keep)
        self.releases = 0
        self.released_bytes = 0
        self._hub: Optional[Any] = None
        self._shedding: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    def bind_hub(self, hub: Any) -> None:
        """Attach the telemetry hub (late, to break the import cycle)."""
        self._hub = hub

    def _counter(self, name: str, **labels: Any):
        if self._hub is not None and getattr(self._hub, "metrics", None):
            return self._hub.metrics.counter(name, **labels)
        return None

    def _event(self, kind: str, **attrs: Any) -> None:
        if self._hub is not None:
            try:
                self._hub.emit_event("resources", kind, **attrs)
            except OSError:  # the bus itself sheds independently
                pass

    # ------------------------------------------------------------------
    # classification + usage accounting
    # ------------------------------------------------------------------
    @staticmethod
    def classify(path: Union[str, Path]) -> int:
        """Seniority class of one artifact path."""
        path = Path(path)
        if is_publish_temp(path):
            return CLASS_TEMP
        if "flight" in path.parts[:-1]:
            return CLASS_FLIGHT
        stem = path.stem.split(".")[0]
        if stem in _TELEMETRY_STEMS and path.suffix in (
            ".jsonl",
            ".json",
            ".prom",
        ):
            return CLASS_TELEMETRY
        return CLASS_DURABLE

    def usage(self) -> Dict[str, int]:
        """Bytes on disk per seniority class under ``directory``."""
        totals = {"durable": 0, "flight": 0, "telemetry": 0, "temp": 0}
        names = {CLASS_DURABLE: "durable", CLASS_FLIGHT: "flight",
                 CLASS_TELEMETRY: "telemetry", CLASS_TEMP: "temp"}
        if not self.directory.exists():
            return totals
        for entry in self.directory.rglob("*"):
            try:
                if not entry.is_file():
                    continue
                size = entry.stat().st_size
            except OSError:
                continue
            totals[names[self.classify(entry)]] += size
        return totals

    # ------------------------------------------------------------------
    # emergency release (seniority-ordered eviction)
    # ------------------------------------------------------------------
    def _sealed_telemetry_segments(self) -> List[Path]:
        """Sealed (never active) telemetry segments, oldest first."""
        out: List[Tuple[float, Path]] = []
        if not self.directory.exists():
            return []
        for stem in _TELEMETRY_STEMS:
            for active in self.directory.rglob(f"{stem}.jsonl"):
                if "flight" in active.parts:
                    continue
                for seg in sealed_segments(active):
                    try:
                        out.append((seg.stat().st_mtime, seg))
                    except OSError:
                        continue
        return [p for _, p in sorted(out, key=lambda t: (t[0], str(t[1])))]

    def _flight_bundles(self) -> List[Path]:
        flight = self.directory / "flight"
        if not flight.is_dir():
            return []
        return sorted(d for d in flight.iterdir() if d.is_dir())

    def emergency_release(self, need_bytes: Optional[int] = None) -> int:
        """Reclaim disk for a senior write; returns bytes freed.

        Evicts sealed telemetry segments oldest-first, then whole
        flight bundles oldest-first, stopping once ``need_bytes`` is
        freed (or everything junior is gone).  Class-0 artifacts and
        active stream files are never candidates.
        """
        freed = 0

        def done() -> bool:
            return need_bytes is not None and freed >= need_bytes

        for seg in self._sealed_telemetry_segments():
            if done():
                break
            try:
                size = seg.stat().st_size
                seg.unlink()
                freed += size
            except OSError:
                continue
        if not done():
            for bundle in self._flight_bundles():
                if done():
                    break
                for f in sorted(bundle.rglob("*"), reverse=True):
                    try:
                        if f.is_file():
                            freed += f.stat().st_size
                            f.unlink()
                        else:
                            f.rmdir()
                    except OSError:
                        continue
                try:
                    bundle.rmdir()
                except OSError:
                    pass
        self.releases += 1
        self.released_bytes += freed
        logger.warning(
            "emergency release reclaimed %d bytes of junior artifacts "
            "(sealed telemetry segments, then flight bundles)", freed,
        )
        counter = self._counter("resources.released_bytes")
        if counter is not None:
            counter.inc(freed)
        self._event("release", freed_bytes=freed, releases=self.releases)
        return freed

    # ------------------------------------------------------------------
    # notifications from writers (rotation / shed transitions)
    # ------------------------------------------------------------------
    def note_rotation(self, stream: str, target: Path, pruned: int) -> None:
        counter = self._counter("resources.rotations", stream=stream)
        if counter is not None:
            counter.inc()
        self._event(
            "rotate", stream=stream, segment=target.name,
            pruned_bytes=pruned,
        )

    def count_shed_line(self, stream: str) -> None:
        counter = self._counter("telemetry.shed", stream=stream)
        if counter is not None:
            counter.inc()

    def note_stream_shed(
        self, stream: str, path: Path, exc: OSError
    ) -> None:
        self._shedding[stream] = True
        self._event(
            "stream_shed", stream=stream, path=str(path),
            error=str(exc),
        )

    def note_stream_recovered(self, stream: str) -> None:
        self._shedding.pop(stream, None)
        self._event("stream_recovered", stream=stream)

    def note_flight_shed(self, reason: str, exc: OSError) -> None:
        counter = self._counter("resources.flight_shed")
        if counter is not None:
            counter.inc()
        logger.warning(
            "flight-recorder dump %r dropped (disk unavailable: %s)",
            reason, exc,
        )
        self._event("flight_shed", reason=reason, error=str(exc))

    @property
    def shedding_streams(self) -> List[str]:
        return sorted(self._shedding)


# ----------------------------------------------------------------------
# RSS watermark guard
# ----------------------------------------------------------------------
def read_rss_bytes() -> int:
    """Resident set size of this process, in bytes.

    Prefers ``/proc/self/status`` ``VmRSS`` (current RSS); falls back
    to ``ru_maxrss`` (peak, KiB on Linux) where procfs is unavailable.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class MemoryGuard:
    """Edge-triggered RSS watermark check.

    :meth:`check` returns the current RSS on a **new** breach of the
    watermark and ``None`` otherwise; the guard re-arms only after RSS
    falls below ``hysteresis * watermark``, so a sustained breach
    reports once rather than every step.
    """

    def __init__(
        self,
        watermark_bytes: int,
        *,
        rss_fn: Optional[Callable[[], int]] = None,
        hysteresis: float = 0.9,
    ) -> None:
        if watermark_bytes <= 0:
            raise ValueError("watermark_bytes must be positive")
        if not 0.0 < hysteresis <= 1.0:
            raise ValueError("hysteresis must be in (0, 1]")
        self.watermark_bytes = int(watermark_bytes)
        self.rss_fn = rss_fn if rss_fn is not None else read_rss_bytes
        self.hysteresis = float(hysteresis)
        self.breaches = 0
        self._over = False

    def check(self) -> Optional[int]:
        rss = self.rss_fn()
        if self._over:
            if rss < self.hysteresis * self.watermark_bytes:
                self._over = False
            return None
        if rss >= self.watermark_bytes:
            self._over = True
            self.breaches += 1
            return rss
        return None
