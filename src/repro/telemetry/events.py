"""The unified event bus: one causally-ordered ``events.jsonl``.

Every *discrete* incident across the stack lands here as one line —
engine events (demotions, miscompares, quarantines), health verdicts,
fault-injection firings, checkpoint writes, and job state transitions
— stamped with a monotonic sequence number, a wall-clock timestamp,
and the current correlation ids from :mod:`repro.telemetry.context`.
Appends happen in program order from a single-threaded runtime, so
``seq`` *is* the causal order: sorting (or just reading) the file
reconstructs what happened, and filtering by ``job_id`` reconstructs
one job's story across every layer.

The file is append-only (a resumed service extends it) and the reader
mirrors the job journal's longest-valid-prefix rule: a torn final line
from a crash mid-append is skipped and counted, never raised.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.durable import DECODE_ERRORS

from . import context as _context

__all__ = [
    "BusEvent",
    "EventBus",
    "EVENTS_FILENAME",
    "NULL_BUS",
    "read_events",
]

EVENTS_FILENAME = "events.jsonl"

_CORR = _context.CORRELATION_FIELDS


@dataclass(frozen=True)
class BusEvent:
    """One incident on the bus, as it appears in ``events.jsonl``."""

    seq: int
    ts: float
    """Wall-clock seconds (annotation only; ``seq`` carries the order)."""
    category: str
    """Emitting layer: ``service``/``engine``/``health``/``fault``/
    ``checkpoint``/``slo``."""
    kind: str
    correlation: Dict[str, Any] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        doc: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "cat": self.category,
            "kind": self.kind,
        }
        doc.update(self.correlation)
        if self.attrs:
            doc["attrs"] = self.attrs
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "BusEvent":
        return cls(
            seq=int(doc["seq"]),
            ts=float(doc["ts"]),
            category=str(doc["cat"]),
            kind=str(doc["kind"]),
            correlation={k: doc[k] for k in _CORR if k in doc},
            attrs=dict(doc.get("attrs", {})),
        )


def read_events(
    path: Union[str, Path], *, with_stats: bool = False
) -> Union[List[BusEvent], Tuple[List[BusEvent], int]]:
    """Parse a (rotated) ``events.jsonl``, tolerating a torn tail (see
    :func:`repro.resources.read_jsonl_stream`).  With
    ``with_stats=True`` returns ``(events, skipped_lines)``."""
    from repro.resources.rotate import read_jsonl_stream

    events, skipped = read_jsonl_stream(
        path,
        lambda line: BusEvent.from_doc(json.loads(line.decode("utf-8"))),
        missing_ok=True,
    )
    if with_stats:
        return events, skipped
    return events


def _last_seq(path: Path) -> int:
    """``seq`` of the stream's newest event, 0 when it has none.

    Reads only the newest segment that holds a decodable event, from
    its end: a torn or seal line is passed over, so after a rotation
    (empty or missing active file) this is the newest sealed segment."""
    from repro.resources.rotate import stream_segments

    for segment in reversed(stream_segments(path)):
        try:
            raw = segment.read_bytes()
        except OSError:
            continue  # pruned between listing and read
        for line in reversed(raw.split(b"\n")):
            try:
                return BusEvent.from_doc(json.loads(line.decode("utf-8"))).seq
            except DECODE_ERRORS:
                continue
    return 0


class EventBus:
    """Appends :class:`BusEvent` lines and hands each event to its
    listeners (the hub's :class:`FlightRecorder` keeps the recent ones).

    Parameters
    ----------
    path:
        Target ``events.jsonl``; ``None`` writes nothing (listeners
        still see every event).
    wall:
        Injectable wall clock (tests pin it).
    budget:
        Rotation budget for ``events.jsonl`` (see
        :class:`repro.resources.StreamBudget`); ``None`` disables
        rotation.
    governor:
        Optional resource governor notified of rotations/shedding.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        wall: Callable[[], float] = time.time,
        budget: Optional[Any] = None,
        governor: Optional[Any] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.listeners: List[Callable[[BusEvent], None]] = []
        self.events_emitted = 0
        self._wall = wall
        self._writer = None
        self._seq: Optional[int] = None
        if self.path is not None:
            from repro.resources.rotate import RotatingJsonlWriter

            self._writer = RotatingJsonlWriter(
                self.path, budget=budget, governor=governor, stream="events"
            )

    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        if self._seq is None:
            # Resume the sequence past the existing (possibly rotated)
            # stream so causal order spans manager incarnations.
            self._seq = _last_seq(self.path) if self.path is not None else 0
        self._seq += 1
        return self._seq

    def emit(self, category: str, kind: str, **attrs: Any) -> BusEvent:
        """Record one incident.

        Correlation ids come from the ambient context; explicit
        keyword arguments named like a correlation field override it
        (the manager knows which job an admission event belongs to
        before any scope is open).
        """
        corr = dict(_context._context)
        for k in _CORR:
            if k in attrs:
                corr[k] = attrs.pop(k)
        event = BusEvent(
            seq=self._next_seq(),
            ts=self._wall(),
            category=category,
            kind=kind,
            correlation=corr,
            attrs=attrs,
        )
        self.events_emitted += 1
        for listener in self.listeners:
            listener(event)
        if self._writer is not None:
            self._writer.write_line(event.to_json())
        return event

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()


class _NullBus:
    """Disabled bus: ``emit`` is a no-op (used by ``NULL_HUB``)."""

    __slots__ = ()
    path = None
    events_emitted = 0

    def emit(self, category: str, kind: str, **attrs: Any) -> None:
        return None

    def close(self) -> None:
        pass


NULL_BUS = _NullBus()
