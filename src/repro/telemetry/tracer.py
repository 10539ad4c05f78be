"""Hierarchical span tracing with a bounded buffer and JSONL sink.

A *span* is one timed region of the run — a chunk, a step, a paper
phase, a single GSPMV — with a name, key/value attributes, and a
monotonic start/duration.  Spans nest: the tracer keeps a stack of open
spans, and a span started while another is open records that span as
its parent, so ``repro trace`` can rebuild the chunk → step → phase →
kernel tree of an MRHS run.

Completed spans land in a bounded in-memory buffer that drains to a
:class:`JsonlSink` (one JSON object per line, append-only so a resumed
run extends the same trace).  Without a sink the buffer keeps the most
recent ``buffer_size`` events and counts what it dropped — tracing
never grows without bound and never raises into the simulation.

:class:`NullTracer` is the disabled implementation: every method is a
no-op returning shared singletons, so an uninstrumented run pays one
attribute lookup and one no-op call per span site.
"""

from __future__ import annotations

import itertools
import json
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .context import _context as _corr

__all__ = [
    "SpanEvent",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlSink",
    "read_trace",
]


@dataclass(frozen=True)
class SpanEvent:
    """One completed span, as it appears in the trace log."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    """Seconds on the tracer's monotonic clock (not wall time)."""
    duration: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "duration": self.duration,
                "attrs": self.attrs,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "SpanEvent":
        doc = json.loads(line)
        return cls(
            name=str(doc["name"]),
            span_id=int(doc["span_id"]),
            parent_id=(
                None if doc["parent_id"] is None else int(doc["parent_id"])
            ),
            start=float(doc["start"]),
            duration=float(doc["duration"]),
            attrs=dict(doc.get("attrs", {})),
        )


class Span:
    """An *open* span; closed by :meth:`end` (or the tracer's context
    manager).  Mutating :attr:`attrs` before the end is how call sites
    attach results (iteration counts, convergence flags) to the span."""

    __slots__ = ("name", "span_id", "parent_id", "start", "attrs", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.attrs = attrs

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, **attrs: Any) -> None:
        self._tracer.end(self, **attrs)


class _NullSpan:
    """Shared no-op span (and context manager)."""

    __slots__ = ()
    name = ""
    span_id = -1
    parent_id = None
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    __slots__ = ()
    open_spans = 0
    events_dropped = 0

    def start(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def end(self, span: Any, **attrs: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, duration: float, **attrs: Any) -> None:
        pass

    def drain(self) -> List[SpanEvent]:
        return []

    def close_open(self, **attrs: Any) -> int:
        return 0


NULL_TRACER = NullTracer()


class JsonlSink:
    """Appends span events to a (rotated) ``.jsonl`` stream.

    Opened lazily and in append mode, so a resumed run extends the
    trace of the run it continues instead of truncating it.  Backed by
    :class:`repro.resources.RotatingJsonlWriter`: the active file is
    sealed and rotated at the ``budget``'s segment size (``None``
    disables rotation), and an unwritable disk sheds lines to an
    in-memory ring instead of raising into the simulation.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        budget: Optional[Any] = None,
        governor: Optional[Any] = None,
    ) -> None:
        from repro.resources.rotate import RotatingJsonlWriter

        self.path = Path(path)
        self._writer = RotatingJsonlWriter(
            self.path, budget=budget, governor=governor, stream="trace"
        )

    def __call__(self, events: Sequence[SpanEvent]) -> None:
        self._writer.write_lines(e.to_json() for e in events)

    def close(self) -> None:
        self._writer.close()


def read_trace(
    path: Union[str, Path], *, with_stats: bool = False
) -> Union[List[SpanEvent], Tuple[List[SpanEvent], int]]:
    """Parse a (rotated) JSONL trace back into :class:`SpanEvent`
    objects, tolerating a torn tail (see
    :func:`repro.resources.read_jsonl_stream`).  With
    ``with_stats=True`` returns ``(events, skipped_lines)``."""
    from repro.resources.rotate import read_jsonl_stream

    events, skipped = read_jsonl_stream(
        path,
        lambda line: SpanEvent.from_json(line.decode("utf-8")),
        missing_ok=False,
    )
    if with_stats:
        return events, skipped
    return events


class Tracer:
    """Span tracer with parent/child nesting and a bounded buffer.

    Parameters
    ----------
    sink:
        Callable receiving batches of completed :class:`SpanEvent`
        (e.g. a :class:`JsonlSink`).  ``None`` keeps events in memory.
    buffer_size:
        Completed spans buffered before draining to the sink; without a
        sink, the buffer keeps only the newest ``buffer_size`` events
        (the overflow is counted in :attr:`events_dropped`).
    clock:
        Monotonic clock; ``time.perf_counter`` by default.
    """

    def __init__(
        self,
        sink: Optional[Callable[[Sequence[SpanEvent]], None]] = None,
        *,
        buffer_size: int = 512,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.sink = sink
        self.buffer_size = int(buffer_size)
        self.clock = clock
        self._stack: List[Span] = []
        self._buffer: List[SpanEvent] = []
        # Ids count up from a random namespace (the high 31 bits), so
        # the processes that append to one trace (a killed run and its
        # resume) never share a span id.
        self._ids = itertools.count(secrets.randbits(31) << 32)
        self.events_emitted = 0
        self.events_dropped = 0

    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        """Number of currently open (started, unended) spans."""
        return len(self._stack)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span; its parent is the currently innermost open span.

        The ambient correlation ids (job/run/chunk/step, when a scope
        is active) are stamped under the span's attrs — explicit attrs
        win on a key clash."""
        parent = self._stack[-1].span_id if self._stack else None
        merged = {**_corr, **attrs} if _corr else dict(attrs)
        span = Span(self, name, next(self._ids), parent, self.clock(), merged)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> None:
        """Close ``span`` (and, defensively, anything opened under it
        that was left open — such strays are marked ``leaked=True``)."""
        if span is NULL_SPAN or not isinstance(span, Span):
            return
        try:
            idx = self._stack.index(span)
        except ValueError:
            return  # already ended (double end is a no-op)
        end_t = self.clock()
        # Close deeper strays first so the log stays child-before-parent.
        for stray in reversed(self._stack[idx + 1 :]):
            stray.attrs["leaked"] = True
            self._emit(stray, end_t)
        if attrs:
            span.attrs.update(attrs)
        self._emit(span, end_t)
        del self._stack[idx:]

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("1st solve"):`` — the common form.

        An exception inside the block still closes the span, recording
        the exception type under the ``error`` attribute.
        """
        s = self.start(name, **attrs)
        try:
            yield s
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            self.end(s)
            raise
        else:
            self.end(s)

    def record(self, name: str, duration: float, **attrs: Any) -> None:
        """Emit an already-measured span (hot-path form: no context
        manager, one event; parented to the innermost open span)."""
        now = self.clock()
        self.emit(
            name,
            start=now - duration,
            duration=duration,
            parent_id=self._stack[-1].span_id if self._stack else None,
            **attrs,
        )

    def emit(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        parent_id: Optional[int],
        ids: Optional[Dict[str, Any]] = None,
        **attrs: Any,
    ) -> None:
        """Emit a completed span with an explicit parent — the form the
        hub's aggregated kernel events use, where the parent phase may
        already have closed by the time the aggregate is flushed.
        ``ids`` replaces the ambient correlation ids (an aggregate
        carries those current when its calls ran)."""
        corr = _corr if ids is None else ids
        self._buffer.append(
            SpanEvent(
                name=name,
                span_id=next(self._ids),
                parent_id=parent_id,
                start=start,
                duration=duration,
                attrs={**corr, **attrs} if corr else dict(attrs),
            )
        )
        self.events_emitted += 1
        if len(self._buffer) >= self.buffer_size:
            self._overflow()

    def close_open(self, **attrs: Any) -> int:
        """Force-close every open span (run aborted); returns how many."""
        closed = 0
        while self._stack:
            span = self._stack[-1]
            span.attrs.update(attrs)
            self.end(span)
            closed += 1
        return closed

    # ------------------------------------------------------------------
    def _emit(self, span: Span, end_t: float) -> None:
        self._buffer.append(
            SpanEvent(
                name=span.name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                start=span.start,
                duration=max(0.0, end_t - span.start),
                attrs=span.attrs,
            )
        )
        self.events_emitted += 1
        if len(self._buffer) >= self.buffer_size:
            self._overflow()

    def _overflow(self) -> None:
        if self.sink is not None:
            self.drain()
        else:
            # Keep the newest events; count the evicted.
            excess = len(self._buffer) - self.buffer_size + 1
            if excess > 0:
                del self._buffer[:excess]
                self.events_dropped += excess

    def drain(self) -> List[SpanEvent]:
        """Flush buffered events to the sink (or return them without one)."""
        events, self._buffer = self._buffer, []
        if events and self.sink is not None:
            self.sink(events)
        return events

    @property
    def buffered(self) -> List[SpanEvent]:
        """Events currently buffered in memory (newest last)."""
        return list(self._buffer)
