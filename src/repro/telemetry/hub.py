"""The :class:`TelemetryHub` bundles one tracer + one metrics registry.

Drivers accept ``telemetry=hub``; a hub bound to a directory writes
``trace.jsonl`` (append-only span log) and ``metrics.json`` (metrics
summary, rewritten on every flush).  ``NULL_HUB`` is the disabled
instance drivers hold by default — every operation on it is a no-op,
so call sites never need a ``None`` check on the driver attribute.

The *global* enable/disable switch for module-level instrumentation
(the GSPMV/SPMV/solver hot paths, which have no driver to hang an
attribute on) lives in :mod:`repro.telemetry` as ``active_hub``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

from repro.durable import publish

from .context import _context as _corr
from .events import EVENTS_FILENAME, NULL_BUS, EventBus
from .exporter import MetricsExporter
from .metrics import NULL_METRICS, MetricsRegistry, _NullMetrics
from .recorder import FlightRecorder
from .tracer import NULL_TRACER, JsonlSink, NullTracer, Tracer

__all__ = ["TelemetryHub", "NULL_HUB"]

TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.json"

# Bytes per scalar / index in the BCRS kernels (matches perfmodel).
_SX = 8  # double-precision vector element
_SA = 8  # double-precision matrix element
_SI = 4  # 32-bit block index


def gspmv_bytes(nb: int, nnzb: int, b: int, m: int) -> int:
    """Minimum memory traffic of one GSPMV at width ``m`` (Eq. 6 of the
    paper with cache-miss factor ``k = 0`` — the cheap lower bound used
    for live accounting; the roofline report recomputes with the LRU
    ``k`` estimate offline)."""
    return int(
        m * nb * b * 3 * _SX  # stream x once, y read+write
        + nb * _SI  # row pointers
        + nnzb * (_SI + b * b * _SA)  # block indices + block values
    )


def gspmv_flops(nnzb: int, b: int, m: int) -> int:
    """Useful flops of one GSPMV: 2 per (matrix element, column)."""
    return int(2 * nnzb * b * b * m)


class TelemetryHub:
    """One tracer + one metrics registry + an optional output directory."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        buffer_size: int = 512,
        export_interval: float = 1.0,
        flight_ring: int = 2048,
        stream_budget: Optional[Any] = "default",
        spill_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        # Resource governance: every hub bound to a directory carries a
        # governor, and every append-only stream it creates is budget-
        # rotated by default.  ``stream_budget=None`` disables rotation.
        if stream_budget == "default":
            from repro.resources.rotate import DEFAULT_STREAM_BUDGET

            stream_budget = DEFAULT_STREAM_BUDGET
        self.stream_budget = stream_budget
        if self.directory is not None:
            from repro.resources.governor import ResourceGovernor

            self.governor: Optional[ResourceGovernor] = ResourceGovernor(
                self.directory,
                stream_budget=stream_budget,
                spill_dir=spill_dir,
            )
        else:
            self.governor = None
        if tracer is not None:
            self.tracer = tracer
        elif self.directory is not None:
            self.tracer = Tracer(
                JsonlSink(
                    self.directory / TRACE_FILENAME,
                    budget=stream_budget,
                    governor=self.governor,
                ),
                buffer_size=buffer_size,
            )
        else:
            self.tracer = Tracer(buffer_size=buffer_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Live observability plane: the unified event bus, the bounded
        # flight-recorder rings, and the cadence-driven exporter.  The
        # recorder tees the tracer's sink (spans keep flowing to the
        # JSONL file) and listens on the bus; without a directory the
        # bus stays in-memory and the exporter is absent.
        self.recorder = FlightRecorder(
            span_ring=flight_ring, event_ring=flight_ring
        )
        self.events = EventBus(
            self.directory / EVENTS_FILENAME
            if self.directory is not None
            else None,
            budget=stream_budget,
            governor=self.governor,
        )
        self.events.listeners.append(self.recorder.note_event)
        sink = self.tracer.sink
        if sink is not None:
            recorder = self.recorder

            def _tee(events, _sink=sink, _rec=recorder):
                _rec.note_spans(events)
                _sink(events)

            self.tracer.sink = _tee
            self._sink = sink
        else:
            self._sink = None
        self.exporter: Optional[MetricsExporter] = (
            MetricsExporter(
                self.metrics,
                self.directory,
                interval=export_interval,
                budget=stream_budget,
                governor=self.governor,
            )
            if self.directory is not None
            else None
        )
        if self.governor is not None:
            # Late binding: the governor could not take the hub in its
            # constructor (it is created first), and the hub's own
            # streams must exist before shed/rotation events can flow.
            self.governor.bind_hub(self)
        # Hot-path caches: resolved counter tuples per kernel key, and
        # the one in-flight aggregate of consecutive same-key calls.
        self._kcache: dict = {}
        self._pending: Optional[list] = None

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # hot-path helper: one call records span + bytes/flops counters
    # ------------------------------------------------------------------
    def record_gspmv(
        self,
        kind: str,
        duration: float,
        nb: int,
        nnzb: int,
        b: int,
        m: int,
        backend: str = "",
    ) -> None:
        """Record one generalized SPMV: per-m aggregate counters plus a
        ``kind`` span event (``"gspmv"``/``"spmv"``).

        A solver iteration issues thousands of kernel calls, so the
        span side aggregates: consecutive calls with the same structure
        under the same parent span fold into one event carrying a
        ``calls`` count (the tree view and roofline report un-fold it).
        Counters still advance per call — they sit inside the step's
        snapshot/restore window and must track the accepted timeline.
        """
        key = (kind, m, nb, nnzb, b, backend)
        cached = self._kcache.get(key)
        if cached is None:
            mx = self.metrics
            # Label the counter family by engine so per-engine totals
            # survive into metrics.json (the roofline report and the
            # engine validation both group by it).
            labels = {"m": m, "engine": backend} if backend else {"m": m}
            cached = (
                mx.counter(f"{kind}.calls", **labels),
                mx.counter(f"{kind}.seconds", **labels),
                mx.counter(f"{kind}.bytes", **labels),
                mx.counter(f"{kind}.flops", **labels),
                float(gspmv_bytes(nb, nnzb, b, m)),
                float(gspmv_flops(nnzb, b, m)),
            )
            self._kcache[key] = cached
        # Bump counter values directly (all increments are nonnegative
        # by construction) — this path runs per kernel call.
        cached[0].value += 1.0
        cached[1].value += duration
        cached[2].value += cached[4]
        cached[3].value += cached[5]

        tr = self.tracer
        stack = tr._stack
        pkey = (stack[-1].span_id if stack else None, key)
        pending = self._pending
        if pending is not None and pending[0] == pkey:
            pending[1] += 1
            pending[2] += duration
        else:
            if pending is not None:
                self._flush_pending()
            self._pending = [pkey, 1, duration, tr.clock() - duration, dict(_corr)]

    def _flush_pending(self) -> None:
        """Emit the in-flight kernel aggregate as one span event."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        (parent_id, key), count, total, start, ids = pending
        kind, m, nb, nnzb, b, backend = key
        attrs = {"nb": nb, "nnzb": nnzb, "b": b, "m": m, "backend": backend}
        if count > 1:
            attrs["calls"] = count
        # Stamped with the ids of when the calls ran: by the flush (the
        # next parent's first call, or the run's end) the chunk or step
        # may have moved on.
        self.tracer.emit(
            kind, start=start, duration=total, parent_id=parent_id, ids=ids,
            **attrs,
        )

    # ------------------------------------------------------------------
    # the live observability plane
    # ------------------------------------------------------------------
    def emit_event(self, category: str, kind: str, **attrs: Any) -> Any:
        """Publish one incident on the unified event bus (stamped with
        the current correlation ids; see :mod:`repro.telemetry.events`)."""
        return self.events.emit(category, kind, **attrs)

    def pulse(self, tick: Optional[int] = None) -> None:
        """Cadence heartbeat from the step/scheduler loops: give the
        exporter a chance to export (cheap when the interval has not
        elapsed).  ``tick`` additionally drives the logical cadence."""
        exporter = self.exporter
        if exporter is None:
            return
        if tick is not None and exporter.tick_every:
            exporter.tick(tick)
        else:
            exporter.maybe_export()

    def dump_flight(self, reason: str, **extra: Any) -> Optional[Path]:
        """Write the flight-recorder post-mortem bundle (FATAL/crash).

        Flushes pending spans first so the rings hold the freshest
        tail.  Returns ``None`` for a directory-less hub.
        """
        if self.directory is None:
            return None
        self._flush_pending()
        self.tracer.drain()  # the teed sink feeds the recorder's ring
        try:
            return self.recorder.dump(
                self.directory,
                reason=reason,
                metrics=self.metrics,
                extra=extra,
            )
        except OSError as exc:
            # Flight bundles are class 1: droppable under pressure, but
            # always noted — a post-mortem silently missing its bundle
            # would otherwise look like a recorder bug.
            if self.governor is not None:
                self.governor.note_flight_shed(reason, exc)
            return None

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drain the tracer to disk and rewrite ``metrics.json``."""
        self._flush_pending()
        self.tracer.drain()
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                text = self.metrics.dump_json() + "\n"
                publish(
                    self.directory / METRICS_FILENAME,
                    lambda fh: fh.write(text.encode("utf-8")),
                    writer="telemetry_hub", fsync=False,
                )
            except OSError:
                # Junior class: a full disk costs this snapshot, not
                # the run (the exporter counts its own sheds).
                self.metrics.counter("telemetry.shed", stream="metrics").inc()

    def close(self, **attrs: Any) -> None:
        """Force-close any spans still open (aborted run), flush — with
        one final export so ``metrics.prom`` reflects the run's end —
        and release the trace/event file handles."""
        self.tracer.close_open(**attrs)
        self.flush()
        if self.exporter is not None:
            self.exporter.maybe_export(force=True)
            self.exporter.close()
        self.events.close()
        if isinstance(self._sink, JsonlSink):
            self._sink.close()


class _NullHub:
    """Disabled hub: no-op tracer, no-op metrics, no files."""

    __slots__ = ()
    directory = None
    tracer: NullTracer = NULL_TRACER
    metrics: _NullMetrics = NULL_METRICS
    events = NULL_BUS
    exporter = None
    recorder = None
    governor = None
    enabled = False

    def emit_event(self, category: str, kind: str, **attrs: Any) -> None:
        pass

    def pulse(self, tick: Optional[int] = None) -> None:
        pass

    def dump_flight(self, reason: str, **extra: Any) -> None:
        return None

    def flush(self) -> None:
        pass

    def close(self, **attrs: Any) -> None:
        pass


NULL_HUB = _NullHub()
