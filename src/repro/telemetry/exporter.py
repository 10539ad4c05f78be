"""Periodic metrics export: Prometheus text + an append-only stream.

The :class:`MetricsExporter` serializes the live
:class:`~repro.telemetry.metrics.MetricsRegistry` on a cadence:

* ``metrics.prom`` — Prometheus text exposition format, *published
  atomically* (:func:`repro.durable.publish`), so a scraper or
  ``repro top`` never observes a partially-written file.  Gauges carry
  their last-update wall-clock timestamp (milliseconds, per the
  exposition format) so a stale gauge is distinguishable from a fresh
  one.
* ``metrics.jsonl`` — one JSON snapshot line per export, append-only,
  so the *history* of every counter survives (the text file only ever
  shows "now").
* ``metrics.json`` — the same live snapshot ``repro report`` already
  reads, rewritten atomically each export so ``report --watch`` and
  ``jobs --watch`` render mid-run instead of only after close.

Cadence is wall-clock (``interval`` seconds between exports, checked
by cheap :meth:`maybe_export` calls from the step loop) and/or logical
(``tick_every`` :class:`~repro.service.clock.ServiceClock` ticks,
checked by :meth:`tick` from the scheduler loop).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.durable import publish

from .metrics import MetricsRegistry

__all__ = [
    "MetricsExporter",
    "PROM_FILENAME",
    "STREAM_FILENAME",
    "escape_label_value",
    "parse_prometheus_text",
    "prom_key",
    "prom_name",
    "render_prometheus",
]

PROM_FILENAME = "metrics.prom"
STREAM_FILENAME = "metrics.jsonl"


# ----------------------------------------------------------------------
# exposition format
# ----------------------------------------------------------------------
def prom_name(name: str) -> str:
    """Sanitize a registry metric name (``gspmv.seconds`` →
    ``gspmv_seconds``) to the exposition-format charset."""
    out = []
    for i, ch in enumerate(name):
        if ch.isalnum() and (i > 0 or not ch.isdigit()) or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    return "".join(out)


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry key ``name{k=v,...}`` into name + labels."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, inner = key[:-1].split("{", 1)
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        if "=" in part:
            k, v = part.split("=", 1)
            labels[k] = v
    return name, labels


def prom_key(name: str, **labels: Any) -> str:
    """The sample key :func:`parse_prometheus_text` returns for a
    metric: sanitized name plus sorted, quoted, escaped labels."""
    pname = prom_name(name)
    if not labels:
        return pname
    inner = ",".join(
        f'{prom_name(str(k))}="{escape_label_value(str(labels[k]))}"'
        for k in sorted(labels)
    )
    return f"{pname}{{{inner}}}"


def _fmt(value: float) -> str:
    f = float(value)
    return repr(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format.

    Gauges carry their last-``set`` wall timestamp in milliseconds
    (the staleness marker); counters and histograms are cumulative so
    they carry none.
    """
    snap = registry.as_dict()
    lines = []
    seen_types: Dict[str, str] = {}

    def header(name: str, mtype: str) -> None:
        if seen_types.get(name) != mtype:
            seen_types[name] = mtype
            lines.append(f"# TYPE {name} {mtype}")

    for key, value in snap["counters"].items():
        name, labels = _split_key(key)
        header(prom_name(name), "counter")
        lines.append(f"{prom_key(name, **labels)} {_fmt(value)}")
    gauge_stamps = getattr(registry, "gauge_stamps", lambda: {})()
    for key, value in snap["gauges"].items():
        name, labels = _split_key(key)
        header(prom_name(name), "gauge")
        stamp = gauge_stamps.get(key, 0.0)
        suffix = f" {int(stamp * 1000)}" if stamp else ""
        lines.append(f"{prom_key(name, **labels)} {_fmt(value)}{suffix}")
    for key, hist in snap["histograms"].items():
        name, labels = _split_key(key)
        pname = prom_name(name)
        header(pname, "histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(
                f"{prom_key(name + '_bucket', le=repr(float(bound)), **labels)}"
                f" {cumulative}"
            )
        lines.append(
            f"{prom_key(name + '_bucket', le='+Inf', **labels)}"
            f" {hist['count']}"
        )
        lines.append(f"{prom_key(name + '_sum', **labels)} {_fmt(hist['sum'])}")
        lines.append(f"{prom_key(name + '_count', **labels)} {hist['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Any]:
    """Parse exposition text back for round-trip verification.

    Returns ``{"types": {name: type}, "samples": {key: (value, ts)}}``
    where ``key`` matches :func:`prom_key` output (labels sorted) and
    ``ts`` is the optional sample timestamp in milliseconds (``None``
    when absent — i.e. everything but stamped gauges).
    """
    types: Dict[str, str] = {}
    samples: Dict[str, Tuple[float, Optional[int]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        if "}" in line:
            head, rest = line.rsplit("}", 1)
            name, inner = head.split("{", 1)
            labels: Dict[str, str] = {}
            # Split label pairs on commas outside quotes.
            depth, start, parts = False, 0, []
            for i, ch in enumerate(inner):
                if ch == '"' and (i == 0 or inner[i - 1] != "\\"):
                    depth = not depth
                elif ch == "," and not depth:
                    parts.append(inner[start:i])
                    start = i + 1
            parts.append(inner[start:])
            for part in parts:
                if not part:
                    continue
                k, v = part.split("=", 1)
                labels[k.strip()] = _unescape_label_value(v.strip().strip('"'))
            fields = rest.split()
        else:
            pieces = line.split()
            name, labels, fields = pieces[0], {}, pieces[1:]
        value = float(fields[0])
        ts = int(fields[1]) if len(fields) > 1 else None
        inner_txt = ",".join(
            f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
        )
        key = f"{name}{{{inner_txt}}}" if labels else name
        samples[key] = (value, ts)
    return {"types": types, "samples": samples}


# ----------------------------------------------------------------------
class MetricsExporter:
    """Cadence-driven serializer for one :class:`MetricsRegistry`."""

    def __init__(
        self,
        registry: MetricsRegistry,
        directory: Union[str, Path],
        *,
        interval: float = 1.0,
        tick_every: int = 0,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
        budget: Optional[Any] = None,
        governor: Optional[Any] = None,
    ) -> None:
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if tick_every < 0:
            raise ValueError("tick_every must be non-negative")
        self.registry = registry
        self.directory = Path(directory)
        self.interval = float(interval)
        self.tick_every = int(tick_every)
        self.exports = 0
        self.exports_shed = 0
        self.governor = governor
        self._clock = clock
        self._wall = wall
        self._last: Optional[float] = None
        self._last_tick: Optional[int] = None
        self._shedding = False
        from repro.resources.rotate import RotatingJsonlWriter

        self._stream = RotatingJsonlWriter(
            self.stream_path,
            budget=budget,
            governor=governor,
            stream="metrics",
        )

    @property
    def prom_path(self) -> Path:
        return self.directory / PROM_FILENAME

    @property
    def stream_path(self) -> Path:
        return self.directory / STREAM_FILENAME

    # ------------------------------------------------------------------
    def maybe_export(self, *, force: bool = False) -> Optional[Path]:
        """Export if ``interval`` seconds have passed (cheap when not:
        one clock read and one compare — this is the per-step call)."""
        now = self._clock()
        if not force and self._last is not None:
            if now - self._last < self.interval:
                return None
        self._last = now
        return self.export()

    def tick(self, now_tick: int) -> Optional[Path]:
        """Logical-clock cadence: export every ``tick_every`` ticks
        (scheduler loop).  No-op when ``tick_every`` is 0."""
        if not self.tick_every:
            return None
        if (
            self._last_tick is not None
            and now_tick - self._last_tick < self.tick_every
        ):
            return None
        self._last_tick = int(now_tick)
        self._last = self._clock()
        return self.export()

    def export(self) -> Path:
        """Unconditional export of all three artifacts."""
        self.exports += 1
        self.registry.counter("telemetry.exports").value = float(self.exports)
        self.directory.mkdir(parents=True, exist_ok=True)
        wall = self._wall()
        try:
            for path, text in (
                (self.prom_path, render_prometheus(self.registry)),
                (self.directory / "metrics.json",
                 self.registry.dump_json() + "\n"),
            ):
                publish(
                    path, lambda fh: fh.write(text.encode("utf-8")),
                    writer="exporter", fsync=False,
                )
        except OSError as exc:
            # Telemetry is the junior class: an unwritable disk drops
            # this export (counted) instead of raising into the run.
            self.exports_shed += 1
            self.registry.counter("telemetry.shed", stream="metrics").inc()
            if not self._shedding:
                self._shedding = True
                if self.governor is not None:
                    self.governor.note_stream_shed(
                        "metrics", self.prom_path, exc
                    )
            return self.prom_path
        if self._shedding:
            self._shedding = False
            if self.governor is not None:
                self.governor.note_stream_recovered("metrics")
        line = json.dumps(
            {"export": self.exports, "ts": wall, **self.registry.as_dict()},
            sort_keys=True,
        )
        self._stream.write_line(line)
        return self.prom_path

    def close(self) -> None:
        self._stream.close()
