"""Counters, gauges, and fixed-bucket histograms for run-wide metrics.

The :class:`MetricsRegistry` is the single sink for everything the
instrumented hot paths count: GSPMV bytes moved and flops executed,
CG/block-CG iterations and true-residual norms, MRHS chunk
degradations, distributed comm bytes, checkpoint write seconds, and
health verdict counts.  Three properties make it fit the simulation
loop:

* **Labels** — ``registry.counter("gspmv.seconds", m=4)`` keys the
  metric by name plus sorted labels (``"gspmv.seconds{m=4}"``), which
  is how per-``m`` GSPMV aggregates stay separable for the roofline
  report without a cardinality explosion.
* **Snapshot/restore** — the resilient runner snapshots the
  registry before each step attempt and restores it when the step is
  rejected, so metrics from rolled-back steps are withdrawn exactly
  like the health monitor's observations.
* **Checkpointable state** — ``to_state``/``load_state`` round-trip
  through the NPZ checkpoint packer, so counters continue
  monotonically across a kill-and-resume boundary.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "WITHDRAWN_KEY",
    "exponential_buckets",
]

#: Self-metric counting observations rolled back by :meth:`restore`.
#: Exempt from the restore itself, so rejected-step accounting is
#: observable instead of being withdrawn along with what it counts.
WITHDRAWN_KEY = "telemetry.withdrawn"


def exponential_buckets(
    start: float, factor: float, count: int
) -> Tuple[float, ...]:
    """Bucket upper bounds ``start * factor**i`` for ``i in range(count)``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: Default histogram buckets for durations in seconds (1 µs … ~1000 s).
SECONDS_BUCKETS = exponential_buckets(1e-6, 10.0, 10)
#: Default histogram buckets for residual norms (1e-14 … ~100).
RESIDUAL_BUCKETS = exponential_buckets(1e-14, 10.0, 17)


class Counter:
    """A monotonically increasing count (within one accepted timeline;
    step rejection may restore it to an earlier snapshot)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """A point-in-time value (current dt, current m, buffer depth).

    ``updated_at`` records the wall time of the last :meth:`set` — the
    staleness timestamp the Prometheus exporter attaches to gauge
    samples (0.0 means never explicitly set, no stamp emitted).
    """

    __slots__ = ("value", "updated_at")

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)
        self.updated_at = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated_at = time.time()


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``counts[i]`` counts observations ``<= buckets[i]`` (first matching
    bucket); observations above the last bound land in the overflow
    slot ``counts[-1]``.  ``sum``/``count`` track totals for means.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = SECONDS_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = int(np.searchsorted(self.buckets, value, side="left"))
        self.counts[idx] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _NullMetric:
    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class _NullMetrics:
    """Disabled registry: every accessor returns a shared no-op metric."""

    __slots__ = ()

    def counter(self, name: str, **labels: Any) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels: Any) -> _NullMetric:
        return _NULL_METRIC

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> None:
        return None

    def restore(self, snapshot: Any) -> None:
        pass


NULL_METRICS = _NullMetrics()


def _key(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named counters, gauges, and histograms with optional labels."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = _key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(
                buckets if buckets is not None else SECONDS_BUCKETS
            )
        return h

    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        c = self._counters.get(_key(name, labels))
        return c.value if c is not None else 0.0

    def counters_matching(self, prefix: str) -> Dict[str, float]:
        """``{key: value}`` for every counter whose key starts with
        ``prefix`` (e.g. ``"gspmv.seconds{"`` for the per-m family)."""
        return {
            k: c.value
            for k, c in self._counters.items()
            if k.startswith(prefix)
        }

    def gauge_stamps(self) -> Dict[str, float]:
        """``{key: last-set wall time}`` for every gauge that has been
        explicitly set (the exporter's staleness timestamps)."""
        return {
            k: g.updated_at for k, g in self._gauges.items() if g.updated_at
        }

    # ------------------------------------------------------------------
    # rejection rollback
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Cheap copy of every metric's value, for step-rejection
        rollback (:meth:`restore`)."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {
                k: (list(h.counts), h.sum, h.count)
                for k, h in self._histograms.items()
            },
        }

    def restore(self, snapshot: Mapping[str, Any]) -> int:
        """Restore :meth:`snapshot`: metrics recorded since are withdrawn
        (metrics *created* since are reset to zero, not deleted).

        Returns how many observations were withdrawn — counter/gauge
        updates rolled back plus histogram observations discarded —
        and adds that to the monotonic ``telemetry.withdrawn``
        self-counter, which is itself exempt from the restore so
        rejected-step accounting stays observable.
        """
        withdrawn = 0
        counters = snapshot["counters"]
        for k, c in self._counters.items():
            if k == WITHDRAWN_KEY:
                continue
            target = counters.get(k, 0.0)
            if c.value != target:
                withdrawn += 1
            c.value = target
        gauges = snapshot["gauges"]
        for k, g in self._gauges.items():
            target = gauges.get(k, 0.0)
            if g.value != target:
                withdrawn += 1
            g.value = target
        hists = snapshot["histograms"]
        for k, h in self._histograms.items():
            if k in hists:
                counts, total, count = hists[k]
                withdrawn += max(0, h.count - count)
                h.counts = list(counts)
                h.sum = total
                h.count = count
            else:
                withdrawn += h.count
                h.counts = [0] * (len(h.buckets) + 1)
                h.sum = 0.0
                h.count = 0
        if withdrawn:
            self.counter(WITHDRAWN_KEY).inc(float(withdrawn))
        return withdrawn

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON summary (``metrics.json``, ``repro report``)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "mean": h.mean,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def dump_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_state(self) -> Dict[str, Any]:
        """NPZ-checkpoint-friendly state (see ``pack_state``)."""
        hist_names = sorted(self._histograms)
        return {
            "counter_names": sorted(self._counters),
            "counter_values": np.array(
                [self._counters[k].value for k in sorted(self._counters)],
                dtype=np.float64,
            ),
            "gauge_names": sorted(self._gauges),
            "gauge_values": np.array(
                [self._gauges[k].value for k in sorted(self._gauges)],
                dtype=np.float64,
            ),
            "hist_names": hist_names,
            "hist_buckets": [
                np.array(self._histograms[k].buckets, dtype=np.float64)
                for k in hist_names
            ],
            "hist_counts": [
                np.array(self._histograms[k].counts, dtype=np.int64)
                for k in hist_names
            ],
            "hist_sums": np.array(
                [self._histograms[k].sum for k in hist_names], dtype=np.float64
            ),
            "hist_totals": np.array(
                [self._histograms[k].count for k in hist_names], dtype=np.int64
            ),
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Adopt checkpointed values, so a resumed run's counters
        continue from where the killed run's checkpoint left them."""
        for name, value in zip(state["counter_names"], state["counter_values"]):
            self.counter(str(name)).value = float(value)
        for name, value in zip(state["gauge_names"], state["gauge_values"]):
            self.gauge(str(name)).value = float(value)
        for i, name in enumerate(state["hist_names"]):
            h = self.histogram(
                str(name), buckets=[float(b) for b in state["hist_buckets"][i]]
            )
            h.counts = [int(c) for c in state["hist_counts"][i]]
            h.sum = float(state["hist_sums"][i])
            h.count = int(state["hist_totals"][i])
