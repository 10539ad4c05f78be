"""Tests for the benchmark's own helpers (the ``repro`` package is not needed).

    python3 -m pytest mrhsbench/test_helpers.py
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import protocol  # noqa: E402
import spans  # noqa: E402
from spans import SpanRecorder, root_time, self_time_table, self_times  # noqa: E402


def _span(name, start, end, parent=-1, main=True):
    return [name, start, end, parent, "", None, main]


# -- percentile with ten samples beyond it --------------------------------
@pytest.mark.parametrize("p, n", [(50, 20), (90, 100), (99, 1000), (99.9, 10000)])
def test_samples_for_percentile_leave_ten_beyond(p, n):
    assert protocol.samples_for_percentile(p) == n
    for size, beyond in ((n, protocol.MIN_BEYOND), (n - 1, protocol.MIN_BEYOND - 1)):
        values = list(range(size))
        cut = protocol.percentile(values, p)
        assert sum(v > cut for v in values) == beyond


def test_p90_of_100_samples_has_ten_beyond():
    values = list(range(1, 101))
    p90 = protocol.percentile(values, 90)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10


def test_percentile_is_nearest_rank():
    assert protocol.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert protocol.percentile([5.0], 90) == 5.0
    assert protocol.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    with pytest.raises(ValueError):
        protocol.percentile([], 50)
    with pytest.raises(ValueError):
        protocol.percentile([1.0], 0)


# -- interleave schedule --------------------------------------------------
def test_interleave_alternates_which_side_runs_first():
    assert protocol.interleave(0) == ("mrhs", "orig")
    assert protocol.interleave(1) == ("orig", "mrhs")
    assert protocol.interleave(6) == ("mrhs", "orig")
    with pytest.raises(ValueError):
        protocol.interleave(-1)


def test_interleaved_pairs_are_balanced():
    order = [side for i in range(4) for side in protocol.interleave(i)]
    assert order == ["mrhs", "orig", "orig", "mrhs", "mrhs", "orig", "orig", "mrhs"]
    firsts = order[0::2]
    assert firsts.count("mrhs") == firsts.count("orig") == 2


# -- median / quartile summaries -----------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [4.0, 1.0, 9.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
    q1, q2, q3 = protocol.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert protocol.median(values) == statistics.median(values)
    assert protocol.spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_one_sample():
    assert protocol.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert protocol.spread([2.5]) == 0.0
    with pytest.raises(ValueError):
        protocol.median([])


# -- self time from spans -------------------------------------------------
def test_self_time_subtracts_children():
    sp = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 6.0, parent=0),
        _span("a.child", 1.0, 2.0, parent=1),
    ]
    assert self_times(sp) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    sp = [_span("root", 0.0, 10.0), _span("x", 1.0, 5.0, 0), _span("y", 3.0, 12.0, 0)]
    # Children cover [1, 10] once (clipped to the parent): self is 1.
    assert self_times(sp)[0] == pytest.approx(1.0)


def test_table_rows_sum_to_wall():
    sp = [
        _span("run", 1.0, 4.0),
        _span("kernel", 1.5, 2.0, parent=0),
        _span("run", 5.0, 9.0),
        _span("kernel", 6.0, 8.0, parent=2),
        _span("save", 5.0, 9.5, main=False),  # another thread: overlaps
    ]
    wall = 10.0
    rows = self_time_table(sp, wall)
    assert sum(t for _, _, t in rows) == pytest.approx(wall)
    assert dict((n, t) for n, _, t in rows) == pytest.approx(
        {"run": 4.5, "kernel": 2.5, "unaccounted": 3.0}
    )
    assert root_time(sp) == pytest.approx(7.0)
    assert spans.thread_rows(sp) == [("save", 1, pytest.approx(4.5))]


# -- recorder ------------------------------------------------------------
def test_recorder_nests_probes_and_survives_exceptions():
    rec = SpanRecorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    def outer(x):
        return wrapped_inner(x) + 1

    wrapped_inner = rec.timed(inner, "inner", probe=lambda r, x: r)
    wrapped_outer = rec.timed(outer, "outer")
    assert wrapped_outer(3) == 7  # inactive: no spans
    assert rec.spans == []
    rec.active = True
    assert wrapped_outer(3) == 7
    with pytest.raises(ValueError):
        wrapped_outer(-1)
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.VALUE]) for s in rec.take()]
    assert names == [("outer", -1, None), ("inner", 0, 6), ("outer", -1, None), ("inner", 2, None)]


def test_recorder_keeps_a_stack_per_thread():
    rec = SpanRecorder()
    rec.active = True
    with rec.span("main"):
        t = threading.Thread(target=lambda: rec.span("worker").__enter__().__exit__())
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    recorded = {s[spans.NAME]: s for s in rec.take()}
    assert recorded["worker"][spans.PARENT] == -1
    assert recorded["worker"][spans.MAIN] is False
    assert recorded["main"][spans.MAIN] is True


def test_paused_block_is_one_span_with_nothing_inside():
    rec = SpanRecorder()
    rec.active = True
    f = rec.timed(lambda: 1, "call")
    with rec.paused("check"):
        f()
    f()
    assert [s[spans.NAME] for s in rec.take()] == ["check", "call"]


# -- reference-speed clock ----------------------------------------------
class _FixedKernel:
    def __init__(self, seconds):
        self.value = seconds

    def seconds(self):
        return self.value


def test_host_clock_scales_wall_time_by_reference_speed(monkeypatch):
    import hostspeed

    wall = [100.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: wall[0])
    # A host half as fast as the reference: clock runs at half speed.
    kernel = _FixedKernel(2 * hostspeed.REFERENCE_S)
    clock = hostspeed.HostClock(kernel)
    wall[0] += 4.0
    clock.calibrate()
    assert clock.reading == pytest.approx(2.0)
    # Speed recovers: the interval is scaled by the mean of its bounds.
    kernel.value = hostspeed.REFERENCE_S
    wall[0] += 4.0
    clock.calibrate()
    assert clock.reading == pytest.approx(2.0 + 4.0 * 0.75)
    assert clock.factors == pytest.approx([0.5, 0.5, 1.0])
    # Raw readings convert with the factors of the calibrations bounding
    # them, scaled or not, and never past the last calibration.
    assert clock.reference(102.0) == pytest.approx(1.0)
    assert clock.reference(106.0) == pytest.approx(2.0 + 2.0 * 0.75)
    assert clock.reference(106.0, scaled=False) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        clock.reference(109.0)


def test_host_clock_readings_never_decrease_when_the_host_speeds_up(monkeypatch):
    import hostspeed

    wall = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: wall[0])
    kernel = _FixedKernel(4 * hostspeed.REFERENCE_S)
    clock = hostspeed.HostClock(kernel)
    raw = []
    for speed in (4, 1, 4, 1):
        for _ in range(5):
            wall[0] += 0.1
            raw.append(wall[0])
        kernel.value = speed * hostspeed.REFERENCE_S
        clock.calibrate()
    readings = [clock.reference(t) for t in raw]
    assert readings == sorted(readings)


def test_host_clock_drops_runs_where_other_threads_used_cpu(monkeypatch):
    import hostspeed

    # process_time runs ahead of thread_time: another thread is busy.
    cpu = {"process": 0.0, "thread": 0.0}
    busy = [True]

    class Kernel:
        value = hostspeed.REFERENCE_S

        def seconds(self):
            cpu["thread"] += self.value
            cpu["process"] += self.value * (2.0 if busy[0] else 1.0)
            return self.value

    monkeypatch.setattr(hostspeed.time, "process_time", lambda: cpu["process"])
    monkeypatch.setattr(hostspeed.time, "thread_time", lambda: cpu["thread"])
    kernel = Kernel()
    with pytest.raises(RuntimeError):
        hostspeed.HostClock(kernel)
    busy[0] = False
    clock = hostspeed.HostClock(kernel)
    busy[0] = True
    kernel.value = 2 * hostspeed.REFERENCE_S
    clock.calibrate()
    # The slowed kernel is not taken as a slower host: factor kept.
    assert clock.dropped == 1
    assert clock.factors == pytest.approx([1.0])


# -- BENCHMARK.json agrees with what the runner reports -------------------
def test_benchmark_json_lists_the_reported_metrics():
    import layers
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
