"""Governor seniority, emergency release, RSS guard, checkpoint spill.

The eviction contract (DESIGN.md §17): class-0 durable artifacts
(journal, checkpoints) are never deleted by the governor; sealed
telemetry segments go first, then whole flight bundles, and active
stream files are never candidates.  The checkpoint ladder escalates
release → spill → :class:`ResourceExhausted` FATAL.
"""

import json

import numpy as np
import pytest

from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultPlan, FaultSpec, arm, disarm
from repro.resources import (
    CLASS_DURABLE,
    CLASS_FLIGHT,
    CLASS_TELEMETRY,
    CLASS_TEMP,
    MemoryGuard,
    ResourceExhausted,
    ResourceGovernor,
    RotatingJsonlWriter,
    StreamBudget,
    read_rss_bytes,
    sealed_segments,
)


class TestClassify:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("journal.jsonl", CLASS_DURABLE),
            ("ckpt-000000004.npz", CLASS_DURABLE),
            ("journal.jsonl.compact", CLASS_DURABLE),
            ("trace.jsonl", CLASS_TELEMETRY),
            ("trace.000003.jsonl", CLASS_TELEMETRY),
            ("events.jsonl", CLASS_TELEMETRY),
            ("metrics.jsonl", CLASS_TELEMETRY),
            ("metrics.json", CLASS_TELEMETRY),
            ("metrics.prom", CLASS_TELEMETRY),
            ("flight/001-crash/spans.jsonl", CLASS_FLIGHT),
            ("flight/001-crash/MANIFEST.json", CLASS_FLIGHT),
            ("journal.jsonl.a1b2c3d4.tmp", CLASS_TEMP),
            ("ckpt-000000004.npz.k_9x0q2z.tmp", CLASS_TEMP),
            ("trace.jsonl.0123abcd.tmp", CLASS_TEMP),
        ],
    )
    def test_classify(self, name, cls):
        assert ResourceGovernor.classify(name) == cls

    def test_usage_by_class(self, tmp_path):
        (tmp_path / "trace.jsonl").write_bytes(b"x" * 100)
        (tmp_path / "journal.jsonl").write_bytes(b"x" * 50)
        bundle = tmp_path / "flight" / "001-c"
        bundle.mkdir(parents=True)
        (bundle / "spans.jsonl").write_bytes(b"x" * 30)
        (tmp_path / "journal.jsonl.a1b2c3d4.tmp").write_bytes(b"x" * 7)
        u = ResourceGovernor(tmp_path).usage()
        assert u == {"durable": 50, "flight": 30, "telemetry": 100, "temp": 7}


def _fill_stream(path, n=200):
    w = RotatingJsonlWriter(
        path, budget=StreamBudget(max_segment_bytes=1024, keep_segments=50)
    )
    for i in range(n):
        w.write_line(json.dumps({"i": i, "pad": "x" * 40}))
    w.close()
    return w


class TestEmergencyRelease:
    def test_evicts_juniors_never_durables(self, tmp_path):
        _fill_stream(tmp_path / "trace.jsonl")
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(b"precious\n" * 10)
        bundle = tmp_path / "flight" / "001-c"
        bundle.mkdir(parents=True)
        (bundle / "spans.jsonl").write_bytes(b"x" * 500)
        gov = ResourceGovernor(tmp_path)
        freed = gov.emergency_release()  # unbounded: take everything junior
        assert freed > 0
        assert journal.read_bytes() == b"precious\n" * 10
        assert sealed_segments(tmp_path / "trace.jsonl") == []
        assert not bundle.exists()
        # the *active* stream file is never a candidate
        assert (tmp_path / "trace.jsonl").exists()
        assert gov.releases == 1 and gov.released_bytes == freed

    def test_stops_at_need_bytes(self, tmp_path):
        _fill_stream(tmp_path / "trace.jsonl")
        gov = ResourceGovernor(tmp_path)
        before = len(sealed_segments(tmp_path / "trace.jsonl"))
        freed = gov.emergency_release(1)  # one segment is enough
        assert freed >= 1
        assert len(sealed_segments(tmp_path / "trace.jsonl")) == before - 1

    def test_telemetry_before_flight(self, tmp_path):
        _fill_stream(tmp_path / "events.jsonl", n=60)
        bundle = tmp_path / "flight" / "001-c"
        bundle.mkdir(parents=True)
        (bundle / "spans.jsonl").write_bytes(b"x" * 10)
        gov = ResourceGovernor(tmp_path)
        gov.emergency_release(1)
        assert bundle.exists(), "flight bundle must outlive sealed telemetry"


class TestCheckpointSpill:
    def _state(self):
        return {"kind": "t", "x": np.arange(8.0)}

    def test_release_retry_then_spill(self, tmp_path):
        _fill_stream(tmp_path / "trace.jsonl", n=100)
        gov = ResourceGovernor(tmp_path)
        mgr = CheckpointManager(
            tmp_path / "ck", spill_dir=tmp_path / "spill", governor=gov
        )
        # primary + post-release retry fail; the spill rung succeeds
        arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=2)]))
        try:
            path = mgr.save(self._state(), step=1)
        finally:
            disarm()
        assert path.parent == tmp_path / "spill"
        assert mgr.spills == 1 and gov.releases == 1
        state, meta, loaded = mgr.load_latest()
        assert loaded == path
        assert np.array_equal(state["x"], np.arange(8.0))

    def test_release_alone_saves_primary(self, tmp_path):
        gov = ResourceGovernor(tmp_path)
        mgr = CheckpointManager(tmp_path / "ck", governor=gov)
        arm(FaultPlan(specs=[FaultSpec(site="io.edquot", times=1)]))
        try:
            path = mgr.save(self._state(), step=1)
        finally:
            disarm()
        assert path.parent == tmp_path / "ck"
        assert gov.releases == 1

    def test_exhaustion_is_fatal(self, tmp_path):
        mgr = CheckpointManager(
            tmp_path / "ck", spill_dir=tmp_path / "spill"
        )
        arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=None)]))
        try:
            with pytest.raises(ResourceExhausted):
                mgr.save(self._state(), step=1)
        finally:
            disarm()

    def test_async_exhaustion_surfaces_on_flush(self, tmp_path):
        mgr = CheckpointManager(tmp_path / "ck")
        arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=None)]))
        try:
            mgr.save_async(self._state(), step=1)
            with pytest.raises(ResourceExhausted):
                mgr.flush()
        finally:
            disarm()

    def test_retention_spans_spill_dir(self, tmp_path):
        mgr = CheckpointManager(
            tmp_path / "ck", keep=2, spill_dir=tmp_path / "spill"
        )
        arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=1)]))
        try:
            spilled = mgr.save(self._state(), step=1)
        finally:
            disarm()
        assert spilled.parent == tmp_path / "spill"
        mgr.save(self._state(), step=2)
        mgr.save(self._state(), step=3)
        names = [p.name for p in mgr.checkpoints()]
        assert names == ["ckpt-000000002.npz", "ckpt-000000003.npz"]
        assert not spilled.exists(), "spilled file obeys the same retention"


class TestMemoryGuard:
    def test_edge_triggered_with_hysteresis(self):
        readings = iter([50, 120, 130, 95, 80, 110])
        guard = MemoryGuard(100, rss_fn=lambda: next(readings))
        assert guard.check() is None  # 50: under
        assert guard.check() == 120  # new breach
        assert guard.check() is None  # 130: still over, edge only
        assert guard.check() is None  # 95: over hysteresis (90), stays armed off
        assert guard.check() is None  # 80: re-arms
        assert guard.check() == 110  # second breach reported
        assert guard.breaches == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryGuard(0)
        with pytest.raises(ValueError):
            MemoryGuard(1, hysteresis=0.0)

    def test_read_rss_is_plausible(self):
        rss = read_rss_bytes()
        assert 1 << 20 < rss < 1 << 40  # more than 1 MiB, less than 1 TiB
