"""Tests for repro.util.timer."""

import pytest

from repro.util.timer import Stopwatch, TimingRecord


class TestStopwatch:
    def test_phase_accumulates(self):
        sw = Stopwatch()
        with sw.phase("a"):
            pass
        with sw.phase("a"):
            pass
        rec = sw.record()
        assert rec.counts["a"] == 2
        assert rec.phases["a"] >= 0.0

    def test_exception_inside_phase_still_recorded(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            with sw.phase("boom"):
                raise RuntimeError
        assert sw.record().counts["boom"] == 1


class TestTimingRecord:
    def test_total(self):
        rec = TimingRecord(phases={"a": 3.0, "b": 1.0}, counts={"a": 1, "b": 1})
        assert rec.total() == pytest.approx(4.0)
        assert TimingRecord(phases={}, counts={}).total() == 0.0
