"""The ``io.*`` fault sites and write-path durability.

Covers: every writer raises a *real* ``OSError`` with the matching
errno when a drill fires (so drills and real failures share one
``except OSError``), the atomic writers leave no temp droppings and
never clobber the destination, the journal's append survives ENOSPC by
releasing junior space and rewriting, and — the regression satellite —
the parent directory is fsynced after the atomic rename on the
success path (rename durability; see :func:`repro.io.fsync_dir`).
"""

import errno
import os

import numpy as np
import pytest

from repro.io import atomic_savez, atomic_write_text, fsync_dir
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    arm,
    disarm,
    fault_site_catalogue,
)
from repro.resources import IO_FAULT_SITES, ResourceGovernor
from repro.service import JobJournal


@pytest.fixture(autouse=True)
def _disarm():
    yield
    disarm()


class TestFaultSites:
    def test_sites_registered(self):
        catalogue = fault_site_catalogue()
        for site in ("io.enospc", "io.edquot", "io.eio"):
            assert site in catalogue

    @pytest.mark.parametrize(
        "site, eno",
        [
            ("io.enospc", errno.ENOSPC),
            ("io.edquot", errno.EDQUOT),
            ("io.eio", errno.EIO),
        ],
    )
    def test_errno_matches_site(self, tmp_path, site, eno):
        assert IO_FAULT_SITES[site] == eno
        arm(FaultPlan(specs=[FaultSpec(site=site, times=1)]))
        with pytest.raises(OSError) as exc_info:
            atomic_write_text(tmp_path / "t.txt", "hello")
        assert exc_info.value.errno == eno

    def test_savez_fault_leaves_no_droppings(self, tmp_path):
        target = tmp_path / "a.npz"
        atomic_savez(target, x=np.arange(3))
        before = target.read_bytes()
        arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=1)]))
        with pytest.raises(OSError):
            atomic_savez(target, x=np.arange(9))
        disarm()
        # destination untouched, no temp files left behind
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]

    def test_write_text_fault_leaves_no_droppings(self, tmp_path):
        target = tmp_path / "t.txt"
        target.write_text("old")
        arm(FaultPlan(specs=[FaultSpec(site="io.eio", times=1)]))
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        disarm()
        assert target.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]

    def test_at_filter_scopes_by_writer(self, tmp_path):
        """`at={"writer": ...}` lets a drill target one write path."""
        arm(
            FaultPlan(
                specs=[
                    FaultSpec(
                        site="io.enospc",
                        at={"writer": "atomic_savez"},
                        times=None,
                    )
                ]
            )
        )
        atomic_write_text(tmp_path / "ok.txt", "fine")  # different writer
        with pytest.raises(OSError):
            atomic_savez(tmp_path / "no.npz", x=np.arange(2))


class TestDirFsyncRegression:
    """Satellite: after ``os.replace`` the parent directory must be
    fsynced, else the rename itself is not durable."""

    def _record_fsyncs(self, monkeypatch, tmp_path):
        synced = []
        real_fsync = os.fsync
        real_open = os.open

        fd_paths = {}

        def tracking_open(path, flags, *a, **kw):
            fd = real_open(path, flags, *a, **kw)
            fd_paths[fd] = os.fspath(path)
            return fd

        def tracking_fsync(fd):
            synced.append(fd_paths.get(fd, "<file>"))
            return real_fsync(fd)

        monkeypatch.setattr(os, "open", tracking_open)
        monkeypatch.setattr(os, "fsync", tracking_fsync)
        return synced

    def test_savez_fsyncs_parent_dir(self, tmp_path, monkeypatch):
        synced = self._record_fsyncs(monkeypatch, tmp_path)
        atomic_savez(tmp_path / "a.npz", x=np.arange(3))
        assert os.fspath(tmp_path) in synced

    def test_write_text_fsyncs_parent_dir(self, tmp_path, monkeypatch):
        synced = self._record_fsyncs(monkeypatch, tmp_path)
        atomic_write_text(tmp_path / "t.txt", "hello")
        assert os.fspath(tmp_path) in synced

    def test_fsync_false_skips_dir_fsync(self, tmp_path, monkeypatch):
        synced = self._record_fsyncs(monkeypatch, tmp_path)
        atomic_savez(tmp_path / "a.npz", x=np.arange(3), fsync=False)
        atomic_write_text(tmp_path / "t.txt", "hello", fsync=False)
        assert os.fspath(tmp_path) not in synced

    def test_fsync_dir_helper(self, tmp_path):
        fsync_dir(tmp_path / "anything.txt")  # parent exists: no raise
        with pytest.raises(OSError):
            fsync_dir(tmp_path / "missing" / "deep.txt")


class TestJournalUnderPressure:
    def _fill_juniors(self, directory):
        from repro.resources import RotatingJsonlWriter, StreamBudget
        import json as _json

        w = RotatingJsonlWriter(
            directory / "trace.jsonl",
            budget=StreamBudget(max_segment_bytes=1024, keep_segments=50),
        )
        for i in range(200):
            w.write_line(_json.dumps({"i": i, "pad": "x" * 40}))
        w.close()

    def test_append_retries_after_release(self, tmp_path):
        self._fill_juniors(tmp_path)
        gov = ResourceGovernor(tmp_path)
        path = tmp_path / "journal.jsonl"
        with JobJournal(path, governor=gov) as journal:
            journal.append({"t": "submit", "job": 1, "tick": 0})
            arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=1)]))
            journal.append({"t": "admit", "job": 1, "tick": 1})
            disarm()
            journal.append({"t": "done", "job": 1, "tick": 2})
        assert gov.releases == 1
        records, valid = JobJournal.scan(path)
        assert [r["t"] for r in records] == ["submit", "admit", "done"]
        assert valid == path.stat().st_size

    def test_append_double_failure_propagates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.append({"t": "submit", "job": 1, "tick": 0})
            arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=None)]))
            with pytest.raises(OSError):
                journal.append({"t": "admit", "job": 1, "tick": 1})
            disarm()
        # the journal still replays its longest valid prefix
        records, _ = JobJournal.scan(path)
        assert [r["t"] for r in records] == ["submit"]


# ----------------------------------------------------------------------
# Every atomic publish shows an io.* drill and cleans up after it.
# ----------------------------------------------------------------------
def _savez_site(tmp_path):
    dest = tmp_path / "a.npz"
    atomic_savez(dest, x=np.arange(3))
    return dest, lambda: atomic_savez(dest, x=np.arange(9)), None


def _write_text_site(tmp_path):
    dest = tmp_path / "t.txt"
    atomic_write_text(dest, "old")
    return dest, lambda: atomic_write_text(dest, "new"), None


def _autotune_site(tmp_path):
    from repro.sparse.autotune import CACHE_FILENAME, AutoSelector
    from repro.sparse.kernels import KernelRegistry

    sel = AutoSelector(KernelRegistry(), cache_dir=tmp_path)
    sel._memory["a"] = {"engine": "scipy"}
    sel._persist(tmp_path)

    def attempt():
        sel._memory["b"] = {"engine": "blocked"}
        sel._persist(tmp_path)

    # Absorbed: the selection stays memory-only.
    return tmp_path / CACHE_FILENAME, attempt, lambda: set(sel._memory) == {
        "a", "b"
    }


def _hub_site(tmp_path):
    from repro.telemetry import TelemetryHub

    hub = TelemetryHub(tmp_path)
    hub.flush()
    shed = hub.metrics.counter("telemetry.shed", stream="metrics")

    def attempt():
        hub.metrics.counter("steps.completed").inc()
        hub.flush()

    # Absorbed: the lost snapshot is counted as shed telemetry.
    return tmp_path / "metrics.json", attempt, lambda: shed.value == 1


def _compaction_site(tmp_path):
    from repro.service.journal import SNAPSHOT_KIND

    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.append({"t": "submit", "job": 1, "tick": 0})
    journal.append({"t": "admit", "job": 1, "tick": 1})
    journal.close()
    return path, lambda: journal.compact({"t": SNAPSHOT_KIND}), None


@pytest.mark.parametrize(
    "writer, site",
    [
        ("atomic_savez", _savez_site),
        ("atomic_write_text", _write_text_site),
        ("autotune", _autotune_site),
        ("telemetry_hub", _hub_site),
        ("journal_compact", _compaction_site),
    ],
)
def test_publish_fault_is_visible_and_leaves_no_trace(tmp_path, writer, site):
    dest, attempt, absorbed = site(tmp_path)
    before = dest.read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    arm(
        FaultPlan(
            specs=[
                FaultSpec(site="io.enospc", at={"writer": writer}, times=None)
            ]
        )
    )
    if absorbed is None:
        with pytest.raises(OSError) as exc_info:
            attempt()
        assert exc_info.value.errno == errno.ENOSPC
    else:
        attempt()
        assert absorbed()
    disarm()
    assert dest.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names
