"""The durable-I/O core: atomic publish, the torn-tail rule, tail repair.

The regression at the centre: an appender that resumes a file whose
last line was torn must cut the fragment first.  Otherwise the first
new line glues onto it, and the newest-segment prefix rule drops every
line appended after the crash (DESIGN.md, "Durable I/O").
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.durable import publish, remove_orphans, repair_tail, scan, tail_end
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultPlan, FaultSpec, arm, disarm
from repro.resources import (
    CLASS_TEMP,
    ResourceGovernor,
    RotatingJsonlWriter,
    StreamBudget,
    read_jsonl_stream,
    seal_valid,
    sealed_segments,
)
from repro.service import JobJournal
from repro.service.journal import _encode
from repro.telemetry.events import EventBus, read_events
from repro.telemetry.tracer import JsonlSink, Tracer, read_trace


@pytest.fixture(autouse=True)
def _disarm():
    yield
    disarm()


def _cut_tail(path, nbytes=10):
    """Tear the final line mid-byte, as a crash mid-append would."""
    raw = path.read_bytes()
    path.write_bytes(raw[:-nbytes])


class TestScan:
    def test_prefix_ends_at_first_rejected_line(self):
        data = b'{"a": 1}\n{"a": 2}\n{"a"\n{"a": 4}\n'
        items, end = scan(data, json.loads)
        assert items == [{"a": 1}, {"a": 2}]
        assert end == data.index(b'{"a"\n')

    def test_unterminated_final_line_counts_iff_it_decodes(self):
        items, end = scan(b'{"a": 1}\n{"a": 2}', json.loads)
        assert items == [{"a": 1}, {"a": 2}] and end == 17
        items, end = scan(b'{"a": 1}\n{"a": 2', json.loads)
        assert items == [{"a": 1}] and end == 9

    def test_empty(self):
        assert scan(b"", json.loads) == ([], 0)
        assert tail_end(b"", json.loads) == 0

    def test_tail_end_judges_the_final_line_alone(self):
        # A corrupt middle line is not the appender's business.
        data = b'{"a": 1}\nxx\n{"a": 3}\n'
        assert tail_end(data, json.loads) == len(data)
        assert tail_end(data + b'{"a": 4', json.loads) == len(data)
        assert tail_end(data + b'{"a": 4}', json.loads) == len(data) + 8


class TestRepairTail:
    def test_truncates_then_terminates(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": 2')
        kept = repair_tail(path, path.read_bytes(), 9)
        assert kept == path.read_bytes() == b'{"a": 1}\n'

    def test_adds_the_missing_newline(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a": 1}')
        assert repair_tail(path, b'{"a": 1}', 8) == b'{"a": 1}\n'
        assert path.read_bytes() == b'{"a": 1}\n'

    def test_clean_file_is_left_alone(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a": 1}\n')
        before = path.stat().st_mtime_ns
        assert repair_tail(path, b'{"a": 1}\n', 9) == b'{"a": 1}\n'
        assert path.stat().st_mtime_ns == before


class TestPublish:
    def test_failed_write_leaves_destination_and_no_temp(self, tmp_path):
        dest = tmp_path / "out.bin"
        publish(dest, lambda fh: fh.write(b"old"), writer="test")

        def explode(fh):
            fh.write(b"half")
            raise RuntimeError("crash")

        with pytest.raises(RuntimeError):
            publish(dest, explode, writer="test")
        assert dest.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_writer_can_read_back_before_the_swap(self, tmp_path):
        seen = []

        def write(fh):
            fh.write(b"payload")
            fh.seek(0)
            seen.append(fh.read())

        publish(tmp_path / "out.bin", write, writer="test", fsync=False)
        assert seen == [b"payload"]
        assert (tmp_path / "out.bin").read_bytes() == b"payload"

    def test_fires_the_io_fault_sites_with_its_writer_label(self, tmp_path):
        arm(FaultPlan(specs=[FaultSpec(site="io.eio", at={"writer": "x"})]))
        publish(tmp_path / "a", lambda fh: fh.write(b"1"), writer="y")
        with pytest.raises(OSError):
            publish(tmp_path / "b", lambda fh: fh.write(b"1"), writer="x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]


_KILL_INSIDE_PUBLISH = """
import os, signal, sys
from repro.durable import publish

def die(fh):
    fh.write(b"half")
    fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)

publish(sys.argv[1], die, writer="test")
"""


def _kill_inside_publish(dest):
    """Publish ``dest`` in a child process SIGKILLed mid-write; returns
    the temp file the kill left beside it."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_INSIDE_PUBLISH, str(dest)], env=env
    )
    assert proc.returncode == -signal.SIGKILL
    (temp,) = dest.parent.glob(dest.name + ".*.tmp")
    return temp


class TestOrphanedTemps:
    def test_a_killed_publish_leaves_a_temp_that_is_not_durable(self, tmp_path):
        dest = tmp_path / "journal.jsonl"
        dest.write_bytes(b"old\n")
        temp = _kill_inside_publish(dest)
        assert dest.read_bytes() == b"old\n"
        assert ResourceGovernor.classify(temp) == CLASS_TEMP
        usage = ResourceGovernor(tmp_path).usage()
        assert usage["durable"] == 4 and usage["temp"] == 4

    def test_journal_recovery_removes_the_compaction_temp(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.append({"op": "submit", "job_id": 1})
        journal.close()
        temp = _kill_inside_publish(journal.path)
        other = tmp_path / "spec.json.abcd1234.tmp"
        other.write_bytes(b"someone else's")
        records = JobJournal(journal.path).recover()
        assert [r["job_id"] for r in records] == [1]
        assert not temp.exists() and other.exists()

    def test_checkpoint_manager_start_removes_save_temps(self, tmp_path):
        temp = _kill_inside_publish(tmp_path / "ckpt-000000003.npz")
        other = tmp_path / "other.npz.abcd1234.tmp"
        other.write_bytes(b"not a checkpoint")
        CheckpointManager(tmp_path)
        assert not temp.exists() and other.exists()

    def test_a_publish_in_flight_keeps_its_temp(self, tmp_path):
        seen = []

        def write(fh):
            fh.write(b"payload")
            seen.append(remove_orphans(tmp_path, "out.bin"))
            seen.append(len(list(tmp_path.glob("out.bin.*.tmp"))))

        publish(tmp_path / "out.bin", write, writer="test", fsync=False)
        assert seen == [[], 1]
        assert (tmp_path / "out.bin").read_bytes() == b"payload"

    def test_concurrent_removal_never_takes_a_live_temp(self, tmp_path):
        """Publishers race a remover: every publish must still land."""
        errors = []
        stop = threading.Event()

        def publisher(k):
            try:
                for i in range(40):
                    publish(
                        tmp_path / f"ckpt-{k}.npz",
                        lambda fh, i=i: fh.write(b"%d" % i),
                        writer="test", fsync=False,
                    )
            except OSError as exc:  # a temp removed under a publish
                errors.append(exc)

        def remover():
            while not stop.is_set():
                remove_orphans(tmp_path, "ckpt-*")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweeper = threading.Thread(target=remover)
            sweeper.start()
            workers = [
                threading.Thread(target=publisher, args=(k,))
                for k in range(2 * (os.cpu_count() or 1) + 2)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            stop.set()
            sweeper.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not sweeper.is_alive()
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert all(
            (tmp_path / f"ckpt-{k}.npz").read_bytes() == b"39"
            for k in range(len(workers))
        )


class TestAppendAfterTornTail:
    """Every record that survives the crash, plus every record appended
    after it, reads back with nothing skipped."""

    def test_event_bus(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus(path)
        for i in range(4):
            bus.emit("test", "tick", i=i)
        bus.close()
        _cut_tail(path)
        bus = EventBus(path)
        for i in range(4, 7):
            bus.emit("test", "tick", i=i)
        bus.close()
        events, skipped = read_events(path, with_stats=True)
        assert skipped == 0
        assert [e.attrs["i"] for e in events] == [0, 1, 2, 4, 5, 6]
        assert [e.seq for e in events] == [1, 2, 3, 4, 5, 6]

    def test_tracer_jsonl_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"

        def spans(ids):
            sink = JsonlSink(path)
            tracer = Tracer(sink)
            for i in ids:
                with tracer.span("step", i=i):
                    pass
            tracer.drain()
            sink.close()

        spans(range(4))
        _cut_tail(path)
        spans(range(4, 7))
        events, skipped = read_trace(path, with_stats=True)
        assert skipped == 0
        assert [e.attrs["i"] for e in events] == [0, 1, 2, 4, 5, 6]

    def test_stream_recovering_from_shed_mode(self, tmp_path):
        """A fragment left while the writer was shedding is cut before
        the first append that reaches the disk again."""
        path = tmp_path / "s.jsonl"
        w = RotatingJsonlWriter(path, budget=None, retry_every=1)
        w.write_line(json.dumps({"i": 0}))
        arm(FaultPlan(specs=[FaultSpec(site="io.enospc", times=1)]))
        w.write_line(json.dumps({"i": 1}))
        assert w.shedding
        disarm()
        with open(path, "ab") as fh:
            fh.write(b'{"i": 1, "pa')
        w.write_line(json.dumps({"i": 2}))
        w.close()
        items, skipped = read_jsonl_stream(path, json.loads)
        assert skipped == 0
        assert [d["i"] for d in items] == [0, 2]

    def test_rotation_seal_covers_the_repaired_file(self, tmp_path):
        """Accounting resumes over the repaired bytes, so the segment
        sealed after a repair still verifies."""
        path = tmp_path / "s.jsonl"
        budget = StreamBudget(max_segment_bytes=1024, keep_segments=4)
        w = RotatingJsonlWriter(path, budget=budget)
        for i in range(5):
            w.write_line(json.dumps({"i": i, "pad": "x" * 40}))
        w.close()
        _cut_tail(path)
        w = RotatingJsonlWriter(path, budget=budget)
        for i in range(5, 40):
            w.write_line(json.dumps({"i": i, "pad": "x" * 40}))
        w.close()
        segments = sealed_segments(path)
        assert segments and all(seal_valid(s) for s in segments)
        items, skipped = read_jsonl_stream(path, json.loads)
        assert skipped == 0
        assert [d["i"] for d in items] == [0, 1, 2, 3] + list(range(5, 40))


class TestJournalTail:
    def test_complete_record_missing_its_newline_is_kept(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.append({"t": "submit", "job": 1, "tick": 0})
            journal.append({"t": "admit", "job": 1, "tick": 1})
        path.write_bytes(path.read_bytes()[:-1])
        with JobJournal(path) as journal:
            assert len(journal.recover()) == 2
            assert path.read_bytes().endswith(b"\n")
            journal.append({"t": "done", "job": 1, "tick": 2})
        records, valid = JobJournal.scan(path)
        assert [r["t"] for r in records] == ["submit", "admit", "done"]
        assert valid == path.stat().st_size

    def test_retry_never_duplicates_a_record_that_landed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append({"t": "submit", "job": 1, "tick": 0})
        payload = _encode(2, {"t": "admit", "job": 1, "tick": 1})
        with open(path, "ab") as fh:  # the "failed" write got it all out
            fh.write(payload[:-1])
        journal._retry_append(2, payload)
        journal.close()
        records, valid = JobJournal.scan(path)
        assert [r["t"] for r in records] == ["submit", "admit"]
        assert valid == path.stat().st_size


class TestReadersSeeRotatedStreams:
    """Right after a rotation the active file does not exist; readers
    must still find the sealed segments."""

    BUDGET = StreamBudget(max_segment_bytes=1024, keep_segments=4)

    def test_bus_resumes_its_sequence(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus(path, budget=self.BUDGET)
        while path.exists() or not sealed_segments(path):
            bus.emit("test", "tick", pad="x" * 100)
        bus.close()
        emitted = bus.events_emitted
        bus = EventBus(path, budget=self.BUDGET)
        assert bus.emit("test", "tick").seq == emitted + 1
        bus.close()

    def test_repro_trace_renders(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, budget=self.BUDGET)
        tracer = Tracer(sink)
        while path.exists() or not sealed_segments(path):
            with tracer.span("step"):
                pass
            tracer.drain()
        sink.close()
        assert main(["trace", str(tmp_path)]) == 0
        assert "spans)" in capsys.readouterr().out


def test_top_renders_the_last_snapshot_after_rotation(tmp_path, capsys):
    """``metrics.json`` absent and ``metrics.jsonl`` just rotated away:
    ``repro top`` reads the newest snapshot from the sealed segments."""
    budget = StreamBudget(max_segment_bytes=1024, keep_segments=2)
    w = RotatingJsonlWriter(
        tmp_path / "metrics.jsonl", budget=budget, stream="metrics"
    )
    for export in (1, 2):
        w.write_line(json.dumps({
            "export": export,
            "counters": {"steps.completed": 40 + export},
            "gauges": {},
            "histograms": {},
            "pad": "x" * 1024,
        }))
    w.close()
    assert not (tmp_path / "metrics.jsonl").exists()
    assert not (tmp_path / "metrics.json").exists()
    rc = main(["top", str(tmp_path), "--once"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps completed: 42" in out
