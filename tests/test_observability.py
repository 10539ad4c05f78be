"""End-to-end tests of the live observability plane (DESIGN.md §16).

The acceptance story: run a two-tenant service under a telemetry hub,
then reconstruct one job's full causal history — admission, dispatch,
preemption, resume, checkpoint writes, kernel spans — from a single
``job_id`` filter over ``events.jsonl``/``trace.jsonl``.  Around that
core: correlation-context scoping rules, event-bus sequencing across
manager incarnations, per-tenant SLO burn accounting with
edge-triggered WARNs, flight-recorder post-mortem bundles (including
the CLI ``--die-after`` path), and the ``--watch``/``top`` live views.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.health import HealthMonitor, Severity
from repro.service import JobManager, JobSpec, ServiceConfig
from repro.service.slo import SLOPolicy, SLOTracker
from repro.telemetry import TelemetryHub
from repro.telemetry import context as obs
from repro.telemetry.events import EventBus, read_events
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.tracer import read_trace


@pytest.fixture(autouse=True)
def _clean_correlation_context():
    """Tests must not leak ambient correlation ids into each other."""
    saved = dict(obs._context)
    obs._context.clear()
    yield
    obs._context.clear()
    obs._context.update(saved)


class TestCorrelationContext:
    def test_scope_installs_and_restores(self):
        with obs.scope(job_id=7, tenant="acme", run_id="7.1"):
            assert obs.correlation() == {
                "job_id": 7, "tenant": "acme", "run_id": "7.1"
            }
        assert obs.correlation() == {}

    def test_none_values_are_skipped(self):
        with obs.scope(job_id=1, chunk=None):
            assert obs.correlation() == {"job_id": 1}

    def test_annotations_roll_back_with_the_scope(self):
        with obs.scope(job_id=1):
            obs.annotate(step=3, chunk=0)
            assert obs.correlation()["step"] == 3
            with obs.scope(run_id="1.2"):
                obs.annotate(step=9)
            # The inner scope restored the outer context, annotations
            # made inside it included.
            assert obs.correlation()["step"] == 3
        assert obs.correlation() == {}

    def test_kernel_aggregate_carries_the_ids_of_its_calls(self, tmp_path):
        """An aggregated kernel span is flushed later (at the next
        parent's first call, or at close), when the step may have moved
        on; it is stamped with the ids current when its calls ran."""
        hub = TelemetryHub(tmp_path)
        with obs.scope(run_id="r"):
            obs.annotate(chunk=0, step=3)
            with hub.tracer.span("step"):
                hub.record_gspmv("spmv", 1e-4, nb=4, nnzb=8, b=3, m=1)
                hub.record_gspmv("spmv", 1e-4, nb=4, nnzb=8, b=3, m=1)
            obs.annotate(chunk=1, step=4)
            with hub.tracer.span("step"):
                hub.record_gspmv("spmv", 1e-4, nb=4, nnzb=8, b=3, m=1)
        hub.close()  # outside the scope: no ambient ids left
        spans = [s for s in read_trace(tmp_path / "trace.jsonl") if s.name == "spmv"]
        assert [(s.attrs.get("chunk"), s.attrs.get("step")) for s in spans] == [
            (0, 3), (1, 4)
        ]
        assert [s.attrs.get("calls") for s in spans] == [2, None]
        assert all(s.attrs["run_id"] == "r" for s in spans)

    def test_next_run_id_is_unique(self):
        a, b = obs.next_run_id(), obs.next_run_id()
        assert a != b and a.startswith("run-")


class TestEventBus:
    def test_seq_resumes_past_existing_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus(path)
        for _ in range(3):
            bus.emit("service", "tickover")
        bus.close()
        reborn = EventBus(path)  # a restarted manager, same directory
        event = reborn.emit("service", "recovered")
        reborn.close()
        assert event.seq == 4
        assert [e.seq for e in read_events(path)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("active", ["events", "rotated-away", "torn-only"])
    def test_seq_resumes_from_the_newest_segment_alone(
        self, tmp_path, monkeypatch, active
    ):
        """Over three or more sealed segments, a new bus resumes at the
        right ``seq`` and reads at most two segment files: the active
        one and, when that holds no event, the newest sealed one."""
        from repro.resources import StreamBudget
        from repro.resources.rotate import sealed_segments

        path = tmp_path / "events.jsonl"
        budget = StreamBudget(max_segment_bytes=1024, keep_segments=8)
        bus = EventBus(path, budget=budget)
        while len(sealed_segments(path)) < 3 or path.exists():
            bus.emit("test", "tick", pad="x" * 100)
        if active == "events":
            bus.emit("test", "tick")
        bus.close()
        if active == "torn-only":
            path.write_bytes(b'{"seq": 99')
        last = max(e.seq for e in read_events(path))
        assert last == bus.events_emitted

        read = set()
        real = Path.read_bytes

        def recording(self):
            read.add(self.name)
            return real(self)

        monkeypatch.setattr(Path, "read_bytes", recording)
        reborn = EventBus(path, budget=budget)
        assert reborn.emit("test", "resumed").seq == last + 1
        reborn.close()
        assert len(read) <= 2
        assert read <= {path.name, sealed_segments(path)[-1].name}

    def test_explicit_ids_beat_the_ambient_scope(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        with obs.scope(job_id=1, tenant="acme"):
            event = bus.emit("service", "shed", job_id=2, reason="overload")
        bus.close()
        assert event.correlation["job_id"] == 2  # the manager knows best
        assert event.correlation["tenant"] == "acme"
        assert event.attrs == {"reason": "overload"}

    def test_listeners_feed_the_flight_ring(self, tmp_path):
        recorder = FlightRecorder(event_ring=2)
        bus = EventBus(tmp_path / "events.jsonl")
        bus.listeners.append(recorder.note_event)
        for i in range(5):
            bus.emit("engine", "demote", engine=f"e{i}")
        bus.close()
        assert [e.attrs["engine"] for e in recorder.events] == ["e3", "e4"]
        assert bus.events_emitted == 5


class _ServiceRun:
    """One preempting two-tenant service run, shared by the join and
    live-view tests (building it is the slow part)."""

    def __init__(self, root):
        import repro.telemetry as telemetry

        self.svc = root / "svc"
        self.tel = root / "tel"
        hub = TelemetryHub(self.tel, export_interval=0.0)
        # Installing the hub is what lets the kernel hot paths and the
        # runner's checkpoint events reach it (same as ``repro serve``).
        telemetry.install(hub)
        try:
            cfg = ServiceConfig(quantum=4, checkpoint_every=2)
            mgr = JobManager(self.svc, config=cfg, telemetry=hub)
            mgr.submit(
                JobSpec(name="heavy", n=8, steps=6, seed=1, tenant="acme")
            )
            mgr.submit(
                JobSpec(
                    name="light", n=8, steps=2, seed=2, tenant="beta",
                    priority=2,
                )
            )
            self.report = mgr.run()
            mgr.close()
            hub.close()
        finally:
            telemetry.uninstall()


@pytest.fixture(scope="module")
def service_run(tmp_path_factory):
    return _ServiceRun(tmp_path_factory.mktemp("obs"))


class TestCorrelationJoin:
    """The e2e acceptance: one job_id filter rebuilds the causal story."""

    def test_events_are_causally_ordered(self, service_run):
        events = read_events(service_run.tel / "events.jsonl")
        assert events
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_one_job_id_reconstructs_the_story(self, service_run):
        assert service_run.report.completed == 2
        events = read_events(service_run.tel / "events.jsonl")
        story = [
            e for e in events if e.correlation.get("job_id") == 1
        ]
        service = [e.kind for e in story if e.category == "service"]
        # heavy (6 steps, quantum 4) is admitted, dispatched, preempted
        # at step 4, resumed, and finished — in that causal order.
        for earlier, later in zip(
            ["submit", "admit", "dispatch", "preempt", "resume", "done"],
            ["admit", "dispatch", "preempt", "resume", "done", None],
        ):
            if later is None:
                break
            assert service.index(earlier) < service.index(later), service
        assert all(
            e.correlation.get("tenant") == "acme"
            for e in story
            if e.category == "service"
        )
        resume = next(e for e in story if e.kind == "resume")
        assert resume.attrs["from_step"] == 4
        assert (
            resume.correlation["run_id"]
            == f"1.{resume.attrs['dispatch']}"
        )

    def test_checkpoint_writes_join_the_story(self, service_run):
        events = read_events(service_run.tel / "events.jsonl")
        writes = [
            e
            for e in events
            if e.category == "checkpoint"
            and e.correlation.get("job_id") == 1
        ]
        assert writes, "no correlated checkpoint writes on the bus"
        for e in writes:
            assert e.correlation["run_id"].startswith("1.")
            assert e.attrs["path"].endswith(".npz")

    def test_kernel_spans_carry_the_correlation_triple(self, service_run):
        spans = read_trace(service_run.tel / "trace.jsonl")
        kernels = [
            s
            for s in spans
            if s.name in ("gspmv", "spmv")
            and s.attrs.get("job_id") == 1
        ]
        assert kernels, "no kernel spans joined to job 1"
        for s in kernels:
            assert str(s.attrs["run_id"]).startswith("1.")
            assert s.attrs["tenant"] == "acme"

    def test_exporter_ran_during_the_service_loop(self, service_run):
        from repro.telemetry.exporter import parse_prometheus_text

        parsed = parse_prometheus_text(
            (service_run.tel / "metrics.prom").read_text()
        )
        assert parsed["samples"]["telemetry_exports"][0] >= 1
        depth_keys = [
            k
            for k in parsed["samples"]
            if k.startswith("service_queue_depth")
        ]
        assert depth_keys  # per-state gauges made it to the exposition
        history = (service_run.tel / "metrics.jsonl").read_text()
        assert len(history.splitlines()) >= 1


class TestSLOTracker:
    def _tracker(self, **overrides):
        kwargs = dict(
            latency_target_ticks=2,
            error_budget=0.5,
            window=4,
            min_samples=2,
        )
        kwargs.update(overrides)
        policy = SLOPolicy(**kwargs)
        hub = TelemetryHub()  # directory-less: in-memory ring only
        monitor = HealthMonitor(checks=())
        return SLOTracker(policy, hub=hub, monitor=monitor), hub, monitor

    def test_burn_rate_math(self):
        tracker, hub, _ = self._tracker()
        assert tracker.observe("acme", latency_ticks=1) == 0.0  # hit
        # One miss in two: 0.5 miss fraction / 0.5 budget = burn 1.0.
        assert tracker.observe("acme", latency_ticks=9) == pytest.approx(1.0)
        assert not tracker.violating("acme")  # burn == threshold, not over
        assert hub.metrics.counter_value("slo.hits", tenant="acme") == 1.0
        assert hub.metrics.counter_value("slo.misses", tenant="acme") == 1.0
        assert tracker.tenants() == {"acme": pytest.approx(1.0)}

    def test_sustained_burn_warns_once_then_recovers(self):
        tracker, hub, monitor = self._tracker()
        tracker.observe("acme", latency_ticks=1)
        tracker.observe("acme", latency_ticks=9)
        tracker.observe("acme", latency_ticks=9, failed=True)  # burn > 1
        assert tracker.violating("acme")
        tracker.observe("acme", latency_ticks=9)  # still burning
        # Edge-triggered: one WARN for the whole burning episode.
        warns = [
            r
            for r in monitor.report.results
            if r.check == "slo:acme" and r.severity is Severity.WARN
        ]
        assert len(warns) == 1
        assert monitor.report.worst() is Severity.WARN
        # Burn events record *every* burning observation, though.
        burns = [e for e in hub.recorder.events if e.kind == "burn"]
        assert len(burns) >= 2
        assert burns[-1].correlation["tenant"] == "acme"
        assert burns[-1].attrs["burn"] > 1.0
        # Hits flush the window; crossing back emits "recovered".
        for _ in range(3):
            tracker.observe("acme", latency_ticks=1)
        assert not tracker.violating("acme")
        assert any(e.kind == "recovered" for e in hub.recorder.events)

    def test_failed_job_is_a_miss_regardless_of_latency(self):
        tracker, hub, _ = self._tracker()
        tracker.observe("beta", latency_ticks=1, failed=True)
        assert hub.metrics.counter_value("slo.misses", tenant="beta") == 1.0

    def test_cold_start_guard(self):
        tracker, _, monitor = self._tracker(min_samples=4)
        for _ in range(3):
            tracker.observe("acme", latency_ticks=99)  # all misses
        assert not tracker.violating("acme")  # under min_samples
        assert monitor.report.worst() is Severity.OK

    def test_manager_observes_slo_per_finished_job(self, service_run):
        doc = json.loads(
            (service_run.tel / "metrics.json").read_text()
        )
        hits = {
            k: v
            for k, v in doc["counters"].items()
            if k.startswith("slo.hits")
        }
        assert "slo.hits{tenant=acme}" in hits
        assert "slo.hits{tenant=beta}" in hits
        assert "slo.latency_ticks{tenant=acme}" in doc["histograms"]


class TestFlightRecorder:
    def test_dump_bundle_is_a_self_contained_post_mortem(self, tmp_path):
        hub = TelemetryHub(tmp_path)
        with obs.scope(job_id=3, tenant="acme", run_id="3.1"):
            with hub.tracer.span("chunk", index=0):
                hub.record_gspmv("gspmv", 1e-3, nb=4, nnzb=8, b=3, m=8)
            hub.emit_event("health", "warn", check="drift")
            bundle = hub.dump_flight("resilience-exhausted", error="boom")
        hub.close()
        assert bundle == tmp_path / "flight" / "001-resilience-exhausted"
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert manifest["reason"] == "resilience-exhausted"
        assert manifest["error"] == "boom"
        assert manifest["correlation"]["job_id"] == 3
        spans = read_trace(bundle / "spans.jsonl")
        assert any(s.name == "gspmv" for s in spans)
        assert all(
            s.attrs.get("job_id") == 3 for s in spans
        )
        events = read_events(bundle / "events.jsonl")
        assert [e.kind for e in events] == ["warn"]
        metrics = json.loads((bundle / "metrics.json").read_text())
        assert "gspmv.calls{m=8}" in metrics["counters"]

    def test_successive_dumps_get_numbered_bundles(self, tmp_path):
        hub = TelemetryHub(tmp_path)
        first = hub.dump_flight("kill")
        second = hub.dump_flight("kill")
        hub.close()
        assert first.name == "001-kill" and second.name == "002-kill"

    def test_directoryless_hub_cannot_dump(self):
        assert TelemetryHub().dump_flight("kill") is None

    def test_cli_kill_leaves_a_flight_bundle(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        rc = main(
            [
                "simulate", "--n", "8", "--m", "4", "--steps", "8",
                "--die-after", "5", "--checkpoint-every", "4",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--telemetry-dir", str(tel),
            ]
        )
        assert rc == 3  # the kill exit code
        bundle = tel / "flight" / "001-simulation-killed"
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert "kill" in manifest["error"]
        assert manifest["spans"] > 0


class TestLiveViews:
    def test_top_once_renders_the_exporter_snapshot(
        self, service_run, capsys
    ):
        rc = main(["top", str(service_run.tel), "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tenant acme" in out and "tenant beta" in out
        assert "service/done" in out  # the unified event tail

    def test_top_falls_back_to_the_stream_history(
        self, service_run, tmp_path, capsys
    ):
        # A torn metrics.json (mid-swap crash) must not blank the view:
        # top falls back to the newest complete metrics.jsonl line.
        import shutil

        torn = tmp_path / "torn"
        shutil.copytree(service_run.tel, torn)
        (torn / "metrics.json").write_text('{"counters": {')
        rc = main(["top", str(torn), "--once"])
        out = capsys.readouterr().out
        assert rc == 0 and "tenant acme" in out

    def test_jobs_watch_renders_repeatedly(self, service_run, capsys):
        rc = main(
            [
                "jobs", str(service_run.svc),
                "--watch", "0.01", "--watch-count", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("heavy") >= 2  # two rendered frames

    def test_report_watch_renders_repeatedly(self, service_run, capsys):
        rc = main(
            [
                "report", str(service_run.tel),
                "--watch", "0.01", "--watch-count", "2",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.count("metrics") >= 2

    def test_job_table_carries_the_tenant_column(self, service_run, capsys):
        rc = main(["jobs", str(service_run.svc), "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert {r["tenant"] for r in rows} == {"acme", "beta"}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
