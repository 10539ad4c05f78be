"""Telemetry under failure (satellite: rejection + fault-abort paths).

Pins the two contracts the resilient runner's step loop makes to the
telemetry layer:

* every span closes when a step is rejected or a chunk aborts — no
  orphan spans survive an exception path;
* a rejected attempt's metrics are withdrawn (``snapshot``/``restore``
  around each attempt), so counters track the *accepted* timeline; the
  final aborted attempt is deliberately left in place as a post-mortem.
"""

import pytest

import repro.telemetry as _telemetry
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.health.invariants import InvariantCheck, Severity
from repro.health.monitor import HealthMonitor
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilienceExhausted,
    ResilientRunner,
)
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration
from repro.telemetry import TelemetryHub


@pytest.fixture
def hub():
    h = TelemetryHub()  # in-memory: no directory, events stay buffered
    yield h
    _telemetry.uninstall()


def _sd(hub, seed=0, n=24, phi=0.2, **params):
    system = random_configuration(n, phi, rng=seed)
    return StokesianDynamics(
        system, SDParameters(**params), rng=seed + 1, telemetry=hub
    )


def _mrhs(hub, seed=0, n=24, phi=0.2, m=4, **params):
    system = random_configuration(n, phi, rng=seed)
    return MrhsStokesianDynamics(
        system, SDParameters(**params), MrhsParameters(m=m),
        rng=seed + 1, telemetry=hub,
    )


def _nan_plan(step, times=1):
    return FaultPlan(
        specs=(
            FaultSpec(
                site="brownian.forcing", kind="nan", at={"step": step},
                times=times,
            ),
        )
    )


class _AlwaysFatal(InvariantCheck):
    name = "always-fatal"

    def check(self, ctx):
        return self._result(ctx, Severity.FATAL, "synthetic violation")


def _step_events(hub):
    return [e for e in hub.tracer.buffered if e.name == "step"]


class TestSpansCloseOnRejection:
    def test_rejected_attempt_spans_all_closed(self, hub):
        driver = _sd(hub)
        runner = ResilientRunner(driver, injector=_nan_plan(step=1))
        # Step 0 is clean; step 1 is rejected and retried.
        report = runner.run_steps(2)
        assert report.retries == 1
        assert hub.tracer.open_spans == 0
        # One span per attempt: clean step, rejected attempt, accepted
        # retry — the rejected attempt's span is closed, not orphaned.
        assert len(_step_events(hub)) == 3
        assert not any(e.attrs.get("leaked") for e in hub.tracer.buffered)

    def test_exhaustion_abort_closes_spans(self, hub):
        driver = _sd(hub)
        monitor = HealthMonitor([_AlwaysFatal()])
        runner = ResilientRunner(driver, max_retries=2, monitor=monitor)
        with pytest.raises(ResilienceExhausted, match="always-fatal"):
            runner.run_steps(1)
        assert hub.tracer.open_spans == 0
        assert len(_step_events(hub)) == 3  # initial + 2 retries
        assert not any(e.attrs.get("leaked") for e in hub.tracer.buffered)

    def test_quarantined_chunk_run_leaves_no_orphans(self, hub):
        driver = _mrhs(hub, m=4)
        monitor = HealthMonitor()
        runner = ResilientRunner(
            driver, injector=_nan_plan(step=3), monitor=monitor
        )
        report = runner.run_steps(8)
        assert report.steps_completed == 8
        assert report.quarantines == 1
        assert hub.tracer.open_spans == 0
        # The trace is append-only: it keeps the *attempted* timeline
        # (chunk 0's rejected finish included), while the counters are
        # rolled back to the accepted one.  Either way no span is left
        # open and every chunk appears exactly once.
        chunks = [e for e in hub.tracer.buffered if e.name == "chunk"]
        assert [e.attrs["chunk"] for e in chunks] == [0, 1]
        assert driver.chunks[0].quarantined

    def test_close_force_closes_pending_chunk(self, hub):
        driver = _mrhs(hub, m=4)
        driver.begin_chunk()
        driver.step_in_chunk()
        assert hub.tracer.open_spans == 1  # the live chunk span
        hub.close(killed=True)
        assert hub.tracer.open_spans == 0
        # The chunk event survived (drained through close) and carries
        # the kill marker; with no sink, drain returns the events.
        assert driver is not None


class TestMetricsWithdrawal:
    def test_rejected_attempt_metrics_withdrawn(self, hub):
        driver = _sd(hub)
        ResilientRunner(driver, injector=_nan_plan(step=1)).run_steps(2)
        mx = hub.metrics
        # Only the two *accepted* steps count; the rejected attempt's
        # increment was withdrawn by the per-attempt snapshot/restore.
        assert mx.counter_value("steps.completed") == 2.0
        assert mx.counter_value("steps.rejected") == 1.0
        assert mx.counter_value("steps.dt_backoffs") == 1.0

    def test_abort_keeps_final_attempt_as_post_mortem(self, hub):
        driver = _sd(hub)
        monitor = HealthMonitor([_AlwaysFatal()])
        runner = ResilientRunner(driver, max_retries=2, monitor=monitor)
        with pytest.raises(ResilienceExhausted):
            runner.run_steps(1)
        mx = hub.metrics
        # Two rejections withdrew their attempts; the third (aborting)
        # attempt is deliberately not rolled back, so the post-mortem
        # shows exactly one completed-then-condemned step and verdict.
        assert mx.counter_value("steps.rejected") == 2.0
        assert mx.counter_value("steps.completed") == 1.0
        assert (
            mx.counter_value("health.verdicts", severity="fatal") == 1.0
        )

    def test_quarantine_run_counters_track_accepted_timeline(self, hub):
        driver = _mrhs(hub, m=4)
        runner = ResilientRunner(
            driver, injector=_nan_plan(step=3), monitor=HealthMonitor()
        )
        runner.run_steps(8)
        mx = hub.metrics
        assert mx.counter_value("steps.completed") == 8.0
        assert mx.counter_value("steps.rejected") == 1.0
        assert mx.counter_value("chunks.quarantined") == 1.0
        # Guess poisoning quarantines at the same dt — no backoff.
        assert mx.counter_value("steps.dt_backoffs") == 0.0


class TestGlobalInstall:
    def test_driver_ctor_installs_hub_once(self, hub):
        driver = _sd(hub)
        assert _telemetry.active_hub is hub
        # A second driver with its own hub must not steal the global
        # slot mid-run.
        other = TelemetryHub()
        _sd(other, seed=7)
        assert _telemetry.active_hub is hub
        assert driver.telemetry is hub

    def test_null_hub_driver_does_not_install(self):
        assert _telemetry.active_hub is None
        system = random_configuration(10, 0.1, rng=3)
        StokesianDynamics(system, SDParameters(), rng=4)
        assert _telemetry.active_hub is None
