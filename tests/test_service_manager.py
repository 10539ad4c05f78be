"""Scheduler semantics: admission, fairness, preemption, shedding.

Jobs here are tiny (n=8-10 particles) so a full drain is fast; the
bit-identity guarantees are pinned against solo ``ResilientRunner``
runs of the same specs.
"""

import hashlib

import numpy as np
import pytest

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience import CheckpointManager, ResilientRunner
from repro.service import (
    JobManager,
    JobSpec,
    JobState,
    ServiceConfig,
    estimate_job_bytes,
)
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration


def solo_digest(spec: JobSpec) -> str:
    """The reference trajectory: one uninterrupted solo run."""
    driver = MrhsStokesianDynamics(
        random_configuration(spec.n, spec.phi, rng=spec.seed),
        SDParameters(dt=spec.dt),
        MrhsParameters(m=spec.m),
        rng=spec.seed + 1,
    )
    ResilientRunner(driver).run_steps(spec.steps)
    return hashlib.sha256(
        np.ascontiguousarray(driver.sd.system.positions).tobytes()
    ).hexdigest()


def _spec(i, **kw):
    kw.setdefault("n", 8)
    kw.setdefault("steps", 4)
    return JobSpec(name=f"job{i}", seed=i, **kw)


class TestSubmission:
    def test_submit_and_drain(self, tmp_path):
        with JobManager(tmp_path) as mgr:
            mgr.submit(_spec(1))
            report = mgr.run()
        assert report.completed == 1 and report.failed == 0
        job = mgr.jobs[1]
        assert job.state is JobState.DONE
        assert job.digest == solo_digest(job.spec)

    def test_duplicate_name_refused(self, tmp_path):
        with JobManager(tmp_path) as mgr:
            mgr.submit(_spec(1))
            with pytest.raises(ValueError, match="duplicate"):
                mgr.submit(_spec(1))

    def test_queue_limit_rejects_with_reason(self, tmp_path):
        cfg = ServiceConfig(queue_limit=2)
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(_spec(1))
            mgr.submit(_spec(2))
            third = mgr.submit(_spec(3))
        assert third.state is JobState.REJECTED
        assert "queue full" in third.reason

    def test_impossible_memory_fit_rejected(self, tmp_path):
        cfg = ServiceConfig(mem_budget_bytes=1024)
        with JobManager(tmp_path, config=cfg) as mgr:
            job = mgr.submit(_spec(1))
        assert job.state is JobState.REJECTED
        assert "budget" in job.reason

    def test_rejection_is_journaled(self, tmp_path):
        cfg = ServiceConfig(queue_limit=1)
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(_spec(1))
            mgr.submit(_spec(2))
        with JobManager(tmp_path, config=cfg) as recovered:
            assert recovered.jobs[2].state is JobState.REJECTED


class TestMemoryBudget:
    def test_budget_serialises_admission(self, tmp_path):
        """With room for ~one job, jobs still all finish (waiting in
        PENDING, admitted as reservations free up)."""
        need = estimate_job_bytes(_spec(1))
        cfg = ServiceConfig(mem_budget_bytes=int(1.5 * need))
        with JobManager(tmp_path, config=cfg) as mgr:
            for i in (1, 2, 3):
                assert mgr.submit(_spec(i)).state is JobState.PENDING
            report = mgr.run()
        assert report.completed == 3
        # Admissions were staggered, not simultaneous.
        waits = sorted(
            j.admitted_tick for j in mgr.jobs.values()
        )
        assert waits[0] < waits[-1]


class TestFairness:
    def test_priority_order(self, tmp_path):
        cfg = ServiceConfig(aging_rate=0.0)
        with JobManager(tmp_path, config=cfg) as mgr:
            low = mgr.submit(_spec(1, priority=0))
            high = mgr.submit(_spec(2, priority=10))
            mgr.run()
        assert high.finished_tick < low.finished_tick

    def test_aging_prevents_starvation(self, tmp_path):
        """A low-priority job eventually outranks a stream of fresh
        high-priority arrivals: its effective priority grows with
        wait."""
        job = _spec(1, priority=0)
        rec_then = JobManager(tmp_path, config=ServiceConfig()).submit(job)
        aged = rec_then.effective_priority(now=1000, aging_rate=0.05)
        fresh = _spec(2, priority=10)
        assert aged > fresh.priority

    def test_aged_job_scheduled_before_fresh_high_priority(self, tmp_path):
        cfg = ServiceConfig(aging_rate=1.0)  # 1 priority point per tick
        with JobManager(tmp_path, config=cfg) as mgr:
            old_low = mgr.submit(_spec(1, priority=0))
            mgr.clock.fast_forward(50)
            fresh_high = mgr.submit(_spec(2, priority=10))
            mgr.run()
        assert old_low.finished_tick < fresh_high.finished_tick


class TestPreemption:
    def test_preempted_job_bit_matches_solo_run(self, tmp_path):
        cfg = ServiceConfig(quantum=2)
        specs = [_spec(i, steps=7, priority=i) for i in (1, 2)]
        with JobManager(tmp_path, config=cfg) as mgr:
            for spec in specs:
                mgr.submit(spec)
            report = mgr.run()
        assert report.completed == 2
        assert report.preemptions >= 2
        for job in mgr.jobs.values():
            assert job.preemptions >= 1
            assert job.digest == solo_digest(job.spec)

    def test_cold_resume_preemption_bit_matches(self, tmp_path):
        """keep_warm=False forces every resume through the checkpoint
        files rather than the in-memory driver."""
        cfg = ServiceConfig(quantum=3, keep_warm=False, checkpoint_every=2)
        spec = _spec(1, steps=8)
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(spec)
            report = mgr.run()
        assert report.completed == 1 and report.preemptions >= 1
        assert mgr.jobs[1].digest == solo_digest(spec)

    def test_no_preemption_without_quantum(self, tmp_path):
        with JobManager(tmp_path) as mgr:  # quantum=0
            mgr.submit(_spec(1, steps=6))
            report = mgr.run()
        assert report.preemptions == 0 and report.completed == 1

    def test_preemption_checkpoint_is_complete(self, tmp_path):
        """The stop point is checkpointed like any other step: a cold
        resume from it keeps engine quarantines."""
        cfg = ServiceConfig(quantum=3, checkpoint_every=2)
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(_spec(1, steps=8))
            mgr.run(max_ticks=2)  # one slice
        job = mgr.jobs[1]
        assert job.state is JobState.PREEMPTED and job.steps_done == 3
        state, meta, _ = CheckpointManager(
            tmp_path / "jobs" / "1" / "ckpt"
        ).load_latest()
        assert meta["step"] == 3
        assert "enginewatch" in state

    def test_preemption_is_not_a_fault(self, tmp_path):
        cfg = ServiceConfig(quantum=2)
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(_spec(1, steps=7))
            report = mgr.run()
        assert report.completed == 1 and report.preemptions == 3
        assert report.faults == []

    def test_each_step_checkpointed_once(self, tmp_path, checkpoint_saves):
        cfg = ServiceConfig(quantum=4, checkpoint_every=2)
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(_spec(1, steps=16))
            report = mgr.run()
        assert report.completed == 1 and report.preemptions == 3
        assert checkpoint_saves == [2, 4, 6, 8, 10, 12, 14, 16]


class TestShedding:
    def test_watermark_sheds_lowest_priority_pending(self, tmp_path):
        cfg = ServiceConfig(shed_watermark=2, aging_rate=0.0)
        with JobManager(tmp_path, config=cfg) as mgr:
            jobs = [mgr.submit(_spec(i, priority=i)) for i in (1, 2, 3, 4)]
            report = mgr.run()
        shed = [j for j in jobs if j.state is JobState.SHED]
        done = [j for j in jobs if j.state is JobState.DONE]
        assert report.shed == len(shed) == 2
        assert {j.spec.priority for j in shed} == {1, 2}  # lowest two
        assert len(done) == 2

    def test_only_never_admitted_jobs_shed(self, tmp_path):
        cfg = ServiceConfig(shed_watermark=0, aging_rate=0.0)
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(_spec(1))
            report = mgr.run()
        # watermark 0 sheds every pending job on the first sweep —
        # but nothing that was admitted can ever be shed.
        for job in mgr.jobs.values():
            if job.state is JobState.SHED:
                assert job.admitted_tick is None
        assert report.shed + report.completed == len(mgr.jobs)

    def test_deadline_sheds_unadmitted_job(self, tmp_path):
        need = estimate_job_bytes(_spec(1))
        cfg = ServiceConfig(mem_budget_bytes=int(1.2 * need))
        with JobManager(tmp_path, config=cfg) as mgr:
            mgr.submit(_spec(1, steps=8))  # hogs the whole budget
            late = mgr.submit(_spec(2, deadline=1))
            mgr.run()
        assert late.state is JobState.SHED
        assert "deadline" in late.reason

    def test_admitted_job_ignores_deadline(self, tmp_path):
        with JobManager(tmp_path) as mgr:
            job = mgr.submit(_spec(1, steps=6, deadline=2))
            report = mgr.run()
        assert job.state is JobState.DONE and report.shed == 0


class TestStateMachine:
    def test_shed_after_admission_is_illegal(self, tmp_path):
        with JobManager(tmp_path) as mgr:
            job = mgr.submit(_spec(1))
            job.transition(JobState.ADMITTED)
            with pytest.raises(ValueError, match="illegal transition"):
                job.transition(JobState.SHED)

    def test_terminal_states_are_final(self, tmp_path):
        with JobManager(tmp_path) as mgr:
            job = mgr.submit(_spec(1))
            mgr.run()
        with pytest.raises(ValueError):
            job.transition(JobState.RUNNING)


class TestTelemetry:
    def test_service_counters_recorded(self, tmp_path):
        from repro.telemetry import TelemetryHub

        hub = TelemetryHub(tmp_path / "telemetry")
        cfg = ServiceConfig(quantum=2)
        with JobManager(
            tmp_path / "svc", config=cfg, telemetry=hub
        ) as mgr:
            mgr.submit(_spec(1, steps=5))
            mgr.run()
        assert hub.metrics.counter_value("service.jobs_submitted") == 1
        assert hub.metrics.counter_value("service.jobs_completed") == 1
        assert hub.metrics.counter_value("service.preemptions") >= 1
        hub.close()
