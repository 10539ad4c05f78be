"""Seeded chaos campaigns against the job service.

The acceptance contract (ISSUE/DESIGN §15): after any campaign —
manager killed mid-dispatch, workers crashing mid-run, torn journal
writes, clock jumps, overload bursts — every *admitted* job finishes
with a trajectory **bit-identical** to a fault-free solo run of its
spec, shed jobs are only ever never-admitted ones, and no job is lost
or run twice across manager kill/restart cycles.

Campaigns drive the loop a real operator would run: construct a
``JobManager`` over the directory, call ``run()``, and on
``ManagerKilled`` construct a fresh manager over the same directory
(journal + checkpoints are the only carried state) and try again.
"""

import pytest

from repro.resilience.faults import FaultSpec
from repro.service.journal import JobJournal
from repro.service import (
    JobManager,
    JobSpec,
    JobState,
    ManagerKilled,
    ServiceConfig,
    ServiceInjector,
)
from tests.test_service_manager import solo_digest


def _specs(k=3, steps=6):
    return [
        JobSpec(name=f"job{i}", n=8, steps=steps, seed=i, priority=i)
        for i in range(1, k + 1)
    ]


def run_campaign(directory, specs, config, plan, max_kills=25):
    """Submit ``specs`` then drain through kill/restart cycles.

    One :class:`ServiceInjector` plays the chaos agent across every
    manager incarnation, so each fault spec's fire budget is spent
    once for the whole campaign (as a real external killer would).
    Returns ``(manager, report, kills)`` from the surviving manager.
    """
    chaos = ServiceInjector(plan)
    kills = 0

    def fresh():
        return JobManager(directory, config=config, fault_plan=chaos)

    mgr = fresh()
    while True:
        try:
            for spec in specs:
                known = {j.spec.name for j in mgr.jobs.values()}
                if spec.name not in known:
                    mgr.submit(spec)
            report = mgr.run()
            break
        except ManagerKilled:
            kills += 1
            assert kills <= max_kills, "campaign does not converge"
            mgr = fresh()
    mgr.close()
    return mgr, report, kills


def assert_contract(mgr, specs):
    """The bit-identity + no-loss + shed-only-unadmitted contract."""
    by_name = {j.spec.name: j for j in mgr.jobs.values()}
    # No job lost: every submitted spec is accounted for, exactly once.
    assert sorted(by_name) == sorted(s.name for s in specs)
    for job in mgr.jobs.values():
        assert job.state.terminal
        if job.state is JobState.DONE:
            assert job.digest == solo_digest(job.spec), (
                f"{job.spec.name} diverged from its fault-free run"
            )
        if job.state in (JobState.SHED, JobState.REJECTED):
            assert job.admitted_tick is None, (
                f"{job.spec.name} was shed after admission"
            )


class TestManagerKillCampaigns:
    def test_kill_mid_dispatch_then_recover(self, tmp_path):
        cfg = ServiceConfig(quantum=2, checkpoint_every=2)
        plan = [
            FaultSpec(site="service.dispatch", at={"dispatch": 2}),
            FaultSpec(site="service.dispatch", at={"dispatch": 5}),
        ]
        mgr, report, kills = run_campaign(tmp_path, _specs(), cfg, plan)
        assert kills == 2
        assert report.completed == 3
        assert_contract(mgr, _specs())

    def test_kill_while_job_runs(self, tmp_path):
        """An untranslated runner.abort is the manager dying mid-run;
        the half-finished slice resumes from its checkpoints."""
        cfg = ServiceConfig(checkpoint_every=2)
        plan = [FaultSpec(site="runner.abort", at={"step": 3})]
        mgr, report, kills = run_campaign(
            tmp_path, _specs(1, steps=6), cfg, plan
        )
        assert kills == 1
        assert report.completed == 1
        assert_contract(mgr, _specs(1, steps=6))

    def test_torn_journal_write_campaign(self, tmp_path):
        cfg = ServiceConfig(quantum=3, checkpoint_every=2)
        plan = [
            FaultSpec(site="service.journal", at={"seq": 5}),
            FaultSpec(site="service.journal", kind="zero", at={"seq": 11}),
        ]
        mgr, report, kills = run_campaign(tmp_path, _specs(), cfg, plan)
        assert kills == 2
        assert report.completed == 3
        assert_contract(mgr, _specs())

    def test_no_job_runs_twice(self, tmp_path):
        """A DONE job is never re-dispatched after recovery: its
        journal record carries the digest, not re-execution."""
        cfg = ServiceConfig(checkpoint_every=2)
        plan = [FaultSpec(site="service.dispatch", at={"dispatch": 3})]
        specs = _specs(3, steps=4)
        mgr, report, kills = run_campaign(tmp_path, specs, cfg, plan)
        assert kills == 1 and report.completed == 3
        # Count dispatches per job across the *entire* journal history:
        # jobs finished before the kill must not be dispatched again.
        from repro.service import JobJournal

        records, _ = JobJournal.scan(tmp_path / "journal.jsonl")
        done_at = {}
        redispatched = set()
        for i, rec in enumerate(records):
            if rec["t"] == "done":
                done_at[rec["job"]] = i
            if rec["t"] == "dispatch" and rec["job"] in done_at:
                redispatched.add(rec["job"])
        assert not redispatched
        assert_contract(mgr, specs)


class TestWorkerCrashCampaigns:
    def test_worker_crash_retries_with_backoff(self, tmp_path):
        cfg = ServiceConfig(checkpoint_every=2, max_attempts=3)
        plan = [
            FaultSpec(site="service.worker_crash", at={"job": 1, "step": 3})
        ]
        mgr, report, kills = run_campaign(
            tmp_path, _specs(1, steps=6), cfg, plan
        )
        assert kills == 0
        assert report.completed == 1
        job = mgr.jobs[1]
        assert job.attempts == 1
        assert job.next_eligible_tick > 0  # a backoff window was set
        # The journaled window is the pinned schedule: job 1's first
        # crash waits ceil(2.3486...) = 3 ticks.
        records, _ = JobJournal.scan(tmp_path / "journal.jsonl")
        (crash,) = [r for r in records if r["t"] == "crash"]
        assert crash["next_eligible"] == crash["tick"] + 3
        assert_contract(mgr, _specs(1, steps=6))

    def test_repeated_crashes_exhaust_attempts(self, tmp_path):
        cfg = ServiceConfig(checkpoint_every=2, max_attempts=2)
        plan = [
            FaultSpec(
                site="service.worker_crash", at={"job": 1}, times=None
            )
        ]
        mgr, report, kills = run_campaign(
            tmp_path, _specs(1, steps=6), cfg, plan
        )
        assert report.failed == 1 and kills == 0
        assert mgr.jobs[1].state is JobState.FAILED
        assert mgr.jobs[1].attempts == 2

    def test_crash_then_manager_kill_combined(self, tmp_path):
        cfg = ServiceConfig(quantum=3, checkpoint_every=2, max_attempts=3)
        plan = [
            FaultSpec(site="service.worker_crash", at={"job": 2, "step": 2}),
            FaultSpec(site="service.dispatch", at={"dispatch": 4}),
            FaultSpec(site="service.journal", at={"seq": 20}),
        ]
        specs = _specs(3, steps=5)
        mgr, report, kills = run_campaign(tmp_path, specs, cfg, plan)
        assert kills == 2
        assert report.completed == 3
        assert_contract(mgr, specs)


class TestClockAndOverloadCampaigns:
    def test_clock_jump_never_sheds_admitted_jobs(self, tmp_path):
        cfg = ServiceConfig(quantum=2, checkpoint_every=2)
        plan = [
            FaultSpec(
                site="service.clock", kind="scale", factor=100.0,
                at={"tick": 4},
            )
        ]
        specs = [
            JobSpec(name=f"job{i}", n=8, steps=5, seed=i, deadline=500)
            for i in (1, 2)
        ]
        mgr, report, kills = run_campaign(tmp_path, specs, cfg, plan)
        assert report.clock_jumps == 1
        assert report.completed == 2 and report.shed == 0
        assert_contract(mgr, specs)

    def test_overload_burst_sheds_only_unadmitted(self, tmp_path):
        cfg = ServiceConfig(
            shed_watermark=2, aging_rate=0.0, checkpoint_every=2
        )
        specs = [
            JobSpec(name=f"job{i}", n=8, steps=4, seed=i, priority=i)
            for i in range(1, 7)
        ]
        mgr, report, kills = run_campaign(tmp_path, specs, cfg, plan=None)
        assert report.shed > 0
        assert report.completed == len(specs) - report.shed
        assert_contract(mgr, specs)

    def test_overload_with_manager_kill(self, tmp_path):
        cfg = ServiceConfig(
            shed_watermark=2, aging_rate=0.0, checkpoint_every=2
        )
        plan = [FaultSpec(site="service.dispatch", at={"dispatch": 2})]
        specs = [
            JobSpec(name=f"job{i}", n=8, steps=4, seed=i, priority=i)
            for i in range(1, 6)
        ]
        mgr, report, kills = run_campaign(tmp_path, specs, cfg, plan)
        assert kills == 1
        assert report.completed + report.shed == len(specs)
        assert_contract(mgr, specs)


class TestRecoveryDeterminism:
    def test_recovery_preserves_clock_monotonicity(self, tmp_path):
        cfg = ServiceConfig(checkpoint_every=2)
        plan = [FaultSpec(site="service.dispatch", at={"dispatch": 1})]
        mgr = JobManager(tmp_path, config=cfg, fault_plan=plan)
        mgr.submit(_specs(1)[0])
        with pytest.raises(ManagerKilled):
            mgr.run()
        tick_at_death = mgr.clock.now
        recovered = JobManager(tmp_path, config=cfg)
        assert recovered.clock.now >= tick_at_death - 1
        assert recovered.recovered_jobs == 1
        report = recovered.run()
        recovered.close()
        assert report.completed == 1

    def test_identical_campaign_is_bit_reproducible(self, tmp_path):
        """Same specs + same fault plan -> identical digests and
        identical final journal tables across two directories."""
        cfg = ServiceConfig(quantum=2, checkpoint_every=2)
        plan = lambda: [  # noqa: E731 - fresh specs per run
            FaultSpec(site="service.worker_crash", at={"job": 2, "step": 2}),
            FaultSpec(site="service.dispatch", at={"dispatch": 3}),
        ]
        tables = []
        for sub in ("a", "b"):
            mgr, report, _ = run_campaign(
                tmp_path / sub, _specs(), cfg, plan()
            )
            tables.append(
                [(r["name"], r["state"], r["digest"]) for r in report.jobs]
            )
        assert tables[0] == tables[1]
