"""The fault-tolerant multi-tenant job manager.

:class:`JobManager` owns one service directory::

    <dir>/journal.jsonl          write-ahead job journal (source of truth)
    <dir>/jobs/<id>/ckpt/        per-job checkpoints

and runs an in-process scheduler loop over submitted
:class:`~repro.service.spec.JobSpec` jobs:

* **admission control** at submit time (queue depth, impossible memory
  fit) and at schedule time (aggregate memory budget) — rejected and
  waiting jobs each carry an explicit reason;
* **priority with aging** so low-priority jobs cannot starve;
* **checkpoint-backed preemption**: a long job's slice stops after
  its quantum of steps, checkpointed, while its chunks stay planned
  toward the *same* total step target, so its trajectory bit-matches
  an uninterrupted run;
* **retry with seeded-jitter exponential backoff** (in clock ticks)
  after worker crashes, bounded by ``max_attempts``;
* **overload shedding** that only ever drops never-admitted jobs.

Every decision is journaled *before* it is acted on, so a manager
killed at any instant — mid-dispatch, mid-append, mid-run — is rebuilt
exactly by constructing a new :class:`JobManager` over the same
directory.  The ``service.dispatch``, ``service.journal``,
``service.worker_crash`` and ``service.clock`` fault sites make those
kills deterministic drills (see ``tests/test_service_chaos.py``).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulationKilled,
    active_injector,
    arm,
    disarm,
    fire_fault,
)
from repro.resilience.runner import ResilienceExhausted
from repro.resources.governor import MemoryGuard
from repro.service.clock import ServiceClock
from repro.service.errors import ManagerKilled
from repro.service.journal import SNAPSHOT_KIND, JobJournal, JournalRecord
from repro.service.slo import SLOPolicy, SLOTracker
from repro.service.spec import (
    JobRecord,
    JobSpec,
    JobState,
    TenantQuota,
    estimate_job_bytes,
)
from repro.service.worker import JobWorker
from repro.telemetry import context as _obs

__all__ = [
    "JobManager",
    "ServiceConfig",
    "ServiceInjector",
    "ServiceReport",
    "job_table",
    "replay_records",
]

#: States that hold an admission-control memory reservation.
_LIVE = (JobState.ADMITTED, JobState.RUNNING, JobState.PREEMPTED)


def _crash_backoff(attempt: int, job_id: int) -> float:
    """Ticks a job waits after its ``attempt``-th crash (1-based).

    ``2 * 2**(attempt-1)`` capped at 64, scaled by a jitter factor drawn
    uniformly from ``[0.75, 1.25]``.  The draw is a pure function of
    ``(0, job_id, attempt)`` hashed through
    :class:`numpy.random.SeedSequence`, so a replayed journal waits the
    identical ticks, whatever order the jobs crash in.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    raw = min(64.0, 2.0 * 2.0 ** (attempt - 1))
    rng = np.random.default_rng(
        np.random.SeedSequence([0, int(job_id) & 0x7FFFFFFF, attempt])
    )
    return raw * float(rng.uniform(0.75, 1.25))


@dataclass(frozen=True)
class ServiceConfig:
    """Scheduler knobs.  Everything is deterministic: time is logical
    ticks, backoff jitter is seeded, and priorities age linearly."""

    quantum: int = 0
    """Steps per dispatch before preemption; ``0`` disables time
    slicing (every job runs to completion once scheduled)."""
    queue_limit: int = 64
    """Submit-time cap on PENDING jobs; beyond it, reject."""
    shed_watermark: Optional[int] = None
    """Overload trigger: when more than this many jobs are PENDING,
    the lowest-effective-priority ones are shed down to the mark."""
    mem_budget_bytes: Optional[int] = None
    """Aggregate :func:`~repro.service.spec.estimate_job_bytes` budget
    across admitted-but-unfinished jobs; ``None`` disables it."""
    max_attempts: int = 3
    """Job-level attempt budget (worker crashes, in-job exhaustion)."""
    aging_rate: float = 0.05
    """Priority gained per tick of queue wait (starvation-freedom)."""
    checkpoint_every: int = 4
    """Per-job checkpoint cadence (steps); ``0`` = only on preemption
    and completion of a slice."""
    keep_warm: bool = True
    """Keep a preempted job's driver in memory; ``False`` drops it and
    resumes from its checkpoint (slower, smaller footprint)."""
    fsync_journal: bool = False
    slo: Optional[SLOPolicy] = field(default_factory=SLOPolicy)
    """Per-tenant SLO accounting; ``None`` disables the tracker."""
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    """Hard per-tenant caps (``tenant -> TenantQuota``).  Enforced as
    submit-time vetoes, admission parking, and pending-job SHED when a
    tenant's on-disk footprint crosses its cap; an empty dict (the
    default) skips every quota code path."""
    journal_compact_bytes: Optional[int] = 1 << 20
    """Journal size above which :meth:`JobManager` compacts the history
    into one snapshot record; ``None`` disables compaction."""
    mem_watermark_bytes: Optional[int] = None
    """Process-RSS watermark: on a breach the manager drops warm
    preempted workers (they resume from checkpoints) and records a
    WARN.  ``None`` disables the guard."""

    def __post_init__(self) -> None:
        if self.quantum < 0:
            raise ValueError("quantum must be non-negative")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.shed_watermark is not None and self.shed_watermark < 0:
            raise ValueError("shed_watermark must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.aging_rate < 0:
            raise ValueError("aging_rate must be non-negative")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if (
            self.journal_compact_bytes is not None
            and self.journal_compact_bytes < 1024
        ):
            raise ValueError("journal_compact_bytes must be >= 1024")
        if (
            self.mem_watermark_bytes is not None
            and self.mem_watermark_bytes < 1
        ):
            raise ValueError("mem_watermark_bytes must be positive")


@dataclass
class ServiceReport:
    """Outcome of one :meth:`JobManager.run` drain."""

    ticks: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    rejected: int = 0
    preemptions: int = 0
    worker_crashes: int = 0
    clock_jumps: int = 0
    faults: List[FaultEvent] = field(default_factory=list)
    jobs: List[Dict[str, Any]] = field(default_factory=list)
    """Final job table (same rows as :meth:`JobManager.table`)."""


class ServiceInjector(FaultInjector):
    """The manager's single armed injector.

    Per-job runners poll the *global* armed injector, so this class is
    where service semantics attach to the generic ``runner.abort`` poll
    that fires after every healthy step: while a job runs, the poll is
    first *translated* into a ``service.worker_crash`` fire with the
    running job's id, so campaign specs can crash a worker mid-slice
    deterministically; otherwise it falls through to plain
    ``runner.abort`` specs — which the manager interprets as its *own*
    death mid-run.  :meth:`take_worker_crash` tells the manager which
    of the two produced the
    :class:`~repro.resilience.faults.SimulationKilled` it just caught.
    """

    def __init__(
        self,
        plan: Union[FaultPlan, FaultSpec, List[FaultSpec], None] = None,
    ) -> None:
        super().__init__(plan if plan is not None else FaultPlan())
        self.current_job: Optional[int] = None
        self._worker_crash = False

    def fire(self, site: str, **context: int) -> Optional[FaultSpec]:
        if site == "runner.abort":
            self._worker_crash = False
            if self.current_job is not None:
                spec = super().fire(
                    "service.worker_crash",
                    job=self.current_job,
                    step=int(context.get("step") or 0),
                )
                if spec is not None:
                    self._worker_crash = True
                    return spec
        return super().fire(site, **context)

    def take_worker_crash(self) -> bool:
        crashed, self._worker_crash = self._worker_crash, False
        return crashed


def replay_records(
    records: List[JournalRecord],
) -> Tuple[Dict[int, JobRecord], int, int]:
    """Rebuild the job table from journal records.

    Pure function (no I/O): used by manager recovery, the read-only
    ``jobs`` CLI, and the prefix-truncation property test.  Returns
    ``(jobs, last_tick, dispatches)``.  States are assigned directly —
    a journal ending mid-sequence (e.g. ``dispatch`` with no outcome)
    is precisely the crash case replay must absorb, so the transition
    validator does not apply here; jobs left RUNNING are rewound to
    ADMITTED for re-dispatch from their newest checkpoint.
    """
    jobs: Dict[int, JobRecord] = {}
    last_tick = 0
    dispatches = 0
    for rec in records:
        last_tick = max(last_tick, int(rec.get("tick", 0)))
        kind = rec.get("t")
        if kind == "recovered":
            continue
        if kind == SNAPSHOT_KIND:
            # Compaction boundary: the record *is* the whole job table
            # at that instant; later records apply on top of it.
            jobs = {
                int(doc["job_id"]): JobRecord.from_json(doc)
                for doc in rec.get("jobs", [])
            }
            dispatches = max(dispatches, int(rec.get("dispatches", 0)))
            continue
        job_id = int(rec["job"])
        if kind == "submit":
            jobs[job_id] = JobRecord(
                job_id,
                JobSpec.from_json(rec["spec"]),
                submitted_tick=int(rec["tick"]),
            )
            continue
        job = jobs.get(job_id)
        if job is None:  # torn prefix lost the submit: nothing to do
            continue
        if kind == "reject":
            job.state = JobState.REJECTED
            job.reason = rec.get("reason", "")
        elif kind == "admit":
            job.state = JobState.ADMITTED
            job.admitted_tick = int(rec["tick"])
        elif kind == "shed":
            job.state = JobState.SHED
            job.reason = rec.get("reason", "")
        elif kind == "dispatch":
            job.state = JobState.RUNNING
            job.steps_done = max(job.steps_done, int(rec["from_step"]))
            dispatches = max(dispatches, int(rec.get("dispatch", 0)))
        elif kind == "preempt":
            job.state = JobState.PREEMPTED
            job.steps_done = max(job.steps_done, int(rec["at_step"]))
            job.preemptions += 1
        elif kind == "crash":
            job.state = JobState.ADMITTED
            job.attempts = int(rec["attempt"])
            job.next_eligible_tick = int(rec["next_eligible"])
        elif kind == "done":
            job.state = JobState.DONE
            job.steps_done = int(rec["steps"])
            job.digest = rec.get("digest")
            job.finished_tick = int(rec["tick"])
        elif kind == "failed":
            job.state = JobState.FAILED
            job.reason = rec.get("reason", "")
            job.finished_tick = int(rec["tick"])
    for job in jobs.values():
        if job.state is JobState.RUNNING:
            # Manager died mid-slice: back to the queue; the worker
            # resumes from its newest on-disk checkpoint.
            job.state = JobState.ADMITTED
    return jobs, last_tick, dispatches


def job_table(jobs: Dict[int, JobRecord]) -> List[Dict[str, Any]]:
    """One summary row per job, submission order (feeds
    :func:`repro.telemetry.report.render_jobs_table`)."""
    rows = []
    for job_id in sorted(jobs):
        job = jobs[job_id]
        wait = (
            None
            if job.admitted_tick is None
            else job.admitted_tick - job.submitted_tick
        )
        rows.append(
            {
                "job": job_id,
                "name": job.spec.name,
                "tenant": job.spec.tenant,
                "state": job.state.value,
                "priority": job.spec.priority,
                "steps": f"{job.steps_done}/{job.spec.steps}",
                "wait": wait,
                "attempts": job.attempts,
                "preemptions": job.preemptions,
                "digest": (job.digest or "")[:12],
                "reason": job.reason,
            }
        )
    return rows


class JobManager:
    """Accepts, schedules, and survives the loss of simulation jobs."""

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        config: Optional[ServiceConfig] = None,
        telemetry: Optional[Any] = None,
        monitor: Optional[Any] = None,
        fault_plan: Union[
            FaultPlan,
            FaultSpec,
            List[FaultSpec],
            "ServiceInjector",
            None,
        ] = None,
    ) -> None:
        from repro.telemetry import NULL_HUB

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config if config is not None else ServiceConfig()
        self.hub = NULL_HUB if telemetry is None else telemetry
        self.monitor = monitor
        self.slo = (
            None
            if self.config.slo is None
            else SLOTracker(self.config.slo, hub=self.hub, monitor=monitor)
        )
        self.clock = ServiceClock()
        if isinstance(fault_plan, ServiceInjector):
            # A campaign's chaos agent outlives manager incarnations:
            # passing the same injector keeps each spec's fire budget
            # spent across kill/restart cycles.
            self.injector = fault_plan
            self.injector.current_job = None
        else:
            self.injector = ServiceInjector(fault_plan)
        self.jobs: Dict[int, JobRecord] = {}
        self._workers: Dict[int, JobWorker] = {}
        self._dispatches = 0
        self.recovered_jobs = 0
        self.governor = getattr(self.hub, "governor", None)
        self.memguard = (
            None
            if self.config.mem_watermark_bytes is None
            else MemoryGuard(self.config.mem_watermark_bytes)
        )
        self.journal = JobJournal(
            self.directory / "journal.jsonl",
            fsync=self.config.fsync_journal,
            governor=self.governor,
        )
        records = self.journal.recover()
        if records:
            self.jobs, last_tick, self._dispatches = replay_records(records)
            self.clock.restore(last_tick)
            self.recovered_jobs = sum(
                1 for j in self.jobs.values() if not j.state.terminal
            )
            self.journal.append(
                {
                    "t": "recovered",
                    "jobs": self.recovered_jobs,
                    "tick": self.clock.now,
                }
            )
            # Recovery replayed the whole history — the cheapest moment
            # to fold it into one snapshot if it has grown past budget.
            self._maybe_compact()

    # -- plumbing ------------------------------------------------------
    @contextlib.contextmanager
    def _armed(self) -> Iterator[None]:
        """Arm this manager's injector unless it already is (at most
        one injector may be armed globally)."""
        if active_injector() is self.injector:
            yield
            return
        arm(self.injector)
        try:
            yield
        finally:
            disarm()

    def _counter(self, name: str):
        return self.hub.metrics.counter(name)

    def _event(self, kind: str, job: JobRecord, **attrs: Any) -> None:
        """One job-lifecycle event on the unified bus, stamped with the
        correlation identifiers a post-mortem grep joins on."""
        self.hub.emit_event(
            "service",
            kind,
            job_id=job.job_id,
            tenant=job.spec.tenant,
            name=job.spec.name,
            tick=self.clock.now,
            **attrs,
        )

    def _job_dir(self, job_id: int) -> Path:
        return self.directory / "jobs" / str(job_id) / "ckpt"

    def _worker_for(self, job: JobRecord) -> JobWorker:
        worker = self._workers.get(job.job_id)
        if worker is None:
            governor = self.governor
            spill = getattr(governor, "spill_dir", None)
            worker = JobWorker(
                job.spec,
                self._job_dir(job.job_id),
                checkpoint_every=self.config.checkpoint_every,
                governor=governor,
                # Namespace the shared spill directory per job: two
                # jobs' checkpoints carry the same prefix-step names.
                spill_dir=(
                    Path(spill) / "jobs" / str(job.job_id)
                    if spill is not None
                    else None
                ),
            )
            self._workers[job.job_id] = worker
        return worker

    def _release(self, job_id: int) -> None:
        self._workers.pop(job_id, None)

    def _reserved_bytes(self) -> int:
        return sum(
            estimate_job_bytes(j.spec)
            for j in self.jobs.values()
            if j.state in _LIVE
        )

    # -- resource governance -------------------------------------------
    def _tenant_live(self, tenant: str) -> List[JobRecord]:
        return [
            j
            for j in self.jobs.values()
            if j.state in _LIVE and j.spec.tenant == tenant
        ]

    def _tenant_disk_bytes(self, tenant: str) -> int:
        """On-disk footprint of one tenant's job directories."""
        total = 0
        for job in self.jobs.values():
            if job.spec.tenant != tenant:
                continue
            root = self.directory / "jobs" / str(job.job_id)
            if not root.exists():
                continue
            for entry in root.rglob("*"):
                try:
                    if entry.is_file():
                        total += entry.stat().st_size
                except OSError:
                    continue
        return total

    def _quota_failed(self, job: JobRecord) -> None:
        """Report a quota veto/shed into the tenant's SLO accounting."""
        if self.slo is not None:
            self.slo.observe(
                job.spec.tenant,
                latency_ticks=self.clock.now - job.submitted_tick,
                failed=True,
                job_id=job.job_id,
            )

    def _enforce_disk_quotas(self) -> None:
        """SHED pending jobs of tenants over their disk cap.

        Only never-admitted jobs are touched (the admission guarantee
        holds); live jobs run on, and other tenants are unaffected.
        """
        sheds: Dict[int, str] = {}
        shed_jobs: List[JobRecord] = []
        for tenant, quota in self.config.quotas.items():
            if quota.max_disk_bytes is None:
                continue
            used = self._tenant_disk_bytes(tenant)
            if used <= quota.max_disk_bytes:
                continue
            for job in self.jobs.values():
                if (
                    job.spec.tenant == tenant
                    and job.state is JobState.PENDING
                ):
                    sheds[job.job_id] = (
                        f"tenant quota: disk {used} bytes over the "
                        f"{quota.max_disk_bytes}-byte cap"
                    )
                    shed_jobs.append(job)
        if sheds:
            self._shed(sheds)
            self._counter("service.quota_sheds").inc(len(sheds))
            for job in shed_jobs:
                self._quota_failed(job)

    def _check_memory(self) -> None:
        """RSS-watermark guard: drop warm preempted workers on breach."""
        if self.memguard is None:
            return
        rss = self.memguard.check()
        if rss is None:
            return
        dropped = 0
        for job_id, worker in list(self._workers.items()):
            job = self.jobs.get(job_id)
            if job is not None and job.state is JobState.PREEMPTED:
                worker.discard()  # resumes from its checkpoint
                dropped += 1
        self._counter("service.memory_breaches").inc()
        self.hub.emit_event(
            "resources",
            "memory_watermark",
            rss_bytes=rss,
            watermark_bytes=self.config.mem_watermark_bytes,
            warm_workers_dropped=dropped,
            tick=self.clock.now,
        )
        if self.monitor is not None:
            from repro.health.monitor import Severity

            self.monitor.observe_external(
                check="memory.watermark",
                severity=Severity.WARN,
                message=(
                    f"rss {rss} bytes over the "
                    f"{self.config.mem_watermark_bytes}-byte watermark "
                    f"({dropped} warm workers dropped)"
                ),
            )

    def _snapshot_record(self) -> JournalRecord:
        return {
            "t": SNAPSHOT_KIND,
            "tick": self.clock.now,
            "dispatches": self._dispatches,
            "jobs": [
                self.jobs[job_id].to_json() for job_id in sorted(self.jobs)
            ],
        }

    def _maybe_compact(self) -> None:
        """Fold the journal into one snapshot once it outgrows budget.

        Compaction is strictly optional: an I/O failure here leaves the
        old journal untouched and valid, so it is logged and skipped
        rather than allowed to take the service down.
        """
        limit = self.config.journal_compact_bytes
        if limit is None or self.journal.size_bytes() < limit:
            return
        before = self.journal.size_bytes()
        try:
            after = self.journal.compact(self._snapshot_record())
        except OSError:
            self._counter("service.compact_failures").inc()
            return
        self._counter("service.journal_compactions").inc()
        self.hub.emit_event(
            "service",
            "journal_compact",
            before_bytes=before,
            after_bytes=after,
            tick=self.clock.now,
        )

    # -- submission ----------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Journal and admit-or-reject one job.  Raises
        :class:`~repro.service.errors.ManagerKilled` when a journal
        fault strikes (the simulated process kill)."""
        if any(j.spec.name == spec.name for j in self.jobs.values()):
            raise ValueError(f"duplicate job name {spec.name!r}")
        with self._armed():
            now = self.clock.now
            job_id = max(self.jobs, default=0) + 1
            job = JobRecord(job_id, spec, submitted_tick=now)
            self.journal.append(
                {
                    "t": "submit",
                    "job": job_id,
                    "spec": spec.to_json(),
                    "tick": now,
                }
            )
            self.jobs[job_id] = job
            self._counter("service.jobs_submitted").inc()
            self._event("submit", job, priority=spec.priority)
            reason = self._admission_veto(spec)
            if reason is not None:
                self.journal.append(
                    {
                        "t": "reject",
                        "job": job_id,
                        "reason": reason,
                        "tick": now,
                    }
                )
                job.transition(JobState.REJECTED, reason=reason)
                self._counter("service.jobs_rejected").inc()
                self._event("reject", job, reason=reason)
                if reason.startswith("tenant quota"):
                    self._quota_failed(job)
        return job

    def _admission_veto(self, spec: JobSpec) -> Optional[str]:
        """Submit-time reject reason, or ``None`` to enqueue."""
        pending = sum(
            1 for j in self.jobs.values() if j.state is JobState.PENDING
        )
        if pending > self.config.queue_limit:
            return (
                f"queue full ({pending - 1}/{self.config.queue_limit} "
                "pending)"
            )
        budget = self.config.mem_budget_bytes
        if budget is not None:
            need = estimate_job_bytes(spec)
            if need > budget:
                return (
                    f"job needs ~{need} bytes, over the "
                    f"{budget}-byte budget even alone"
                )
        quota = self.config.quotas.get(spec.tenant)
        if quota is not None and quota.max_resident_bytes is not None:
            need = estimate_job_bytes(spec)
            if need > quota.max_resident_bytes:
                self._counter("service.quota_vetoes").inc()
                return (
                    f"tenant quota: job needs ~{need} bytes, over the "
                    f"tenant's {quota.max_resident_bytes}-byte memory "
                    "cap even alone"
                )
        return None

    # -- scheduling ----------------------------------------------------
    def _shed(self, reasons: Dict[int, str]) -> None:
        for job_id, reason in reasons.items():
            job = self.jobs[job_id]
            self.journal.append(
                {
                    "t": "shed",
                    "job": job_id,
                    "reason": reason,
                    "tick": self.clock.now,
                }
            )
            job.transition(JobState.SHED, reason=reason)
            self._counter("service.jobs_shed").inc()
            self._event("shed", job, reason=reason)

    def _shed_overloaded(self) -> None:
        now = self.clock.now
        cfg = self.config
        pending = [
            j for j in self.jobs.values() if j.state is JobState.PENDING
        ]
        sheds: Dict[int, str] = {}
        for job in pending:
            deadline = job.spec.deadline
            if deadline is not None and now > job.submitted_tick + deadline:
                sheds[job.job_id] = (
                    f"deadline: not admitted within {deadline} ticks"
                )
        if cfg.shed_watermark is not None:
            alive = [j for j in pending if j.job_id not in sheds]
            excess = len(alive) - cfg.shed_watermark
            if excess > 0:
                alive.sort(
                    key=lambda j: (
                        j.effective_priority(now, cfg.aging_rate),
                        -j.job_id,  # newest first among equals
                    )
                )
                for job in alive[:excess]:
                    sheds[job.job_id] = (
                        f"overload: {len(alive)} pending > "
                        f"watermark {cfg.shed_watermark}"
                    )
        if sheds:
            self._shed(sheds)

    def _admit_eligible(self) -> None:
        now = self.clock.now
        cfg = self.config
        pending = sorted(
            (j for j in self.jobs.values() if j.state is JobState.PENDING),
            key=lambda j: (
                -j.effective_priority(now, cfg.aging_rate),
                j.job_id,
            ),
        )
        reserved = self._reserved_bytes()
        for job in pending:
            need = estimate_job_bytes(job.spec)
            if (
                cfg.mem_budget_bytes is not None
                and reserved + need > cfg.mem_budget_bytes
            ):
                job.reason = "waiting: memory budget"
                continue
            quota = cfg.quotas.get(job.spec.tenant)
            if quota is not None:
                live = self._tenant_live(job.spec.tenant)
                if (
                    quota.max_concurrent is not None
                    and len(live) >= quota.max_concurrent
                ):
                    job.reason = (
                        f"waiting: tenant quota ({len(live)}/"
                        f"{quota.max_concurrent} jobs live)"
                    )
                    continue
                if quota.max_resident_bytes is not None:
                    tenant_bytes = sum(
                        estimate_job_bytes(j.spec) for j in live
                    )
                    if tenant_bytes + need > quota.max_resident_bytes:
                        job.reason = (
                            "waiting: tenant quota (resident memory)"
                        )
                        continue
            self.journal.append(
                {"t": "admit", "job": job.job_id, "tick": now}
            )
            job.transition(JobState.ADMITTED)
            job.admitted_tick = now
            reserved += need
            self._counter("service.jobs_admitted").inc()
            self.hub.metrics.histogram("service.queue_wait_ticks").observe(
                float(now - job.submitted_tick)
            )
            self._event("admit", job, wait=now - job.submitted_tick)

    def _pick(self) -> Optional[JobRecord]:
        now = self.clock.now
        runnable = [
            j
            for j in self.jobs.values()
            if j.state in (JobState.ADMITTED, JobState.PREEMPTED)
            and j.next_eligible_tick <= now
        ]
        if not runnable:
            return None
        return max(
            runnable,
            key=lambda j: (
                j.effective_priority(now, self.config.aging_rate),
                -j.job_id,
            ),
        )

    # -- execution -----------------------------------------------------
    def _run_slice(self, job: JobRecord) -> None:
        cfg = self.config
        self._dispatches += 1
        dispatch = self._dispatches
        worker = self._worker_for(job)
        from_step = worker.step_index
        self.journal.append(
            {
                "t": "dispatch",
                "job": job.job_id,
                "from_step": from_step,
                "dispatch": dispatch,
                "tick": self.clock.now,
            }
        )
        if fire_fault(
            "service.dispatch", job=job.job_id, dispatch=dispatch
        ) is not None:
            self.journal.close()
            raise ManagerKilled(
                f"manager killed mid-dispatch {dispatch} "
                f"(job {job.spec.name!r})"
            )
        job.transition(JobState.RUNNING)
        remaining = job.spec.steps - from_step
        self.injector.current_job = job.job_id
        # One correlation scope per dispatch: every span, health
        # verdict, fault and engine event the slice produces joins back
        # to (job_id, tenant, run_id) on the bus.
        run_id = f"{job.job_id}.{dispatch}"
        self._event(
            "resume" if from_step else "dispatch",
            job,
            from_step=from_step,
            dispatch=dispatch,
            run_id=run_id,
        )
        try:
            with _obs.scope(
                job_id=job.job_id, tenant=job.spec.tenant, run_id=run_id
            ):
                with self.hub.tracer.span(
                    "service.slice", job=job.spec.name, dispatch=dispatch
                ):
                    worker.run(remaining, stop_after=cfg.quantum or None)
        except SimulationKilled as exc:
            if self.injector.take_worker_crash():
                self._crash(job, reason=str(exc))
                return
            # Untranslated runner.abort: the *manager* dies mid-run.
            self.journal.close()
            raise ManagerKilled(
                f"manager killed while job {job.spec.name!r} ran: {exc}"
            ) from exc
        except ResilienceExhausted as exc:
            self._crash(job, reason=f"resilience exhausted: {exc}")
            return
        finally:
            self.injector.current_job = None
        if worker.step_index < job.spec.steps:
            self._preempt(job, worker)
            return
        # Slice ran to the job's total target: it is done.
        job.steps_done = worker.step_index
        self.clock.advance(max(1, job.steps_done - from_step))
        job.digest = worker.digest()
        self.journal.append(
            {
                "t": "done",
                "job": job.job_id,
                "steps": job.steps_done,
                "digest": job.digest,
                "tick": self.clock.now,
            }
        )
        job.transition(JobState.DONE)
        job.finished_tick = self.clock.now
        self._release(job.job_id)
        self._counter("service.jobs_completed").inc()
        self.hub.metrics.counter(
            "service.tenant_jobs", tenant=job.spec.tenant, state="done"
        ).inc()
        self._event(
            "done", job, steps=job.steps_done, digest=(job.digest or "")[:12]
        )
        if self.slo is not None:
            self.slo.observe(
                job.spec.tenant,
                latency_ticks=job.finished_tick - job.submitted_tick,
                job_id=job.job_id,
            )

    def _preempt(self, job: JobRecord, worker: JobWorker) -> None:
        # The slice's final checkpoint is on disk before this journal
        # append: if the append kills the manager, replay rewinds the
        # job to ADMITTED and the resume point is that checkpoint
        # either way.
        job.steps_done = worker.step_index
        job.preemptions += 1
        self.clock.advance(max(1, self.config.quantum))
        self.journal.append(
            {
                "t": "preempt",
                "job": job.job_id,
                "at_step": job.steps_done,
                "tick": self.clock.now,
            }
        )
        job.transition(JobState.PREEMPTED)
        if not self.config.keep_warm:
            worker.discard()
        self._counter("service.preemptions").inc()
        self._event("preempt", job, at_step=job.steps_done)

    def _crash(self, job: JobRecord, *, reason: str) -> None:
        """A worker died mid-slice: requeue behind backoff or fail."""
        job.attempts += 1
        self._counter("service.worker_crashes").inc()
        # The in-memory driver is poisoned; resume from checkpoints.
        worker = self._workers.get(job.job_id)
        if worker is not None:
            worker.discard()
        self.clock.advance(1)
        if job.attempts >= self.config.max_attempts:
            self.journal.append(
                {
                    "t": "failed",
                    "job": job.job_id,
                    "reason": reason,
                    "tick": self.clock.now,
                }
            )
            job.transition(JobState.FAILED, reason=reason)
            job.finished_tick = self.clock.now
            self._release(job.job_id)
            self._counter("service.jobs_failed").inc()
            self.hub.metrics.counter(
                "service.tenant_jobs", tenant=job.spec.tenant, state="failed"
            ).inc()
            self._event("failed", job, reason=reason[:160])
            if self.slo is not None:
                self.slo.observe(
                    job.spec.tenant,
                    latency_ticks=job.finished_tick - job.submitted_tick,
                    failed=True,
                    job_id=job.job_id,
                )
            return
        delay = _crash_backoff(job.attempts, job.job_id)
        job.next_eligible_tick = self.clock.now + max(1, math.ceil(delay))
        self.journal.append(
            {
                "t": "crash",
                "job": job.job_id,
                "attempt": job.attempts,
                "next_eligible": job.next_eligible_tick,
                "reason": reason,
                "tick": self.clock.now,
            }
        )
        job.transition(JobState.ADMITTED)
        self._counter("service.job_retries").inc()
        self._event(
            "crash",
            job,
            attempt=job.attempts,
            next_eligible=job.next_eligible_tick,
            reason=reason[:160],
        )

    # -- the scheduler loop --------------------------------------------
    def run(self, *, max_ticks: Optional[int] = None) -> ServiceReport:
        """Drain the queue: schedule until every job is terminal.

        Raises :class:`~repro.service.errors.ManagerKilled` when an
        armed fault kills the manager mid-operation; the journal and
        per-job checkpoints on disk are then the recovery contract for
        the next ``JobManager`` over this directory.
        """
        with self._armed():
            while True:
                self.clock.advance()
                self._tick_stats()
                self._check_memory()
                self._maybe_compact()
                if max_ticks is not None and self.clock.now >= max_ticks:
                    break
                self._shed_overloaded()
                if self.config.quotas:
                    self._enforce_disk_quotas()
                self._admit_eligible()
                job = self._pick()
                if job is not None:
                    self._run_slice(job)
                    continue
                waiting = [
                    j.next_eligible_tick
                    for j in self.jobs.values()
                    if j.state in (JobState.ADMITTED, JobState.PREEMPTED)
                ]
                if waiting:  # everyone runnable is in a backoff window
                    self.clock.fast_forward(min(waiting))
                    continue
                if any(
                    j.state is JobState.PENDING for j in self.jobs.values()
                ):
                    # Unreachable by construction (a lone pending job
                    # always fits: over-budget specs are rejected at
                    # submit), but never hang — shed explicitly.
                    self._shed(
                        {
                            j.job_id: (
                                j.reason.replace(
                                    "waiting: ", "unschedulable: ", 1
                                )
                                if j.reason.startswith("waiting: ")
                                else "unschedulable: memory budget"
                            )
                            for j in self.jobs.values()
                            if j.state is JobState.PENDING
                        }
                    )
                    continue
                break
        return self.report()

    def _tick_stats(self) -> None:
        """Queue-depth gauges plus the exporter's logical heartbeat."""
        counts: Dict[str, int] = {}
        for j in self.jobs.values():
            counts[j.state.value] = counts.get(j.state.value, 0) + 1
        for state in ("pending", "admitted", "running", "preempted"):
            self.hub.metrics.gauge("service.queue_depth", state=state).set(
                float(counts.get(state, 0))
            )
        for tenant in self.config.quotas:
            live = self._tenant_live(tenant)
            self.hub.metrics.gauge(
                "service.tenant_live_jobs", tenant=tenant
            ).set(float(len(live)))
            self.hub.metrics.gauge(
                "service.tenant_resident_bytes", tenant=tenant
            ).set(float(sum(estimate_job_bytes(j.spec) for j in live)))
        self.hub.pulse(tick=self.clock.now)

    # -- reporting -----------------------------------------------------
    def table(self) -> List[Dict[str, Any]]:
        """One summary row per job, submission order."""
        return job_table(self.jobs)

    def _count(self, state: JobState) -> int:
        return sum(1 for j in self.jobs.values() if j.state is state)

    def report(self) -> ServiceReport:
        return ServiceReport(
            ticks=self.clock.now,
            completed=self._count(JobState.DONE),
            failed=self._count(JobState.FAILED),
            shed=self._count(JobState.SHED),
            rejected=self._count(JobState.REJECTED),
            preemptions=sum(j.preemptions for j in self.jobs.values()),
            worker_crashes=sum(j.attempts for j in self.jobs.values()),
            clock_jumps=self.clock.jumps,
            faults=list(self.injector.events),
            jobs=self.table(),
        )

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
