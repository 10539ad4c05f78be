"""Job model for the multi-tenant simulation service.

A :class:`JobSpec` is everything needed to reproduce one simulation
run bit-exactly — workload parameters plus the seed — together with
the service-level knobs (priority, deadline).  A :class:`JobRecord` is
the manager's mutable view of one submitted job walking the state
machine

    PENDING -> ADMITTED -> RUNNING -> PREEMPTED -> ... -> DONE
        \\-> REJECTED (submit-time)        \\-> FAILED
        \\-> SHED (overload / deadline, never after admission)

Transitions are validated (:meth:`JobRecord.transition`), so a
scheduler bug that tries to shed an admitted job or resurrect a done
one fails loudly instead of corrupting the table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "JobSpec",
    "JobState",
    "JobRecord",
    "TenantQuota",
    "estimate_job_bytes",
]


class JobState(enum.Enum):
    """Lifecycle of one submitted job."""

    PENDING = "pending"
    """Journaled, not yet admitted; the only state shedding may touch."""
    ADMITTED = "admitted"
    """Resources reserved; the service now guarantees completion or
    bounded-retry exhaustion (never shedding)."""
    RUNNING = "running"
    """Currently holding the (single) execution slot."""
    PREEMPTED = "preempted"
    """Checkpointed and paused in favor of a higher-priority job."""
    DONE = "done"
    FAILED = "failed"
    SHED = "shed"
    """Dropped under overload or past its deadline — before admission."""
    REJECTED = "rejected"
    """Refused at submit time (queue depth / impossible memory fit)."""

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE, JobState.FAILED, JobState.SHED, JobState.REJECTED
        )


#: Legal state-machine edges (see module docstring).
_TRANSITIONS = {
    JobState.PENDING: {JobState.ADMITTED, JobState.SHED, JobState.REJECTED},
    JobState.ADMITTED: {JobState.RUNNING},
    JobState.RUNNING: {
        JobState.PREEMPTED, JobState.DONE, JobState.FAILED,
        # Worker crash: the job goes back to the queue for a retry.
        JobState.ADMITTED,
    },
    JobState.PREEMPTED: {JobState.RUNNING},
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.SHED: set(),
    JobState.REJECTED: set(),
}


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: workload + seed + service knobs.

    The workload fields mirror the ``simulate`` CLI; ``seed`` pins the
    packing and noise streams so the job's trajectory is a pure
    function of the spec — the property every recovery guarantee in
    the service leans on.
    """

    name: str
    n: int = 24
    """Particles."""
    phi: float = 0.2
    """Volume occupancy."""
    m: int = 4
    """Right-hand sides per MRHS chunk."""
    steps: int = 8
    """Total time steps the job must complete."""
    seed: int = 0
    dt: float = 0.05
    priority: int = 0
    """Base priority; larger runs sooner (aging lifts waiters)."""
    tenant: str = "default"
    """Billing/SLO identity.  Latency histograms, burn-rate gauges and
    violation verdicts are all keyed by this label."""
    deadline: Optional[int] = None
    """Ticks after submission by which the job must be *admitted*;
    pending jobs past it are shed.  Admission stops the clock — an
    admitted job always runs to completion or retry exhaustion."""

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError("name must be a non-empty bare identifier")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0 < self.phi < 0.64:
            raise ValueError("phi must be in (0, 0.64)")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not self.tenant or "/" in self.tenant:
            raise ValueError("tenant must be a non-empty bare identifier")
        if self.deadline is not None and self.deadline < 1:
            raise ValueError("deadline must be >= 1 tick")

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name, "n": self.n, "phi": self.phi, "m": self.m,
            "steps": self.steps, "seed": self.seed, "dt": self.dt,
            "priority": self.priority, "tenant": self.tenant,
            "deadline": self.deadline,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "JobSpec":
        known = {k: doc[k] for k in cls.__dataclass_fields__ if k in doc}
        unknown = set(doc) - set(known)
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        return cls(**known)


def estimate_job_bytes(spec: JobSpec) -> int:
    """Coarse admission-control memory estimate for one live job.

    Dominated by the BCRS resistance matrix (3x3 blocks, ~a few dozen
    neighbors per particle at liquid-like occupancy) plus the m-wide
    noise/guess matrices and the in-memory checkpoint snapshot.  This
    is a *budgeting* figure, deliberately pessimistic; it only needs to
    rank jobs and sum sensibly against ``mem_budget_bytes``.
    """
    b = 3  # 3x3 mobility blocks
    blocks = spec.n * (1 + 48 * spec.phi)  # diag + neighbor blocks
    matrix = blocks * (b * b * 8 + 4) * 2  # values+indices, matrix+precond
    vectors = spec.n * b * 8 * (6 + 4 * spec.m)  # state, noise Z, guesses U
    return int(2 * (matrix + vectors)) + (1 << 20)  # x2 snapshot + fixed


@dataclass
class JobRecord:
    """The manager's mutable bookkeeping for one submitted job."""

    job_id: int
    spec: JobSpec
    state: JobState = JobState.PENDING
    submitted_tick: int = 0
    admitted_tick: Optional[int] = None
    finished_tick: Optional[int] = None
    steps_done: int = 0
    attempts: int = 0
    """Job-level retry count (worker crashes, in-job exhaustion)."""
    next_eligible_tick: int = 0
    """Backoff gate: not scheduled before this tick."""
    preemptions: int = 0
    digest: Optional[str] = None
    """SHA-256 of the final positions (set on DONE)."""
    reason: str = ""
    """Why the job was rejected, shed, or failed."""
    extra: Dict[str, Any] = field(default_factory=dict)

    def transition(self, new: JobState, *, reason: str = "") -> None:
        if new not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"job {self.spec.name!r}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        self.state = new
        if reason:
            self.reason = reason

    def effective_priority(self, now: int, aging_rate: float) -> float:
        """Base priority lifted by queue wait (priority-with-aging).

        Aging accrues from submission until the job first runs, so a
        low-priority job's claim keeps strengthening and starvation is
        impossible: after ``(p_hi - p_lo) / aging_rate`` ticks it
        outranks any fresh high-priority arrival.
        """
        anchor = self.submitted_tick
        return self.spec.priority + aging_rate * max(0, now - anchor)

    # ------------------------------------------------------------------
    # serialization (journal compaction snapshots)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_json(),
            "state": self.state.value,
            "submitted_tick": self.submitted_tick,
            "admitted_tick": self.admitted_tick,
            "finished_tick": self.finished_tick,
            "steps_done": self.steps_done,
            "attempts": self.attempts,
            "next_eligible_tick": self.next_eligible_tick,
            "preemptions": self.preemptions,
            "digest": self.digest,
            "reason": self.reason,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "JobRecord":
        known = {k: doc[k] for k in cls.__dataclass_fields__ if k in doc}
        unknown = set(doc) - set(known)
        if unknown:
            raise ValueError(f"unknown JobRecord fields: {sorted(unknown)}")
        known["spec"] = JobSpec.from_json(known["spec"])
        known["state"] = JobState(known["state"])
        return cls(**known)


@dataclass(frozen=True)
class TenantQuota:
    """Hard per-tenant resource caps, enforced by the manager.

    Unlike the SLO layer (which *observes* and reports), a quota
    *vetoes*: a tenant at its cap has new work rejected at submit time
    or parked at admission ("waiting: tenant quota"), and a tenant
    whose on-disk artifact footprint crosses ``max_disk_bytes`` has
    pending jobs SHED — all with recorded reasons, and all without
    touching other tenants' scheduling.  ``None`` means uncapped.
    """

    max_concurrent: Optional[int] = None
    """Live (admitted/running/preempted) jobs at once."""
    max_resident_bytes: Optional[int] = None
    """Summed :func:`estimate_job_bytes` of the tenant's live jobs."""
    max_disk_bytes: Optional[int] = None
    """On-disk footprint of the tenant's job directories."""

    def __post_init__(self) -> None:
        for name in (
            "max_concurrent", "max_resident_bytes", "max_disk_bytes"
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None)")

    @classmethod
    def parse(cls, text: str) -> "TenantQuota":
        """Parse the CLI form ``jobs=N,mem=SIZE,disk=SIZE`` (any subset).

        Sizes accept the ``k``/``m``/``g`` binary suffixes of
        :func:`repro.resources.parse_size`.
        """
        from repro.resources.rotate import parse_size

        kwargs: Dict[str, Any] = {}
        for part in str(text).split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"quota clause {part!r} is not key=value "
                    "(expected jobs=N,mem=SIZE,disk=SIZE)"
                )
            key, value = (s.strip() for s in part.split("=", 1))
            if key == "jobs":
                kwargs["max_concurrent"] = int(value)
            elif key == "mem":
                kwargs["max_resident_bytes"] = parse_size(value)
            elif key == "disk":
                kwargs["max_disk_bytes"] = parse_size(value)
            else:
                raise ValueError(
                    f"unknown quota key {key!r} (expected jobs/mem/disk)"
                )
        return cls(**kwargs)
