"""Resilient execution of simulation drivers.

:class:`ResilientRunner` wraps either Stokesian dynamics driver and
adds the recovery machinery long campaigns need:

* a pre-step **shadow snapshot** (in-memory ``get_state()``) so a step
  that produces non-finite positions, overlapping particles, or a
  numerical exception is rolled back and retried with ``dt`` backed
  off — then healed back to the original ``dt`` after a healthy streak;
* **graceful MRHS degradation**: a chunk whose auxiliary block solve
  breaks repeatedly is rewound and retried at ``m/2``, halving until it
  succeeds (recorded in ``ChunkRecord.degradations``).  The rewind is
  the same rollback as a rejected step's;
* **periodic checkpoints** through a
  :class:`~repro.resilience.checkpoint.CheckpointManager`, taken at
  step granularity — including *mid-chunk* for the MRHS driver — so a
  killed process resumes bit-exactly;
* optional **fault-plan arming** for deterministic failure drills.

The runner drives chunked drivers one time step at a time via
``begin_chunk``/``step_in_chunk``, so every policy (retry, checkpoint,
abort) applies uniformly to both algorithms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.health.acceptance import StepAcceptanceController
from repro.health.monitor import HealthMonitor
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import (
    BlockSolveBroken,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RankFailure,
    SimulationKilled,
    arm,
    disarm,
    fire_fault,
)
from repro.resilience.policies import (
    DegradePolicy,
    RecoveryPolicy,
    ResilienceExhausted,
    RetryPolicy,
)
from repro.sparse.enginewatch import get_engine_watch
import repro.telemetry as _telemetry
from repro.telemetry import context as _obs

__all__ = [
    "ResilientRunner",
    "RunReport",
    "resume_driver",
]

logger = logging.getLogger(__name__)


@dataclass
class RunReport:
    """What the runner did across one :meth:`ResilientRunner.run_steps`."""

    steps_completed: int = 0
    retries: int = 0
    dt_backoffs: int = 0
    dt_heals: int = 0
    backoff_seconds: float = 0.0
    """Total retry backoff waited (seeded-jitter exponential; see
    :class:`~repro.resilience.policies.BackoffPolicy`)."""
    final_dt: float = 0.0
    degradations: List[Tuple[int, int]] = field(default_factory=list)
    """``(chunk_index, m_after)`` per degradation event."""
    checkpoints: List[Path] = field(default_factory=list)
    faults: List[FaultEvent] = field(default_factory=list)
    quarantines: int = 0
    """MRHS chunks whose block solutions were discarded after a health
    violation was traced to a stale/poisoned initial guess."""
    rejected_checks: List[str] = field(default_factory=list)
    """Invariant names whose fatal verdicts rejected steps (monitor
    runs only)."""
    rank_recoveries: List[Tuple[Tuple[int, ...], int, int]] = field(
        default_factory=list
    )
    """``(dead_ranks, restored_step, replayed_steps)`` per rank
    recovery (distributed runs only)."""


class ResilientRunner:
    """Run a driver to completion through faults, retries, and kills.

    Parameters
    ----------
    driver:
        A :class:`~repro.stokesian.dynamics.StokesianDynamics`,
        :class:`~repro.core.mrhs.MrhsStokesianDynamics`, or
        :class:`~repro.distributed.driver.DistributedSimulation`
        instance (fresh or restored via :func:`resume_driver`).  For a
        distributed driver the dt/particle machinery is inert;
        :class:`~repro.resilience.faults.RankFailure` handling (recover,
        then degrade ``m``, bounded by ``recovery``) replaces it, and
        the checkpoint cadence additionally writes the per-rank shard
        wave recovery restores from.
    retry, degrade, recovery:
        Recovery policies (see :mod:`repro.resilience.policies`).
    manager:
        Optional checkpoint manager; with ``checkpoint_every > 0`` a
        checkpoint is written every that many completed steps, and each
        :meth:`run_steps` call checkpoints the step it returns at (once:
        a step the cadence just wrote is not written again).
    injector:
        Optional fault plan/injector armed for the duration of each
        :meth:`run_steps` call.
    monitor:
        Optional :class:`~repro.health.monitor.HealthMonitor`.  When
        given it is attached to the underlying SD driver (so every step
        is observed), healing consults its verdicts — a step whose
        invariants go fatal is rejected and retried even if no
        exception was raised — and checkpoints embed the health report
        under a ``"health"`` key.
    reject_on_fatal:
        With ``False`` the monitor only *observes* (report still
        recorded and checkpointed) and step rejection falls back to the
        exception/state-screen diagnosis alone.
    sleep:
        Injectable wait callable for retry backoff (see
        :class:`~repro.resilience.policies.BackoffPolicy`); defaults to
        :func:`time.sleep`.
    memory_guard:
        Optional :class:`~repro.resources.governor.MemoryGuard`.  When
        given, every healthy step polls it; a new RSS-watermark breach
        is logged, surfaced as a WARN through the health monitor (when
        attached), counted, and put on the event bus — the run itself
        continues (shedding memory is the scheduler's job, not the
        integrator's).
    """

    def __init__(
        self,
        driver: Any,
        *,
        retry: RetryPolicy = RetryPolicy(),
        degrade: DegradePolicy = DegradePolicy(),
        recovery: RecoveryPolicy = RecoveryPolicy(),
        manager: Optional[CheckpointManager] = None,
        checkpoint_every: int = 0,
        injector: Optional[Union[FaultInjector, FaultPlan]] = None,
        monitor: Optional[HealthMonitor] = None,
        reject_on_fatal: bool = True,
        sleep: Optional[Any] = None,
        memory_guard: Optional[Any] = None,
    ) -> None:
        self._distributed = hasattr(driver, "shard_states") and hasattr(
            driver, "recover"
        )
        if self._distributed:
            self._chunked = False
            if monitor is not None:
                raise ValueError(
                    "health monitors attach to particle-dynamics drivers; "
                    "a distributed driver has no particle system"
                )
        elif hasattr(driver, "begin_chunk") and hasattr(driver, "sd"):
            self._chunked = True
        elif hasattr(driver, "step") and hasattr(driver, "get_state"):
            self._chunked = False
        else:
            raise TypeError(
                "driver must be StokesianDynamics, MrhsStokesianDynamics, "
                f"or DistributedSimulation (got {type(driver).__name__})"
            )
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every and manager is None:
            raise ValueError("checkpoint_every requires a CheckpointManager")
        self.driver = driver
        self.retry = retry
        self.degrade = degrade
        self.manager = manager
        self.checkpoint_every = int(checkpoint_every)
        self.injector: Optional[FaultInjector] = (
            injector
            if injector is None or isinstance(injector, FaultInjector)
            else FaultInjector(injector)
        )
        self.monitor = monitor
        self.memory_guard = memory_guard
        self.recovery_policy = recovery
        self._streak = 0
        self._saved_step: Optional[int] = None
        if self._distributed:
            # No dt to back off and no particle screen: the distributed
            # accept/reject loop is RankFailure -> recover/degrade.
            self._original_dt = 0.0
            self._controller = None
        else:
            self._original_dt = float(self._sd().params.dt)
            if monitor is not None:
                self._sd().health = monitor
            self._controller = StepAcceptanceController(
                driver,
                retry=retry,
                monitor=monitor,
                reject_on_fatal=reject_on_fatal,
                sleep=sleep,
            )
        # Engine watchdog wiring: kernel demotions and miscompares get
        # stamped with the step index, and (with a monitor) surface in
        # the same health report as the physics invariants.
        self._watch = get_engine_watch()
        if monitor is not None:
            self._watch.attach_monitor(monitor)

    # ------------------------------------------------------------------
    def _sd(self):
        return self.driver.sd if self._chunked else self.driver

    @property
    def step_index(self) -> int:
        """Global time-step counter (continues across resumes)."""
        return int(self._sd().step_index)

    def _dt(self) -> float:
        return 0.0 if self._distributed else float(self._sd().params.dt)

    def _set_dt(self, dt: float) -> None:
        if self._distributed:
            return
        sd = self._sd()
        sd.params = replace(sd.params, dt=dt)

    # ------------------------------------------------------------------
    def run_steps(
        self, n_steps: int, *, stop_after: Optional[int] = None
    ) -> RunReport:
        """Advance ``n_steps`` healthy time steps (retries don't count).

        The final MRHS chunk is truncated so exactly ``n_steps`` steps
        run.  Chunk boundaries shape the block-solve guesses, so a
        trajectory is bit-reproducible only across runs targeting the
        same total step count: ``run_steps(5)`` followed by
        ``run_steps(3)`` chunks ``4+1+3`` and will not bit-match a
        single ``run_steps(8)`` (``4+4``).

        ``stop_after`` slices such a run without changing it: chunks
        are still planned toward ``n_steps``, but the call returns
        after ``stop_after`` healthy steps (after that step's cadence
        checkpoint, before its ``runner.abort`` poll), with the stop
        point checkpointed like any finish.  ``run_steps(8,
        stop_after=3)`` then ``run_steps(5)`` bit-matches
        ``run_steps(8)``; so does kill-and-resume toward one target.

        Raises :class:`ResilienceExhausted` when a retry or degradation
        budget runs out, and :class:`SimulationKilled` when an armed
        fault plan targets ``runner.abort`` (the simulated process
        kill; checkpoints written so far remain on disk).
        """
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if stop_after is not None and stop_after < 0:
            raise ValueError("stop_after must be non-negative")
        stop = n_steps if stop_after is None else min(stop_after, n_steps)
        report = RunReport(final_dt=self._dt())
        self._saved_step = None
        armed_here = self.injector is not None
        if armed_here:
            arm(self.injector)
        # Correlation: keep the caller's job_id/run_id if one is live
        # (the service opened a scope); otherwise mint a solo run_id.
        # The scope snapshot also rolls back the chunk/step annotations
        # made inside the loop when this call exits.
        ambient = _obs.correlation()
        run_id = ambient.get("run_id") or _obs.next_run_id()
        with _obs.scope(run_id=run_id):
            try:
                while report.steps_completed < stop:
                    # Stamp before the chunk solve too, so engine events
                    # fired by block-solve multiplies carry a step index.
                    self._watch.current_step = self.step_index
                    _obs.annotate(step=self.step_index)
                    if self._chunked:
                        if self.driver.pending is None:
                            remaining = n_steps - report.steps_completed
                            self._begin_chunk_resilient(
                                min(int(self.driver.mrhs.m), remaining), report
                            )
                        # Stamp the live chunk index so step and kernel
                        # spans join back to it, also when a resumed or
                        # sliced call starts inside a pending chunk.
                        _obs.annotate(chunk=self.driver.pending.chunk_index)
                    self._attempt_step(report)
                    report.steps_completed += 1
                    self._after_healthy_step(report)
                    if report.steps_completed == stop < n_steps:
                        break  # the final checkpoint below is the stop point
                    self._poll_after_step()
                if self.manager is not None:
                    self._save_checkpoint(report)
            finally:
                if self.manager is not None:
                    # Queued async writes must be on disk before control
                    # returns (kill-and-resume reads the directory next).
                    self.manager.flush()
                report.final_dt = self._dt()
                if self.injector is not None:
                    report.faults = list(self.injector.events)
                if armed_here:
                    disarm()
        return report

    # ------------------------------------------------------------------
    def _begin_chunk_resilient(self, m_target: int, report: RunReport) -> None:
        """Block solve with rewind + m-halving on repeated breakdown.

        A broken attempt is undone by the step acceptance controller's
        rollback (driver state, monitor and the attempt's metrics), so
        the counters track the accepted timeline.
        """
        shadow = self.driver.get_state()
        m = int(m_target)
        attempts = 0
        degradations: List[int] = []
        while True:
            metrics_shadow = self._controller.metrics_snapshot()
            try:
                pending = self.driver.begin_chunk(m)
            except BlockSolveBroken as exc:
                self._controller.rollback(shadow, metrics_shadow)
                attempts += 1
                logger.warning(
                    "block solve broke down (attempt %d at m=%d): %s",
                    attempts, m, exc,
                )
                if attempts >= self.degrade.max_block_attempts:
                    if m <= self.degrade.min_m:
                        raise ResilienceExhausted(
                            f"block solve kept breaking down at m={m} "
                            f"(floor {self.degrade.min_m})"
                        ) from exc
                    m = max(self.degrade.min_m, m // 2)
                    degradations.append(m)
                    telemetry = getattr(self._sd(), "telemetry", None)
                    if telemetry is not None:
                        telemetry.metrics.counter("chunks.m_degradations").inc()
                        telemetry.metrics.gauge("chunks.current_m").set(m)
                    attempts = 0
                continue
            pending.degradations.extend(degradations)
            for m_after in degradations:
                report.degradations.append((pending.chunk_index, m_after))
                logger.warning(
                    "chunk %d degraded to m=%d after repeated block "
                    "breakdown", pending.chunk_index, m_after,
                )
            return

    def _attempt_step_distributed(self, report: RunReport) -> None:
        """One healthy distributed step through rank failures.

        The driver spends its own recovery budget first (transparent
        failover inside ``driver.step()``).  A :class:`RankFailure`
        that escapes it is handled here: while the total recovery count
        is under :class:`~repro.resilience.policies.RecoveryPolicy`'s
        cap and enough ranks survive, the runner degrades ``m`` (per
        the :class:`~repro.resilience.policies.DegradePolicy` floor) to
        shed halo-exchange pressure on the shrunken cluster, then
        recovers and retries — m-degradation and rank recovery
        *compose* instead of the former bypassing the latter.
        """
        while True:
            try:
                self.driver.step()
            except RankFailure as exc:
                report.retries += 1
                done = len(self.driver.recoveries)
                survivors = self.driver.n_parts - len(exc.ranks)
                if (
                    done >= self.recovery_policy.max_rank_recoveries
                    or survivors < self.recovery_policy.min_ranks
                ):
                    raise ResilienceExhausted(
                        f"rank(s) {list(exc.ranks)} failed at step "
                        f"{self.step_index} with {done} recoveries spent "
                        f"and {survivors} survivors"
                    ) from exc
                if self.driver.m > self.degrade.min_m:
                    new_m = max(self.degrade.min_m, self.driver.m // 2)
                    self.driver.degrade_m(new_m)
                    report.degradations.append((self.step_index, new_m))
                    logger.warning(
                        "rank failure past the driver's recovery budget; "
                        "degraded to m=%d before runner-level recovery",
                        new_m,
                    )
                rep = self.driver.recover(exc.ranks)
                report.rank_recoveries.append(
                    (
                        tuple(rep.dead_ranks),
                        int(rep.restored_step),
                        int(rep.replayed_steps),
                    )
                )
                continue
            # Fold the driver's transparent recoveries into the report
            # exactly once each.
            for rep in self.driver.recoveries[len(report.rank_recoveries):]:
                report.rank_recoveries.append(
                    (
                        tuple(rep.dead_ranks),
                        int(rep.restored_step),
                        int(rep.replayed_steps),
                    )
                )
            return

    def _attempt_step(self, report: RunReport) -> None:
        """One healthy step, retrying with dt backoff on bad outcomes.

        The accept/reject/retry loop itself lives in
        :class:`~repro.health.acceptance.StepAcceptanceController`;
        this method only folds its outcome into the run report.
        """
        self._watch.current_step = self.step_index
        if self._distributed:
            self._attempt_step_distributed(report)
            return
        outcome = self._controller.attempt_step()
        report.retries += outcome.retries
        report.dt_backoffs += outcome.dt_backoffs
        report.backoff_seconds += outcome.backoff_seconds
        report.quarantines += outcome.quarantines
        report.rejected_checks.extend(outcome.rejected_checks)
        if outcome.retries:
            self._streak = 0

    def _after_healthy_step(self, report: RunReport) -> None:
        # Heal dt back toward the original after a healthy streak.
        self._streak += 1
        current_dt = self._dt()
        if (
            not self._distributed
            and current_dt < self._original_dt
            and self._streak >= self.retry.heal_streak
        ):
            healed = min(self._original_dt, current_dt / self.retry.dt_backoff)
            self._set_dt(healed)
            report.dt_heals += 1
            self._streak = 0
            logger.info("healthy streak: dt healed to %.3g", healed)
        # Checkpoint cadence before the simulated-kill site, so a
        # killed run always has a checkpoint at or after the last
        # cadence boundary.
        if (
            self.checkpoint_every
            and self.step_index % self.checkpoint_every == 0
        ):
            self._save_checkpoint(report)

    def _poll_after_step(self) -> None:
        """The between-steps polls: simulated kill, memory, export."""
        fault = fire_fault("runner.abort", step=self.step_index)
        if fault is not None:
            raise SimulationKilled(
                f"simulated kill after step {self.step_index}"
            )
        if self.memory_guard is not None:
            self._check_memory()
        hub = _telemetry.active_hub
        if hub is not None:
            # Wall-clock export cadence rides the step loop; the call is
            # a clock read and a compare when no export is due.
            hub.pulse()

    def _check_memory(self) -> None:
        """Report a new RSS-watermark breach (edge-triggered)."""
        rss = self.memory_guard.check()
        if rss is None:
            return
        watermark = self.memory_guard.watermark_bytes
        # The breach lands in state a checkpoint carries (health report,
        # counters): let the final save rewrite this step.
        self._saved_step = None
        logger.warning(
            "resident memory %d bytes crossed the %d-byte watermark at "
            "step %d", rss, watermark, self.step_index,
        )
        if self.monitor is not None:
            from repro.health.monitor import Severity

            self.monitor.observe_external(
                check="memory.watermark",
                severity=Severity.WARN,
                message=(
                    f"rss {rss} bytes over the {watermark}-byte watermark"
                ),
                step_index=self.step_index,
            )
        hub = _telemetry.active_hub
        if hub is not None:
            hub.metrics.counter("resources.memory_breaches").inc()
            hub.emit_event(
                "resources",
                "memory_watermark",
                rss_bytes=rss,
                watermark_bytes=watermark,
                step=self.step_index,
            )

    def _save_checkpoint(self, report: RunReport) -> None:
        if self._saved_step == self.step_index:
            return  # the cadence already wrote this step
        self._saved_step = self.step_index
        state = self.driver.get_state()
        if self.monitor is not None:
            state["health"] = self.monitor.report.to_state()
        # Quarantine state rides in every checkpoint: a resumed run must
        # not re-trust an engine that was caught miscomparing.
        state["enginewatch"] = self._watch.to_state()
        telemetry = getattr(self._sd(), "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            # Counters ride in the checkpoint so a resumed run's metrics
            # continue monotonically; the trace file is append-only and
            # needs no state.  Flush first so the JSONL on disk is at
            # least as fresh as the checkpoint it accompanies.
            telemetry.flush()
            state["telemetry"] = telemetry.metrics.to_state()
        path = self.manager.save_async(state, step=self.step_index)
        report.checkpoints.append(path)
        hub = _telemetry.active_hub
        if hub is not None:
            hub.emit_event(
                "checkpoint", "write", step=self.step_index, path=path.name
            )
        if self._distributed and self.driver.recovery is not None:
            # The global checkpoint resumes a killed run; the shard wave
            # is what rank recovery restores from — same cadence.
            self.driver.recovery.checkpoint(self.driver)


# ----------------------------------------------------------------------
def resume_driver(
    state: Dict[str, Any], *, forces=None, policy=None, telemetry=None
) -> Any:
    """Rebuild the right driver class from a checkpointed state dict.

    ``telemetry`` optionally supplies the resumed run's hub; when the
    checkpoint carries metrics state (written by a telemetry-enabled
    runner), the hub's counters are restored from it so they continue
    monotonically across the kill boundary.
    """
    from repro.telemetry import NULL_HUB

    hub = NULL_HUB if telemetry is None else telemetry
    if hub.enabled and "telemetry" in state:
        hub.metrics.load_state(state["telemetry"])
    if "enginewatch" in state:
        get_engine_watch().load_state(state["enginewatch"])
    kind = state.get("kind")
    if kind == "sd":
        from repro.stokesian.dynamics import StokesianDynamics

        return StokesianDynamics.from_state(
            state, forces=forces, telemetry=hub
        )
    if kind == "mrhs":
        from repro.core.mrhs import MrhsStokesianDynamics

        return MrhsStokesianDynamics.from_state(
            state, forces=forces, telemetry=hub
        )
    if kind == "auto":
        from repro.core.auto import AutoMrhsStokesianDynamics

        return AutoMrhsStokesianDynamics.from_state(
            state, policy=policy, forces=forces, telemetry=hub
        )
    raise ValueError(f"unknown checkpoint kind {kind!r}")
