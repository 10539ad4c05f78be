"""Step acceptance/rejection: reject, retry, quarantine, or give up.

:class:`StepAcceptanceController` owns the retry loop around one time
step.  It snapshots driver state (``get_state``/``set_state``), attempts
the step, and diagnoses the outcome three ways:

1. a numerical exception from the solvers,
2. the baseline state screen (non-finite positions, overlapping
   particles — what the resilient runner always checked), and
3. when a :class:`~repro.health.monitor.HealthMonitor` is attached, any
   fatal invariant verdict the monitor recorded for the step.

A rejected step is rolled back (state, monitor observations and the
attempt's metrics, by :meth:`StepAcceptanceController.rollback`, which
the resilient runner's chunk rewind shares) and retried with ``dt``
halved per :class:`~repro.resilience.policies.RetryPolicy` — unless
the violation is traced to a stale MRHS block solution, in which case
the pending chunk is **quarantined** (its remaining initial guesses
discarded; the chunk finishes on cold-start CG) and the step retried
at the *same* ``dt``, because the guess, not the step size, was the
poison.

:class:`~repro.resilience.runner.ResilientRunner` composes this
controller rather than duplicating the loop; it can also be used
standalone around a bare driver.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional

import numpy as np

from repro.health.invariants import deepest_relative_overlap
from repro.health.monitor import HealthMonitor
from repro.resilience.faults import FaultInjected
from repro.resilience.policies import ResilienceExhausted, RetryPolicy
from repro.telemetry import NULL_HUB

__all__ = [
    "StepOutcome",
    "StepAcceptanceController",
    "violation_traced_to_guess",
]

logger = logging.getLogger(__name__)


def violation_traced_to_guess(driver: Any, failure: str) -> bool:
    """Is this step failure plausibly caused by a stale block solution?

    True when the driver is mid-chunk past column 0 (column 0 is the
    block solve's *exact* solution for step 0, so its failure cannot be
    guess staleness), the chunk is not already quarantined, and either
    the pending guess column is itself non-finite or the failure is a
    finiteness violation (a poisoned guess seeds CG with garbage, and
    CG preserves NaN).
    """
    pending = getattr(driver, "pending", None)
    if pending is None or getattr(pending, "quarantined", False):
        return False
    if pending.k <= 0:
        return False
    guess = np.asarray(pending.U[:, pending.k])
    if not np.isfinite(guess).all():
        return True
    return "finite" in failure


@dataclass
class StepOutcome:
    """Bookkeeping of one accepted step (after zero or more rejections)."""

    retries: int = 0
    dt_backoffs: int = 0
    quarantines: int = 0
    rejected_checks: List[str] = field(default_factory=list)
    """Invariant names whose fatal verdicts caused rejections."""
    backoff_seconds: float = 0.0
    """Total wall-clock wait spent between rejections and retries
    (:class:`~repro.resilience.policies.BackoffPolicy`)."""


class StepAcceptanceController:
    """The accept/reject/retry loop around one driver time step.

    Parameters
    ----------
    driver:
        A ``StokesianDynamics`` or ``MrhsStokesianDynamics`` instance.
    retry:
        Retry budget and dt-backoff policy.
    monitor:
        Optional health monitor.  Without one the controller reproduces
        the resilient runner's original behavior exactly (exception +
        state-screen diagnosis, every retry backs off ``dt``); with one,
        rejected steps withdraw its observations, and fatal invariant
        verdicts also reject steps and traced violations quarantine the
        MRHS chunk, unless ``reject_on_fatal`` is false (observe only).
    sleep:
        Callable taking a delay in seconds, invoked before each retry
        with the :class:`~repro.resilience.policies.BackoffPolicy`
        delay (skipped when it is zero).  Defaults to
        :func:`time.sleep`; tests and the job service inject a virtual
        clock here.
    """

    def __init__(
        self,
        driver: Any,
        *,
        retry: RetryPolicy = RetryPolicy(),
        monitor: Optional[HealthMonitor] = None,
        reject_on_fatal: bool = True,
        sleep: Optional[Any] = None,
    ) -> None:
        self.driver = driver
        self.retry = retry
        self.monitor = monitor
        self.reject_on_fatal = bool(reject_on_fatal)
        self.sleep = time.sleep if sleep is None else sleep
        self._chunked = hasattr(driver, "begin_chunk") and hasattr(driver, "sd")

    # ------------------------------------------------------------------
    def _sd(self):
        return self.driver.sd if self._chunked else self.driver

    @property
    def step_index(self) -> int:
        return int(self._sd().step_index)

    def _set_dt(self, dt: float) -> None:
        sd = self._sd()
        sd.params = replace(sd.params, dt=dt)

    # ------------------------------------------------------------------
    def diagnose(self, step_at: int) -> Optional[tuple[str, Optional[str]]]:
        """Post-step verdict: ``None`` (accept) or ``(failure, check)``.

        ``check`` is the violated invariant's name when the monitor
        produced the verdict, ``None`` for the baseline state screen.
        """
        sd = self._sd()
        positions = sd.system.positions
        if not np.isfinite(positions).all():
            return "non-finite positions", None
        if deepest_relative_overlap(sd.system) > self.retry.overlap_tol:
            return "overlapping particles", None
        if self.monitor is not None and self.reject_on_fatal:
            fatal = self.monitor.fatal_for(step_at)
            if fatal is not None:
                return (
                    f"invariant '{fatal.check}' violated at step "
                    f"{step_at}: {fatal.message}",
                    fatal.check,
                )
        return None

    def metrics_snapshot(self) -> Any:
        """What :meth:`rollback` restores the metrics to."""
        return self._metrics().snapshot()

    def _metrics(self):
        return getattr(self._sd(), "telemetry", NULL_HUB).metrics

    def rollback(self, state: Any, metrics_snapshot: Any) -> None:
        """Undo one rejected attempt: restore the driver ``state``,
        withdraw the monitor's observations from the restored step on,
        and withdraw the metrics recorded since ``metrics_snapshot``.

        The one rollback for both a rejected step and the resilient
        runner's chunk rewind, so metrics and health reports track the
        accepted timeline whichever attempt failed.
        """
        self.driver.set_state(state)
        if self.monitor is not None:
            self.monitor.rollback(self.step_index)
        if metrics_snapshot is not None:
            self._metrics().restore(metrics_snapshot)

    def attempt_step(self) -> StepOutcome:
        """Advance one accepted step, rejecting and retrying as needed.

        Raises :class:`ResilienceExhausted` when the retry budget runs
        out, and lets :class:`FaultInjected` (deliberate drill faults)
        propagate untouched.  An MRHS chunk whose last step this is is
        frozen only once the step is accepted, so a rejection rolls
        back into the live chunk.
        """
        shadow = self.driver.get_state()
        shadow_dt = float(self._sd().params.dt)
        metrics = self._metrics()
        outcome = StepOutcome()
        retries = 0
        backoffs = 0
        while True:
            # Snapshot per attempt: a rejection withdraws the metrics of
            # *this* attempt only (mirroring monitor.rollback), keeping
            # the rejection counters of earlier attempts intact.
            metrics_shadow = self.metrics_snapshot()
            step_at = self.step_index
            failure: Optional[str] = None
            check: Optional[str] = None
            try:
                if self._chunked:
                    self.driver.step_in_chunk(finish=False)
                else:
                    self.driver.step()
            except FaultInjected:
                raise
            except (ValueError, RuntimeError, ArithmeticError,
                    np.linalg.LinAlgError) as exc:
                failure = f"step raised {type(exc).__name__}: {exc}"
            if failure is None:
                verdict = self.diagnose(step_at)
                if verdict is not None:
                    failure, check = verdict
            if failure is None:
                pending = self.driver.pending if self._chunked else None
                if pending is not None:
                    pending.retries += retries
                    if pending.k == pending.m:
                        self.driver.finish_chunk()
                return outcome
            if check is not None:
                outcome.rejected_checks.append(check)
            if retries >= self.retry.max_retries:
                raise ResilienceExhausted(
                    f"step {self.step_index} failed after "
                    f"{retries} retries: {failure}"
                )
            self.rollback(shadow, metrics_shadow)
            metrics.counter("steps.rejected").inc()
            retries += 1
            outcome.retries += 1
            # Seeded exponential backoff between rejection and retry —
            # deterministic under a fixed seed, so campaign replays
            # stall for identical spans (immediate by default).
            wait = self.retry.backoff.delay(retries, key=step_at)
            if wait > 0:
                outcome.backoff_seconds += wait
                metrics.counter("steps.backoff_seconds").inc(wait)
                self.sleep(wait)
            if (
                self.monitor is not None
                and self.reject_on_fatal
                and self._chunked
                and violation_traced_to_guess(self.driver, failure)
            ):
                # The block solution, not the step size, is the poison:
                # quarantine the chunk and retry at the same dt.
                self.driver.quarantine_chunk(reason=failure)
                outcome.quarantines += 1
                logger.warning(
                    "step %d rejected (%s); violation traced to a stale "
                    "block solution — chunk %d quarantined, retry %d on "
                    "cold-start CG",
                    step_at, failure,
                    self.driver.pending.chunk_index, retries,
                )
            else:
                backoffs += 1
                outcome.dt_backoffs += 1
                metrics.counter("steps.dt_backoffs").inc()
                new_dt = shadow_dt * self.retry.dt_backoff**backoffs
                self._set_dt(new_dt)
                logger.warning(
                    "step %d rejected (%s); retry %d with dt=%.3g",
                    step_at, failure, retries, new_dt,
                )
