"""The health monitor: scheduled checks and the ring-buffer report.

:class:`HealthMonitor` owns a set of invariant checks, each with a
cadence, and a :class:`HealthReport` — a bounded ring buffer of
:class:`~repro.health.invariants.InvariantResult` with cumulative
severity counters that survive ring eviction.  The monitor never raises
and never mutates the simulation: drivers call ``observe_step`` /
``observe_block`` after the fact, and the resilient runner reads the
verdicts to decide whether the step stands.

The report serializes to the same NPZ-friendly state-tree the
checkpoint layer packs (:func:`repro.resilience.checkpoint.pack_state`),
so a resilient run's checkpoints carry the health history alongside the
trajectory and ``repro health`` can post-mortem a dead run.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

import repro.telemetry as _telemetry
from repro.health.invariants import (
    HealthContext,
    InvariantCheck,
    InvariantResult,
    Severity,
    default_checks,
)
from repro.util.validation import check_finite

__all__ = ["HealthMonitor", "HealthReport"]

logger = logging.getLogger(__name__)

CheckLike = Union[InvariantCheck, "tuple[InvariantCheck, int]"]


class HealthReport:
    """Ring buffer of check results plus run-cumulative counters.

    The ring keeps the most recent ``maxlen`` results (enough for a
    post-mortem); the counters keep run totals so long campaigns still
    know how many warnings scrolled out of the window.
    """

    def __init__(self, maxlen: int = 512) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = int(maxlen)
        self._ring: Deque[InvariantResult] = deque(maxlen=self.maxlen)
        self.counts: Dict[Severity, int] = {s: 0 for s in Severity}
        self.rollbacks = 0
        """How many results were withdrawn by step rejections."""

    # ------------------------------------------------------------------
    def add(self, result: InvariantResult) -> None:
        self._ring.append(result)
        self.counts[result.severity] += 1
        hub = _telemetry.active_hub
        if hub is not None:
            severity = result.severity.name.lower()
            # Recorded inside the step's metrics-snapshot window, so a
            # rejected step withdraws its verdict counts with the rest.
            hub.metrics.counter("health.verdicts", severity=severity).inc()
            if severity != "ok":
                # Non-OK verdicts also land on the unified event bus,
                # correlated with whatever job/run/step is live.
                hub.emit_event(
                    "health",
                    severity,
                    check=result.check,
                    message=result.message[:160],
                    step=result.step_index,
                )

    @property
    def results(self) -> List[InvariantResult]:
        """Ring contents, oldest first."""
        return list(self._ring)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def worst(self) -> Severity:
        """Worst severity ever recorded (counters, not just the ring)."""
        for sev in (Severity.FATAL, Severity.WARN):
            if self.counts[sev]:
                return sev
        return Severity.OK

    def fatal_events(self) -> List[InvariantResult]:
        """Fatal results still in the ring, oldest first."""
        return [r for r in self._ring if r.severity is Severity.FATAL]

    def fatal_for(self, step_index: int) -> Optional[InvariantResult]:
        """The first fatal result recorded at ``step_index``, if any."""
        for r in self._ring:
            if r.step_index == step_index and r.severity is Severity.FATAL:
                return r
        return None

    def drop_since(self, step_index: int) -> int:
        """Withdraw results at or after ``step_index`` (step rollback)."""
        kept = [r for r in self._ring if r.step_index < step_index]
        dropped = len(self._ring) - len(kept)
        if dropped:
            for r in self._ring:
                if r.step_index >= step_index:
                    self.counts[r.severity] -= 1
            self._ring = deque(kept, maxlen=self.maxlen)
            self.rollbacks += dropped
        return dropped

    def summary(self) -> str:
        text = (
            f"health: {self.total} checks "
            f"(ok={self.counts[Severity.OK]}, "
            f"warn={self.counts[Severity.WARN]}, "
            f"fatal={self.counts[Severity.FATAL]}), "
            f"worst={self.worst().name}"
        )
        if self.rollbacks:
            text += f", {self.rollbacks} withdrawn by step rejections"
        return text

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """Checkpoint-packable representation (see ``pack_state``)."""
        results = list(self._ring)
        return {
            "maxlen": self.maxlen,
            "rollbacks": self.rollbacks,
            "counts": {s.name: self.counts[s] for s in Severity},
            "step": np.array([r.step_index for r in results], dtype=np.int64),
            "severity": np.array(
                [int(r.severity) for r in results], dtype=np.int64
            ),
            "value": np.array([r.value for r in results], dtype=np.float64),
            "check": [r.check for r in results],
            "message": [r.message for r in results],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "HealthReport":
        report = cls(maxlen=int(state["maxlen"]))
        for i in range(len(state["step"])):
            report._ring.append(
                InvariantResult(
                    check=str(state["check"][i]),
                    severity=Severity(int(state["severity"][i])),
                    message=str(state["message"][i]),
                    value=float(state["value"][i]),
                    step_index=int(state["step"][i]),
                )
            )
        report.counts = {
            s: int(state["counts"][s.name]) for s in Severity
        }
        report.rollbacks = int(state["rollbacks"])
        return report


class HealthMonitor:
    """Runs invariant checks on a cadence and records their verdicts.

    Parameters
    ----------
    checks:
        Invariant checks, or ``(check, cadence)`` pairs to override a
        check's own default cadence.  Defaults to
        :func:`~repro.health.invariants.default_checks`.
    history:
        Ring-buffer size of the :class:`HealthReport`.
    """

    def __init__(
        self,
        checks: Optional[Sequence[CheckLike]] = None,
        *,
        history: int = 512,
    ) -> None:
        raw: Iterable[CheckLike] = (
            default_checks() if checks is None else checks
        )
        self.schedules: List[tuple[InvariantCheck, int]] = []
        for item in raw:
            if isinstance(item, tuple):
                check, cadence = item
            else:
                check, cadence = item, item.cadence
            if cadence < 1:
                raise ValueError("cadence must be >= 1")
            self.schedules.append((check, int(cadence)))
        self.report = HealthReport(maxlen=history)

    # ------------------------------------------------------------------
    def observe_step(self, ctx: HealthContext) -> List[InvariantResult]:
        """Run the step's due checks; record and return their results.

        A fatal ``finite-state`` verdict short-circuits the remaining
        checks — their math (neighbor search, eigenvalues, variances)
        assumes finite input.
        """
        results: List[InvariantResult] = []
        for check, cadence in self.schedules:
            if ctx.step_index % cadence != 0:
                continue
            result = check.check(ctx)
            results.append(result)
            self.report.add(result)
            if result.severity is Severity.FATAL:
                logger.warning(
                    "step %d: invariant '%s' fatal: %s",
                    ctx.step_index, result.check, result.message,
                )
                if result.check == "finite-state":
                    break
            elif result.severity is Severity.WARN:
                logger.info(
                    "step %d: invariant '%s' warn: %s",
                    ctx.step_index, result.check, result.message,
                )
        return results

    def observe_block(
        self,
        *,
        chunk_index: int,
        step_index: int,
        U: np.ndarray,
        converged: bool,
    ) -> List[InvariantResult]:
        """Health of an MRHS auxiliary block solve's guess matrix.

        Non-finite guesses are fatal — CG seeded with a NaN column can
        never recover, so every later step of the chunk would be
        poisoned.
        """
        results: List[InvariantResult] = []
        try:
            check_finite(f"chunk {chunk_index} block-solve guesses", U)
        except ValueError as exc:
            results.append(
                InvariantResult(
                    check="block-guesses",
                    severity=Severity.FATAL,
                    message=str(exc),
                    value=float((~np.isfinite(np.asarray(U))).sum()),
                    step_index=step_index,
                )
            )
        else:
            if not converged:
                results.append(
                    InvariantResult(
                        check="block-guesses",
                        severity=Severity.WARN,
                        message=(
                            f"chunk {chunk_index} block solve did not "
                            f"converge; guesses are partial"
                        ),
                        step_index=step_index,
                    )
                )
            else:
                results.append(
                    InvariantResult(
                        check="block-guesses",
                        severity=Severity.OK,
                        step_index=step_index,
                    )
                )
        for result in results:
            self.report.add(result)
            if result.severity is Severity.FATAL:
                logger.warning(
                    "chunk %d: invariant '%s' fatal: %s",
                    chunk_index, result.check, result.message,
                )
        return results

    def observe_external(
        self,
        *,
        check: str,
        severity: Severity,
        message: str,
        step_index: int = -1,
    ) -> InvariantResult:
        """Record a verdict originating outside the physics checks.

        The kernel watchdog (engine demotions, miscompares,
        quarantines) and the service's SLO tracker (sustained per-tenant
        burn-rate violations) both route their WARN/FATAL verdicts here
        so operational trouble shows up in the same report — and the
        same checkpointed history — as the physics invariants.
        """
        result = InvariantResult(
            check=check,
            severity=severity,
            message=message,
            step_index=step_index,
        )
        self.report.add(result)
        if severity is Severity.FATAL:
            logger.warning(
                "step %d: external verdict '%s' fatal: %s",
                step_index, check, message,
            )
        return result

    def observe_engine(
        self,
        *,
        check: str,
        severity: Severity,
        message: str,
        step_index: int = -1,
    ) -> InvariantResult:
        """Engine-tier alias of :meth:`observe_external` (kept for the
        :class:`~repro.sparse.enginewatch.EngineWatch` call sites)."""
        return self.observe_external(
            check=check,
            severity=severity,
            message=message,
            step_index=step_index,
        )

    # ------------------------------------------------------------------
    def fatal_for(self, step_index: int) -> Optional[InvariantResult]:
        return self.report.fatal_for(step_index)

    def rollback(self, step_index: int) -> None:
        """Withdraw everything observed at or after ``step_index``.

        Called by the resilient runner when a step is rejected: the
        rolled-back state never happened, so neither did its
        observations (stateful checks drop their window entries too).
        """
        self.report.drop_since(step_index)
        for check, _ in self.schedules:
            check.drop_since(step_index)

    def reset(self) -> None:
        self.report = HealthReport(maxlen=self.report.maxlen)
        for check, _ in self.schedules:
            check.reset()
