"""Self-healing runtime for the GSPMV engine tier (the engine watchdog).

The hot path depends on per-machine compiled artifacts — generated C
objects and an autotune verdict cache.  Those are exactly the
components that fail in long unattended campaigns: missing or broken
compilers, truncated cache entries, miscompiled kernels that return
*wrong numbers* rather than raising.
The paper's premise is that GSPMV dominates runtime; this module's
premise is that a wrong-answer kernel is worse than a slow one.

Three cooperating pieces (see DESIGN.md §14):

**Fallback ladder.**  :data:`FALLBACK_LADDER` fixes the demotion order
``cgen → scipy → blocked``: the generated C kernel, scipy's compiled
BSR product, then the pure-NumPy reference.  The ablation engine
``tiled`` is selectable but off the ladder; it demotes to ``scipy``.
Any engine-tier failure (:class:`EngineFailure`: compile errors, load
errors, missing toolchains) demotes the product to the next available
rung instead of raising, and every demotion is a structured
:class:`EngineEvent` — recorded to the in-process ring, to telemetry counters
(``engine.events{kind=...,engine=...}``) and spans, and optionally to a
:class:`~repro.health.monitor.HealthMonitor` as a WARN/FATAL verdict.
Nothing is skipped silently.

**Shadow verification.**  With a cadence configured
(:meth:`EngineWatch.configure`, CLI ``--verify-kernels[=N]``), every
Nth product per ``(engine, shape class)`` is re-checked against the
pure-NumPy reference engine (``blocked``): normally a cheap sample of
block rows, periodically (:attr:`EngineWatch.full_every`) the full
product.  The comparison tolerance scales with ``b*m`` (the summation
length legitimate engines may reorder); non-finite reference entries
are excluded so NaNs already present in the *data* (e.g. injected
upstream) are not blamed on the kernel.

**Quarantine.**  A miscompare quarantines the engine for that shape
class — the product re-executes via the next rung, and every later
``resolve_engine`` routes around the quarantined engine.  Quarantine
state rides in checkpoints (:meth:`EngineWatch.to_state` /
:meth:`EngineWatch.load_state`, saved by
:class:`~repro.resilience.runner.ResilientRunner`) so a kill-and-resume
does not re-trust a kernel that was caught lying.

The watchdog costs one attribute check per multiply while disabled, and
the ladder is always active — verification is opt-in, fallback is not.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional, Set

import numpy as np

import repro.telemetry as _telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.health.monitor import HealthMonitor
    from repro.sparse.bcrs import BCRSMatrix

__all__ = [
    "EngineFailure",
    "CompileError",
    "KernelLoadError",
    "LadderExhausted",
    "EngineEvent",
    "EngineWatch",
    "FALLBACK_LADDER",
    "REFERENCE_ENGINE",
    "DEFAULT_VERIFY_CADENCE",
    "shape_class",
    "reference_rows",
    "get_engine_watch",
]

logger = logging.getLogger(__name__)


class EngineFailure(RuntimeError):
    """An engine-tier failure the fallback ladder can recover from.

    Raised by compiled tiers when they cannot produce a kernel (compile
    or load trouble, missing toolchain).  The registry catches exactly
    this type, records the demotion, and retries on the next rung —
    genuine numerical errors (MemoryError, ValueError from bad inputs)
    deliberately propagate.
    """


class CompileError(EngineFailure):
    """The C compile pipeline failed after its bounded retries."""


class KernelLoadError(EngineFailure):
    """A compiled object failed checksum, dlopen, or its smoke test."""


class LadderExhausted(EngineFailure):
    """No trustworthy engine remains below the failing rung.

    Unreachable in normal operation — the reference engine cannot be
    quarantined and needs no toolchain — but the ladder walk reports it
    honestly (as a FATAL health verdict) rather than looping.
    """


#: Demotion order.  The generated kernel first (fastest, most fragile),
#: then scipy's compiled BSR product, then the floor: ``blocked`` is the
#: reference the shadow checks compare against and can never be
#: quarantined.
FALLBACK_LADDER = ("cgen", "scipy", "blocked")

#: The trusted pure-NumPy engine shadow verification recomputes with.
REFERENCE_ENGINE = "blocked"

#: ``--verify-kernels`` with no value: verify every Nth product per
#: (engine, shape class) — plus the very first, so a bad kernel is
#: caught before it pollutes a long run.
DEFAULT_VERIFY_CADENCE = 64

#: Every Nth *verification* compares the full product instead of a
#: row sample (catches corruption outside the sampled rows).
DEFAULT_FULL_EVERY = 16

#: Block rows per sampled verification.
DEFAULT_SAMPLE_ROWS = 32

#: Per-element relative tolerance scale; the effective tolerance is
#: ``VERIFY_RTOL * b * m * (1 + |ref|)`` — proportional to the number
#: of floating-point terms engines may legally reorder, with ~100x
#: headroom over observed engine divergence.
VERIFY_RTOL = 1e-12

#: Event kinds that surface as health verdicts (everything else is
#: telemetry-only bookkeeping).
_WARN_KINDS = frozenset(
    {"verify_fail", "quarantine", "engine_failure", "fallback"}
)
_FATAL_KINDS = frozenset({"ladder_exhausted"})


def _bucket(x: float) -> int:
    """log2 bucket: sizes within 2x land in the same shape class."""
    return int(math.log2(x)) if x >= 1 else 0


def shape_class(A: "BCRSMatrix", m: int) -> str:
    """The quarantine key classing ``(matrix, m)``.

    Same coarse bucketing as the autotune shape key (engine behaviour
    flips with block size, m, and cache residency — not with a 10%
    size change) but without the CPU token: quarantine is a property of
    this process/checkpoint lineage, and staying conservative across a
    host change is the safe direction.
    """
    return (
        f"b{A.block_size}:m{m}"
        f":nb{_bucket(A.nb_rows)}:bpr{_bucket(A.blocks_per_row)}"
    )


def reference_rows(
    A: "BCRSMatrix", X: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Reference product restricted to ``rows`` (block-row indices).

    Shape ``(len(rows), b, m)``; the per-row cost is proportional to
    that row's fill, so sampling k of nb rows costs ~k/nb of a full
    reference product.
    """
    b = A.block_size
    m = X.shape[1]
    Xb = np.ascontiguousarray(X).reshape(A.nb_cols, b, m)
    out = np.zeros((len(rows), b, m))
    rp = A.row_ptr
    for i, r in enumerate(rows):
        lo, hi = int(rp[r]), int(rp[r + 1])
        if hi > lo:
            out[i] = np.einsum(
                "kij,kjm->kim", A.blocks[lo:hi], Xb[A.col_ind[lo:hi]]
            ).sum(axis=0)
    return out


@dataclass(frozen=True)
class EngineEvent:
    """One engine-tier incident: a demotion, miscompare, or recovery.

    ``kind`` vocabulary: ``fallback`` (unavailable tier routed around),
    ``engine_failure`` (an :class:`EngineFailure` demoted a product),
    ``verify_fail`` (shadow check miscompared), ``quarantine`` (an
    engine distrusted for a shape class), ``ladder_exhausted``,
    ``compile_retry``, ``cache_recover`` (bad cached object deleted and
    rebuilt), ``autotune_corrupt`` / ``autotune_stale`` /
    ``autotune_skip`` (verdict-cache hygiene).
    """

    kind: str
    engine: str
    shape: str = ""
    reason: str = ""
    step: int = -1


class EngineWatch:
    """Event log, quarantine set, and shadow-verification state.

    One instance lives on each :class:`~repro.sparse.kernels.
    KernelRegistry` (the default registry's instance — reachable via
    :func:`get_engine_watch` — is the one checkpoints serialize).
    """

    def __init__(self, history: int = 256) -> None:
        self.cadence: int = 0
        """Verify every Nth product per (engine, shape); 0 disables."""
        self.full_every: int = DEFAULT_FULL_EVERY
        self.sample_rows: int = DEFAULT_SAMPLE_ROWS
        self.rtol_scale: float = VERIFY_RTOL
        self.events: Deque[EngineEvent] = deque(maxlen=history)
        self.counts: Dict[str, int] = {}
        self.verifications: int = 0
        self.verify_failures: int = 0
        self.verify_seconds: float = 0.0
        self.current_step: int = -1
        """Step index stamped onto events (set by the runner)."""
        self._quarantined: Set[str] = set()
        self._calls: Dict[str, int] = {}
        self._verify_counts: Dict[str, int] = {}
        self._monitor: Optional["HealthMonitor"] = None

    # ------------------------------------------------------------------
    # configuration and wiring
    # ------------------------------------------------------------------
    def configure(
        self,
        cadence: Optional[int] = None,
        full_every: Optional[int] = None,
        sample_rows: Optional[int] = None,
    ) -> "EngineWatch":
        """Set verification knobs; returns self for chaining."""
        if cadence is not None:
            if cadence < 0:
                raise ValueError("cadence must be >= 0 (0 disables)")
            self.cadence = int(cadence)
        if full_every is not None:
            if full_every < 1:
                raise ValueError("full_every must be >= 1")
            self.full_every = int(full_every)
        if sample_rows is not None:
            if sample_rows < 1:
                raise ValueError("sample_rows must be >= 1")
            self.sample_rows = int(sample_rows)
        return self

    @property
    def enabled(self) -> bool:
        """True when shadow verification is on (the ladder always is)."""
        return self.cadence > 0

    def attach_monitor(self, monitor: Optional["HealthMonitor"]) -> None:
        """Route WARN/FATAL engine verdicts into a health monitor."""
        self._monitor = monitor

    def reset(self) -> None:
        """Forget everything: quarantines, counters, events, config."""
        self.cadence = 0
        self.full_every = DEFAULT_FULL_EVERY
        self.sample_rows = DEFAULT_SAMPLE_ROWS
        self.events.clear()
        self.counts.clear()
        self.verifications = 0
        self.verify_failures = 0
        self.verify_seconds = 0.0
        self.current_step = -1
        self._quarantined.clear()
        self._calls.clear()
        self._verify_counts.clear()
        self._monitor = None

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def record(
        self, kind: str, engine: str, shape: str = "", reason: str = ""
    ) -> EngineEvent:
        """Record one incident everywhere it must be visible.

        In-process ring + per-kind counts always; telemetry counter and
        a zero-duration span when a hub is active; a health verdict when
        a monitor is attached and the kind warrants one.
        """
        event = EngineEvent(
            kind=kind, engine=engine, shape=shape, reason=reason,
            step=self.current_step,
        )
        self.events.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        hub = _telemetry.active_hub
        if hub is not None:
            hub.metrics.counter(
                "engine.events", kind=kind, engine=engine
            ).inc()
            # The unified bus line carries the correlation ids, so a
            # quarantine that strikes mid-job joins that job's story.
            hub.emit_event(
                "engine",
                kind,
                engine=engine,
                shape=shape,
                reason=reason[:160],
                step=self.current_step,
            )
            tr = hub.tracer
            tr.emit(
                "engine_event",
                start=tr.clock(),
                duration=0.0,
                parent_id=None,
                kind=kind,
                engine=engine,
                shape=shape,
                reason=reason[:160],
            )
        if self._monitor is not None and (
            kind in _WARN_KINDS or kind in _FATAL_KINDS
        ):
            from repro.health.invariants import Severity

            severity = (
                Severity.FATAL if kind in _FATAL_KINDS else Severity.WARN
            )
            self._monitor.observe_engine(
                check=f"engine-{kind}",
                severity=severity,
                message=f"{engine}[{shape}]: {reason}" if shape
                else f"{engine}: {reason}",
                step_index=self.current_step,
            )
        log = logger.error if kind in _FATAL_KINDS else logger.warning
        if kind in _WARN_KINDS or kind in _FATAL_KINDS:
            log("engine %s: %s [%s] %s", kind, engine, shape, reason)
        return event

    # ------------------------------------------------------------------
    # quarantine and the ladder
    # ------------------------------------------------------------------
    @staticmethod
    def _qkey(engine: str, shape: str) -> str:
        return f"{engine}|{shape}"

    @property
    def has_quarantines(self) -> bool:
        return bool(self._quarantined)

    @property
    def quarantined(self) -> List[str]:
        """Sorted ``"engine|shape"`` quarantine entries."""
        return sorted(self._quarantined)

    def quarantined_engines(self, shape: str) -> Set[str]:
        """Engine names quarantined for one shape class."""
        suffix = f"|{shape}"
        return {
            q.split("|", 1)[0] for q in self._quarantined if q.endswith(suffix)
        }

    def is_quarantined(self, engine: str, shape: str) -> bool:
        return self._qkey(engine, shape) in self._quarantined

    def quarantine(self, engine: str, shape: str, reason: str = "") -> None:
        """Distrust ``engine`` for ``shape`` until explicitly cleared.

        The reference engine is refused — it is the trust anchor the
        shadow checks compare against, so quarantining it would make
        every verdict circular.
        """
        if engine == REFERENCE_ENGINE:
            raise ValueError(
                f"the reference engine {REFERENCE_ENGINE!r} cannot be "
                "quarantined"
            )
        key = self._qkey(engine, shape)
        if key not in self._quarantined:
            self._quarantined.add(key)
            self.record("quarantine", engine, shape, reason)

    def clear_quarantine(
        self, engine: Optional[str] = None, shape: Optional[str] = None
    ) -> int:
        """Lift quarantines (both ``None``: all); returns the count."""
        doomed = [
            q for q in self._quarantined
            if (engine is None or q.split("|", 1)[0] == engine)
            and (shape is None or q.split("|", 1)[1] == shape)
        ]
        for q in doomed:
            self._quarantined.discard(q)
        return len(doomed)

    def next_rung(
        self,
        engine: str,
        available: Iterable[str],
        shape: Optional[str] = None,
    ) -> str:
        """The first ladder rung below ``engine`` that is available and
        (when ``shape`` is given) not quarantined.  An engine off the
        ladder (``tiled``) ranks just below ``cgen``.

        Raises :class:`LadderExhausted` — after recording the FATAL
        event — when nothing below qualifies.
        """
        avail = set(available)
        start = (
            FALLBACK_LADDER.index(engine) + 1
            if engine in FALLBACK_LADDER else 1
        )
        for rung in FALLBACK_LADDER[start:]:
            if rung not in avail:
                continue
            if shape is not None and self.is_quarantined(rung, shape):
                continue
            return rung
        self.record(
            "ladder_exhausted", engine, shape or "",
            reason="no trustworthy engine below this rung",
        )
        raise LadderExhausted(
            f"no available, non-quarantined engine below {engine!r}"
        )

    # ------------------------------------------------------------------
    # verification bookkeeping
    # ------------------------------------------------------------------
    def should_verify(self, engine: str, shape: str) -> bool:
        """Cadence gate: counts this product, True when it must be
        shadow-checked.  The first product per (engine, shape) is always
        checked so a bad kernel cannot pollute a long run first."""
        if self.cadence <= 0 or engine == REFERENCE_ENGINE:
            return False
        key = self._qkey(engine, shape)
        count = self._calls.get(key, 0) + 1
        self._calls[key] = count
        return count == 1 or count % self.cadence == 0

    def bump_verification(self, engine: str, shape: str) -> int:
        """1-based verification counter for (engine, shape) — drives
        the periodic full-product check."""
        key = self._qkey(engine, shape)
        count = self._verify_counts.get(key, 0) + 1
        self._verify_counts[key] = count
        return count

    def tolerance(self, b: int, m: int) -> float:
        """Per-element tolerance scale for a ``(b, m)`` product."""
        return self.rtol_scale * max(1, b) * max(1, m)

    def compare(self, got: np.ndarray, ref: np.ndarray, tol: float) -> bool:
        """Elementwise agreement within ``tol * (1 + |ref|)``.

        Positions where the *reference* is non-finite are excluded —
        NaNs already in the data are upstream's problem, not the
        kernel's; a non-finite ``got`` against a finite ``ref`` fails.
        """
        finite = np.isfinite(ref)
        if not np.all(finite):
            got = got[finite]
            ref = ref[finite]
        if got.size == 0:
            return True
        return bool(
            np.all(np.abs(got - ref) <= tol * (1.0 + np.abs(ref)))
        )

    def sample_block_rows(self, nb: int, count: int) -> np.ndarray:
        """Deterministic rotating row sample for verification ``count``.

        Strided coverage with a count-dependent offset, so repeated
        verifications of the same shape sweep different rows.
        """
        k = min(self.sample_rows, nb)
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        stride = max(1, nb // k)
        start = (count * 131) % nb
        return np.unique((start + np.arange(k) * stride) % nb)

    def note_verification(
        self, engine: str, ok: bool, seconds: float, full: bool
    ) -> None:
        """Account one completed shadow check."""
        self.verifications += 1
        self.verify_seconds += seconds
        if not ok:
            self.verify_failures += 1
        hub = _telemetry.active_hub
        if hub is not None:
            hub.metrics.counter("engine.verify.calls", engine=engine).inc()
            hub.metrics.counter("engine.verify.seconds").inc(seconds)
            if full:
                hub.metrics.counter("engine.verify.full").inc()
            if not ok:
                hub.metrics.counter(
                    "engine.verify.failures", engine=engine
                ).inc()

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """JSON/NPZ-friendly state: quarantines, counts, and the
        verification config (events stay in-process — the contract the
        checkpoint carries is *don't re-trust*, not the post-mortem)."""
        return {
            "cadence": int(self.cadence),
            "full_every": int(self.full_every),
            "sample_rows": int(self.sample_rows),
            "quarantined": list(self.quarantined),
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
            "verifications": int(self.verifications),
            "verify_failures": int(self.verify_failures),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore from :meth:`to_state` (resume path).

        Quarantines are unioned with anything already distrusted in
        this process; a configured cadence in the state re-arms
        verification only when this process has not set its own.
        """
        for entry in state.get("quarantined", []):
            self._quarantined.add(str(entry))
        for kind, value in state.get("counts", {}).items():
            self.counts[kind] = self.counts.get(kind, 0) + int(value)
        self.verifications += int(state.get("verifications", 0))
        self.verify_failures += int(state.get("verify_failures", 0))
        if self.cadence == 0 and int(state.get("cadence", 0)) > 0:
            self.cadence = int(state["cadence"])
            self.full_every = int(state.get("full_every", self.full_every))
            self.sample_rows = int(
                state.get("sample_rows", self.sample_rows)
            )


def get_engine_watch() -> EngineWatch:
    """The default registry's watchdog — the process-wide instance the
    CLI configures and checkpoints serialize."""
    from repro.sparse.kernels import get_default_registry

    return get_default_registry().watch
