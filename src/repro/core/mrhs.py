"""Algorithm 2: Stokesian dynamics with Multiple Right-Hand Sides.

The key obstacle the paper overcomes: in a dynamical simulation the
right-hand sides arrive *sequentially* — step k+1's system cannot be
formed until step k is done — so a block solver seems inapplicable.
The trick (Section III): at two consecutive steps the systems

    R_k     u_k     = -f^B_k     = -S(R_k) z_k
    R_{k+1} u_{k+1} = -f^B_{k+1} = -S(R_{k+1}) z_{k+1}

have *different* right-hand sides but *nearly identical* matrices
(particles move slowly).  All the noise vectors z_k are available up
front, so one can solve the **augmented system**

    R_0 [u_0, u'_1, ..., u'_{m-1}] = -S(R_0) [z_0, z_1, ..., z_{m-1}]

with a block method.  Column 0 is the exact solution for step 0; the
other columns are the solutions the later steps *would* have if the
matrix did not change — excellent initial guesses, degrading only as
sqrt(step) like the Brownian displacement itself (Figure 5).

The block solve and the block Chebyshev application are cheap because
every iteration is one GSPMV with ``m`` vectors (~2x a single SPMV for
m = 8-16), while the saved CG iterations are full single-vector solves.

One chunk of ``m`` steps:

    1. Construct R_0
    2. F^B = S(R_0) Z                       (Cheb vectors,  GSPMV)
    3. Solve R_0 U = -F^B by block CG       (Calc guesses,  GSPMV)
    4-6.  advance step 0 using u_0
    7-14. for k = 1 .. m-1: advance step k, seeding the first solve
          with u'_k  (Cheb single / 1st solve / 2nd solve)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.resilience.faults import BlockSolveBroken, fire_fault
from repro.solvers.block_cg import BlockCGResult, block_conjugate_gradient
from repro.solvers.diagnostics import SolveDiagnostics
from repro.stokesian.dynamics import SDParameters, StepRecord, StokesianDynamics
from repro.stokesian.particles import ParticleSystem
from repro.telemetry import NULL_HUB, NULL_SPAN, TelemetryHub
from repro.util.rng import RngLike
from repro.util.timer import Stopwatch, TimingRecord

__all__ = ["MrhsParameters", "ChunkRecord", "MrhsStokesianDynamics"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MrhsParameters:
    """MRHS-specific knobs on top of :class:`SDParameters`."""

    m: int = 16
    """Number of right-hand sides per chunk (the paper's experiments use
    16; the best value sits near the GSPMV bandwidth/compute crossover,
    see Table VIII)."""

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass(frozen=True)
class ChunkRecord:
    """Everything that happened in one chunk of ``m`` steps."""

    chunk_index: int
    m: int
    block_iterations: int
    block_gspmv_calls: int
    block_converged: bool
    steps: List[StepRecord]
    chunk_timings: TimingRecord
    """Phases amortized over the chunk: "Construct R0", "Cheb vectors",
    "Calc guesses"."""
    block_diagnostics: Optional[SolveDiagnostics] = None
    """Convergence record of the auxiliary block solve (restarts,
    breakdowns, per-column residual history)."""
    fallback_columns: List[int] = field(default_factory=list)
    """Guess columns re-solved by single-RHS CG after the block solve
    reported breakdown or failed its true-residual check."""
    degradations: List[int] = field(default_factory=list)
    """Chunk sizes this chunk was degraded *to* (``m -> m/2 -> ...``)
    after repeated block-solve breakdown; empty for a healthy chunk.
    The recorded :attr:`m` is the size the chunk actually ran at."""
    retries: int = 0
    """In-chunk step retries performed by a resilient runner (dt
    backoff after non-finite positions or overlaps)."""
    quarantined: bool = False
    """True when the block solutions were discarded mid-chunk and the
    remaining steps fell back to cold-start CG (poisoned guesses)."""
    quarantine_reason: str = ""

    @property
    def guess_errors(self) -> List[Optional[float]]:
        """Per-step relative error of the block-solve initial guess
        (the Figure 5 observable)."""
        return [s.guess_error for s in self.steps]

    @property
    def first_solve_iterations(self) -> List[int]:
        """Per-step 1st-solve iterations (the Figure 6 observable)."""
        return [s.iterations_first for s in self.steps]

    def total_time(self) -> float:
        return self.chunk_timings.total() + sum(
            s.timings.total() for s in self.steps
        )

    def average_step_time(self) -> float:
        """The Tables VI/VII bottom row: chunk cost amortized per step."""
        return self.total_time() / self.m


@dataclass
class _PendingChunk:
    """Mutable mid-chunk state (checkpointable, see :meth:`get_state`).

    Exists from :meth:`MrhsStokesianDynamics.begin_chunk` (block solve
    done) until the last in-chunk step completes, at which point it is
    frozen into a :class:`ChunkRecord`.  ``steps``, ``chunk_timings``
    and ``block_diagnostics`` are this process's records of the chunk
    and are not checkpointed; the rest is.
    """

    chunk_index: int
    m: int
    Z: np.ndarray
    U: np.ndarray
    block_iterations: int
    block_gspmv_calls: int
    block_converged: bool
    block_diagnostics: Optional[SolveDiagnostics]
    fallback_columns: List[int]
    chunk_timings: TimingRecord
    steps: List[StepRecord] = field(default_factory=list)
    k: int = 0
    retries: int = 0
    degradations: List[int] = field(default_factory=list)
    quarantined: bool = False
    quarantine_reason: str = ""


class MrhsStokesianDynamics:
    """Algorithm 2 driver.

    Owns a :class:`StokesianDynamics` instance and reuses all of its
    components — same matrix assembly, same Brownian generator, same CG
    — changing only where the first solve's initial guess comes from.

    Parameters
    ----------
    system:
        Initial configuration.
    params:
        Shared SD parameters.
    mrhs:
        MRHS parameters (chunk size ``m``).
    rng:
        Noise stream (same semantics as the original driver, so the two
        algorithms can be run on identical noise).
    """

    def __init__(
        self,
        system: ParticleSystem,
        params: SDParameters = SDParameters(),
        mrhs: MrhsParameters = MrhsParameters(),
        *,
        rng: RngLike = None,
        forces=None,
        telemetry: TelemetryHub = NULL_HUB,
    ) -> None:
        self.sd = StokesianDynamics(
            system, params, rng=rng, forces=forces, telemetry=telemetry
        )
        self.mrhs = mrhs
        self.chunks: List[ChunkRecord] = []
        """Records of the chunks this process finished (not trajectory
        state: a resumed run starts with none)."""
        self.chunks_done = 0
        """Chunks finished since the run began, across resumes; the
        next chunk's index (fault plans match on it)."""
        self._pending: Optional[_PendingChunk] = None
        self._chunk_span = NULL_SPAN
        """The open span of the pending chunk (steps nest under it)."""

    @property
    def telemetry(self) -> TelemetryHub:
        return self.sd.telemetry

    # ------------------------------------------------------------------
    @property
    def system(self) -> ParticleSystem:
        return self.sd.system

    @property
    def params(self) -> SDParameters:
        return self.sd.params

    # ------------------------------------------------------------------
    def _solve_block(self, R0, rhs: np.ndarray) -> tuple[BlockCGResult, List[int]]:
        """Run the augmented block solve with single-RHS CG fallback.

        When the block solve reports breakdown or fails to converge,
        every column whose true residual misses the tolerance is
        re-solved by plain CG (seeded with the block solve's partial
        solution).  Returns the (possibly repaired) result and the list
        of fallback column indices.

        Raises :class:`~repro.resilience.faults.BlockSolveBroken` when
        an armed fault plan targets ``mrhs.block_breakdown`` for this
        chunk — the hook the resilient runner's m-degradation policy
        tests against.
        """
        index = self.chunks_done
        fault = fire_fault("mrhs.block_breakdown", chunk=index, m=rhs.shape[1])
        if fault is not None:
            raise BlockSolveBroken(
                f"injected block-solve breakdown in chunk {index} "
                f"(m={rhs.shape[1]})"
            )
        tol = self.params.tol
        block = block_conjugate_gradient(
            R0, rhs, tol=tol, max_iter=self.params.max_iter,
            preconditioner=self.sd.preconditioner(R0),
        )
        diag = block.diagnostics
        logger.info("chunk block solve: %s", diag.summary())
        fallback: List[int] = []
        needs_repair = not block.converged or diag.breakdown or diag.stagnated
        if needs_repair:
            b_norms = np.linalg.norm(rhs, axis=0)
            stop = tol * np.where(b_norms > 0, b_norms, 1.0)
            true_rn = np.linalg.norm(rhs - R0 @ block.X, axis=0)
            for j in np.flatnonzero(true_rn > stop):
                block.X[:, j] = self.sd.solve(R0, rhs[:, j], x0=block.X[:, j]).x
                fallback.append(int(j))
            if fallback:
                logger.warning(
                    "block solve unreliable (%s); re-solved columns %s "
                    "with single-RHS CG",
                    "breakdown" if diag.breakdown else "not converged",
                    fallback,
                )
        return block, fallback

    def solve_auxiliary(
        self, R0, Z: np.ndarray
    ) -> tuple[np.ndarray, BlockCGResult, np.ndarray]:
        """Steps 2-3 of Algorithm 2: Brownian block + augmented solve.

        Returns ``(F_B, block_result, U)`` where ``U[:, k]`` is the
        initial guess for in-chunk step ``k`` (column 0 being step 0's
        exact solution up to solver tolerance).
        """
        gen = self.sd.brownian_generator(R0)
        F_B = gen.generate(Z)
        rhs = -F_B + self.sd.external_forces()[:, None]
        result, _ = self._solve_block(R0, rhs)
        return F_B, result, result.X

    def begin_chunk(self, m: Optional[int] = None) -> _PendingChunk:
        """Steps 1-3 of Algorithm 2: assemble, Brownian block, block solve.

        Leaves the driver with a pending chunk; advance it one time
        step at a time with :meth:`step_in_chunk` (the resilient runner
        and checkpoint layer drive this directly) or all at once with
        :meth:`run_chunk`.
        """
        if self._pending is not None:
            raise RuntimeError("a chunk is already in progress")
        m = self.mrhs.m if m is None else int(m)
        if m < 1:
            raise ValueError("m must be >= 1")
        sw = Stopwatch()
        tr = self.telemetry.tracer
        # The chunk span stays open across the m in-chunk steps (they
        # nest under it) and is closed by finish_chunk — or right here
        # when the block solve breaks, so no span leaks past the abort.
        self._chunk_span = tr.start("chunk", chunk=self.chunks_done, m=m)
        try:
            with sw.phase("Construct R0"), tr.span("Construct R0"):
                R0 = self.sd.build_matrix()
            Z = self.sd.draw_noise(m)
            if Z.ndim == 1:
                Z = Z[:, None]
            with sw.phase("Cheb vectors"), tr.span("Cheb vectors"):
                gen = self.sd.brownian_generator(R0)
                F_B = gen.generate(Z)
            with sw.phase("Calc guesses"), tr.span("Calc guesses"):
                # The deterministic force at the chunk-start configuration
                # seeds every column (f^P drifts as slowly as R does).
                rhs = -F_B + self.sd.external_forces()[:, None]
                block, fallback = self._solve_block(R0, rhs)
        except BaseException as exc:
            self._chunk_span.set(error=type(exc).__name__)
            self._chunk_span.end()
            self._chunk_span = NULL_SPAN
            raise
        self._pending = _PendingChunk(
            chunk_index=self.chunks_done,
            m=m,
            Z=Z,
            U=block.X,
            block_iterations=block.iterations,
            block_gspmv_calls=block.gspmv_calls,
            block_converged=block.converged,
            block_diagnostics=block.diagnostics,
            fallback_columns=fallback,
            chunk_timings=sw.record(),
        )
        if self.sd.health is not None:
            self.sd.health.observe_block(
                chunk_index=self._pending.chunk_index,
                step_index=self.sd.step_index,
                U=block.X,
                converged=block.converged,
            )
        if not np.isfinite(block.X).all():
            # A non-finite guess column can never recover inside CG, so
            # the chunk is born quarantined (its steps cold-start).
            self.quarantine_chunk(
                reason="block solve produced non-finite guesses"
            )
        return self._pending

    def quarantine_chunk(self, reason: str = "") -> None:
        """Discard the pending chunk's block solutions as poisoned.

        The chunk keeps running — same noise columns ``Z``, same
        boundaries — but every remaining step's first solve cold-starts
        instead of being seeded by ``U`` (the stale or corrupted block
        solution).  Recorded on the eventual :class:`ChunkRecord`.
        """
        p = self._pending
        if p is None:
            raise RuntimeError("no chunk in progress to quarantine")
        if not p.quarantined:
            p.quarantined = True
            p.quarantine_reason = reason
            self._chunk_span.set(quarantined=True)
            self.telemetry.metrics.counter("chunks.quarantined").inc()
            logger.warning(
                "chunk %d quarantined at step %d of %d: %s",
                p.chunk_index, p.k, p.m, reason or "unspecified",
            )

    @property
    def pending(self) -> Optional[_PendingChunk]:
        """The in-progress chunk, if any (``None`` at chunk boundaries)."""
        return self._pending

    def step_in_chunk(self, *, finish: bool = True) -> StepRecord:
        """Advance one time step of the pending chunk (steps 4-14).

        Finishing the last step freezes the chunk into a
        :class:`ChunkRecord` and clears the pending state.  With
        ``finish=False`` the chunk stays pending after its last step
        until :meth:`finish_chunk`, so a caller that may still reject
        that step rolls back into a live chunk.
        """
        p = self._pending
        if p is None:
            raise RuntimeError("no chunk in progress; call begin_chunk first")
        if self._chunk_span is NULL_SPAN:
            # A pending chunk restored without its live span (a resume)
            # gets a new one, so its remaining steps nest under a chunk.
            self._chunk_span = self.telemetry.tracer.start(
                "chunk", chunk=p.chunk_index, m=p.m, resumed=True
            )
        u_guess = None if p.quarantined else p.U[:, p.k].copy()
        step = self.sd.step(z=p.Z[:, p.k], u_guess=u_guess)
        self._log_step(p.chunk_index, p.k, step)
        p.steps.append(step)
        p.k += 1
        if finish and p.k == p.m:
            self.finish_chunk()
        return step

    def finish_chunk(self) -> ChunkRecord:
        """Freeze the pending chunk, all of whose steps are done, into
        a :class:`ChunkRecord`."""
        p = self._pending
        if p is None or p.k < p.m:
            raise RuntimeError("no finished chunk to freeze")
        self._chunk_span.end(
            block_iterations=p.block_iterations,
            block_converged=p.block_converged,
            quarantined=p.quarantined,
            degraded=bool(p.degradations),
        )
        self._chunk_span = NULL_SPAN
        mx = self.telemetry.metrics
        mx.counter("chunks.completed").inc()
        if p.degradations:
            mx.counter("chunks.degraded").inc()
        record = ChunkRecord(
            chunk_index=p.chunk_index,
            m=p.m,
            block_iterations=p.block_iterations,
            block_gspmv_calls=p.block_gspmv_calls,
            block_converged=p.block_converged,
            steps=list(p.steps),
            chunk_timings=p.chunk_timings,
            block_diagnostics=p.block_diagnostics,
            fallback_columns=list(p.fallback_columns),
            degradations=list(p.degradations),
            retries=p.retries,
            quarantined=p.quarantined,
            quarantine_reason=p.quarantine_reason,
        )
        self.chunks.append(record)
        self.chunks_done += 1
        self._pending = None
        return record

    def run_chunk(self, m: Optional[int] = None) -> ChunkRecord:
        """Advance one full Algorithm 2 chunk of ``m`` time steps.

        ``m`` defaults to the driver's :class:`MrhsParameters`; passing
        a value overrides it for this chunk only (the hook the adaptive
        scheduling driver uses).
        """
        self.begin_chunk(m)
        while self._pending is not None:
            self.step_in_chunk()
        return self.chunks[-1]

    @staticmethod
    def _log_step(chunk_index: int, k: int, step: StepRecord) -> None:
        """Per-time-step convergence telemetry (the robustness layer's
        observable for every future perf PR)."""
        logger.debug(
            "chunk %d step %d: 1st solve %d it, 2nd solve %d it, "
            "converged=%s, guess_error=%s",
            chunk_index,
            k,
            step.iterations_first,
            step.iterations_second,
            step.converged,
            "n/a" if step.guess_error is None else f"{step.guess_error:.3e}",
        )
        for label, diag in (
            ("1st", step.diagnostics_first),
            ("2nd", step.diagnostics_second),
        ):
            if diag is not None and (diag.breakdown or not diag.converged):
                logger.warning(
                    "chunk %d step %d: %s solve %s",
                    chunk_index, k, label, diag.summary(),
                )

    def run(self, n_chunks: int) -> List[ChunkRecord]:
        """Advance ``n_chunks * m`` time steps."""
        if n_chunks < 0:
            raise ValueError("n_chunks must be non-negative")
        return [self.run_chunk() for _ in range(n_chunks)]

    # ------------------------------------------------------------------
    def step_records(self) -> List[StepRecord]:
        """All per-step records across chunks, in time order."""
        return [s for c in self.chunks for s in c.steps]

    def average_step_time(self) -> float:
        """Amortized wall-clock seconds per time step so far."""
        if not self.chunks:
            return 0.0
        total = sum(c.total_time() for c in self.chunks)
        steps = sum(c.m for c in self.chunks)
        return total / steps

    # ------------------------------------------------------------------
    # checkpointable state
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        """Serializable trajectory state, including mid-chunk position.

        A checkpoint taken between two in-chunk steps stores the block
        solve's noise ``Z`` and guess matrix ``U`` with the chunk's
        cursor ``k``, so resuming replays the remaining steps
        bit-for-bit without re-running the block solve.  Records are
        not state: :attr:`chunks` and the pending chunk's steps,
        timings and diagnostics are the log of what this process ran,
        so a snapshot costs the same at every step of a run.
        """
        state: Dict[str, Any] = {
            "kind": "mrhs",
            "sd": self.sd.get_state(),
            "m": self.mrhs.m,
            "chunks_done": self.chunks_done,
            "pending": None,
        }
        p = self._pending
        if p is not None:
            state["pending"] = {
                "chunk_index": p.chunk_index,
                "m": p.m,
                "k": p.k,
                "Z": p.Z.copy(),
                "U": p.U.copy(),
                "block_iterations": p.block_iterations,
                "block_gspmv_calls": p.block_gspmv_calls,
                "block_converged": p.block_converged,
                "fallback_columns": list(p.fallback_columns),
                "retries": p.retries,
                "degradations": list(p.degradations),
                "quarantined": p.quarantined,
                "quarantine_reason": p.quarantine_reason,
            }
        return state

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`get_state` in place (bit-exact trajectory).

        Records are touched only to drop those at or after the restored
        step or chunk.  A restore inside the live pending chunk (a
        rejected step's rollback) keeps that chunk's open span, its
        timings, its block diagnostics and its earlier steps; a restore
        anywhere else closes the live span as abandoned.  Checkpoints
        that still carry ``chunks`` summaries instead of
        ``chunks_done`` restore too, and their chunk count continues.
        """
        if state.get("kind") != "mrhs":
            raise ValueError(
                f"not an MrhsStokesianDynamics state: {state.get('kind')!r}"
            )
        self.sd.set_state(state["sd"])
        # Older checkpoints also carry an always-None ``block_tol``.
        self.mrhs = MrhsParameters(m=int(state["m"]))
        if "chunks_done" in state:
            self.chunks_done = int(state["chunks_done"])
        else:
            self.chunks_done = len(state["chunks"]["chunk_index"])
        while self.chunks and self.chunks[-1].chunk_index >= self.chunks_done:
            self.chunks.pop()
        live, pend = self._pending, state.get("pending")
        keep = (
            pend is not None
            and live is not None
            and live.chunk_index == int(pend["chunk_index"])
        )
        if not keep:
            self._chunk_span.end(abandoned=True)
            self._chunk_span = NULL_SPAN
        if pend is None:
            self._pending = None
            return
        self._pending = _PendingChunk(
            chunk_index=int(pend["chunk_index"]),
            m=int(pend["m"]),
            Z=np.asarray(pend["Z"], dtype=np.float64),
            U=np.asarray(pend["U"], dtype=np.float64),
            block_iterations=int(pend["block_iterations"]),
            block_gspmv_calls=int(pend["block_gspmv_calls"]),
            block_converged=bool(pend["block_converged"]),
            block_diagnostics=live.block_diagnostics if keep else None,
            fallback_columns=[int(j) for j in pend["fallback_columns"]],
            chunk_timings=(
                live.chunk_timings if keep else TimingRecord(phases={}, counts={})
            ),
            steps=(
                [s for s in live.steps if s.step_index < self.sd.step_index]
                if keep
                else []
            ),
            k=int(pend["k"]),
            retries=int(pend["retries"]),
            degradations=[int(v) for v in pend["degradations"]],
            quarantined=bool(pend.get("quarantined", False)),
            quarantine_reason=str(pend.get("quarantine_reason", "")),
        )

    @classmethod
    def from_state(
        cls, state: Dict[str, Any], *, forces=None, telemetry: TelemetryHub = NULL_HUB
    ) -> "MrhsStokesianDynamics":
        """Reconstruct a driver from a checkpointed state.

        A restored mid-chunk pending has no live span; its next step
        opens one marked ``resumed``, under which the rest of its steps
        nest.
        """
        system = ParticleSystem(
            positions=state["sd"]["positions"],
            radii=state["sd"]["radii"],
            box=state["sd"]["box"],
        )
        driver = cls(system, forces=forces, telemetry=telemetry)
        driver.set_state(state)
        return driver
