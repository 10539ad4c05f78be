"""Convergence diagnostics shared by every solver in :mod:`repro.solvers`.

The MRHS speedup of the paper only materializes when the auxiliary
block solve is *reliable*: O'Leary-style rank deficiency and
residual-recurrence drift are the reasons block methods "have been
avoided" (Section III).  This module is the robustness layer those
solvers share:

* :class:`SolveDiagnostics` — the one record of a solve: per-column
  residual history, iteration count, convergence, restart and
  breakdown events, stagnation state, and the true (recomputed, not
  recurred) final residual norms;
* :class:`ConvergenceMonitor` — the mutable companion a solver drives
  while iterating and the only writer of its residuals: it accumulates
  the history, watches a stagnation window, counts operator
  applications, and finalizes into a :class:`SolveDiagnostics`;
* :class:`BreakdownEvent` / :class:`RestartEvent` — timestamped
  records of the small-system rank deficiencies and Krylov restarts
  that the block solvers guard against.

Each solver result (``CGResult``, ``BlockCGResult``,
``RefinementResult``) holds its solution and one of these records; its
``iterations``, ``converged``, ``residual_norms`` and
``final_residual(s)`` are read-only views of it (:class:`ResultView`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BreakdownEvent",
    "RestartEvent",
    "SolveDiagnostics",
    "ConvergenceMonitor",
    "ResultView",
]


@dataclass(frozen=True)
class BreakdownEvent:
    """A numerical breakdown observed during a solve.

    ``kind`` is a short machine-readable tag, e.g. ``"alpha_singular"``
    (the ``P^T A P`` system of block CG lost rank),
    ``"beta_singular"`` (the ``R^T Z`` system is near-singular after
    deflation), ``"indefinite_operator"`` (CG saw ``p^T A p <= 0``),
    ``"non_finite_residual"`` (a residual norm went NaN or infinite),
    ``"stagnation"`` (no progress despite restarts) or
    ``"divergence"`` (iterative refinement expanding).
    """

    iteration: int
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class RestartEvent:
    """A Krylov restart (search directions rebuilt from the current
    residual), with the policy reason that triggered it."""

    iteration: int
    reason: str


@dataclass(frozen=True)
class SolveDiagnostics:
    """Uniform convergence record returned by every solver.

    ``residual_history[k]`` is the length-``n_columns`` array of
    per-column residual norms after iteration ``k`` (entry 0 is the
    initial residual); single-RHS solvers report one column.  Frozen
    (deflated) columns keep reporting their last value, so every row
    has the full width.
    """

    solver: str
    iterations: int
    converged: bool
    n_columns: int
    residual_history: List[np.ndarray] = field(default_factory=list)
    breakdown_events: Tuple[BreakdownEvent, ...] = ()
    restart_events: Tuple[RestartEvent, ...] = ()
    stagnated: bool = False
    matvecs: int = 0
    """Total operator applications, *including* the true-residual
    recomputations (residual replacement); for block solvers one
    application means one GSPMV with the active block."""
    true_residual_norms: Optional[np.ndarray] = None
    """``||b_j - A x_j||`` recomputed from scratch at termination,
    when the solver verified convergence against the true residual."""

    # ------------------------------------------------------------------
    @property
    def restarts(self) -> int:
        return len(self.restart_events)

    @property
    def breakdown(self) -> bool:
        """True when any breakdown event was recorded."""
        return bool(self.breakdown_events)

    @property
    def final_residuals(self) -> np.ndarray:
        if self.true_residual_norms is not None:
            return self.true_residual_norms
        if self.residual_history:
            return self.residual_history[-1]
        return np.array([])

    def column_history(self, j: int) -> np.ndarray:
        """Residual-norm trajectory of column ``j`` across iterations."""
        if not 0 <= j < self.n_columns:
            raise IndexError(f"column {j} out of range (m={self.n_columns})")
        return np.array([row[j] for row in self.residual_history])

    def summary(self) -> str:
        """One-line human-readable summary (what the MRHS driver logs)."""
        state = "converged" if self.converged else (
            "stagnated" if self.stagnated else "not converged"
        )
        parts = [
            f"{self.solver}: {state} in {self.iterations} it",
            f"{self.n_columns} rhs",
            f"{self.matvecs} matvecs",
        ]
        if self.restarts:
            parts.append(f"{self.restarts} restarts")
        if self.breakdown_events:
            kinds = sorted({e.kind for e in self.breakdown_events})
            parts.append(f"{len(self.breakdown_events)} breakdowns ({', '.join(kinds)})")
        return ", ".join(parts)


class ConvergenceMonitor:
    """Accumulates per-iteration convergence state for one solve.

    Its :attr:`history` is the solve's only residual record; result
    fields (``iterations``, ``residual_norms``, ...) are views of the
    :class:`SolveDiagnostics` it finalizes into.

    Drive it from a solver loop::

        mon = ConvergenceMonitor("block_cg", stop_thresholds=stop)
        mon.observe(initial_norms)          # iteration 0
        while ...:
            mon.count_matvec()
            ...
            mon.observe(norms)              # after each iteration
            if mon.stalled:
                mon.record_restart("stagnation")
        diag = mon.finalize(converged=..., true_residual_norms=...)

    Stagnation is judged on the worst active column's distance to its
    threshold: if ``max_j ||r_j|| / stop_j`` has not improved by at
    least ``stagnation_improvement`` (relative factor) within
    ``stagnation_window`` consecutive iterations, :attr:`stalled`
    becomes true.  Restarts reset the window.
    """

    def __init__(
        self,
        solver: str,
        stop_thresholds: Sequence[float],
        *,
        stagnation_window: int = 10,
        stagnation_improvement: float = 0.9,
    ) -> None:
        if stagnation_window < 1:
            raise ValueError("stagnation_window must be >= 1")
        if not 0 < stagnation_improvement < 1:
            raise ValueError("stagnation_improvement must be in (0, 1)")
        self.solver = solver
        self.stop = np.atleast_1d(np.asarray(stop_thresholds, dtype=np.float64))
        self.n_columns = self.stop.shape[0]
        # Stagnation-metric divisor: never zero; NaN for a non-finite
        # threshold, whose column's metric is then NaN (no progress).
        s = self.stop
        self._scale = np.where(np.isfinite(s), np.where(s > 0, s, 1.0), np.nan)
        self.stagnation_window = int(stagnation_window)
        self.stagnation_improvement = float(stagnation_improvement)
        self.history: List[np.ndarray] = []
        self._breakdowns: List[BreakdownEvent] = []
        self._restarts: List[RestartEvent] = []
        self._matvecs = 0
        self._best_metric: Optional[float] = None
        self._stall = 0
        self._stagnated_for_good = False

    # ------------------------------------------------------------------
    @property
    def iteration(self) -> int:
        """Iterations observed so far (row 0 is the initial residual)."""
        return max(0, len(self.history) - 1)

    def _row(self, norms: Sequence[float]) -> np.ndarray:
        row = np.array(norms, dtype=np.float64, ndmin=1)
        if row.shape[0] != self.n_columns:
            raise ValueError(
                f"expected {self.n_columns} residual norms, got {row.shape[0]}"
            )
        return row

    def observe(
        self, norms: Sequence[float], active: Optional[np.ndarray] = None
    ) -> None:
        """Record one iteration's full-width residual norms.

        ``active`` optionally names the columns still iterating; the
        stagnation metric is computed over those only (frozen columns
        are converged by construction and would dilute it).
        """
        row = self._row(norms)
        self.history.append(row)
        if active is None:
            scaled = row / self._scale
        else:
            idx = np.asarray(active)
            if idx.size == 0:
                return
            scaled = row[idx] / self._scale[idx]
        if scaled.size == 0:
            return  # a zero-column monitor has no metric
        metric = float(scaled.max())
        if self._best_metric is None or metric < (
            self.stagnation_improvement * self._best_metric
        ):
            self._best_metric = metric
            self._stall = 0
        else:
            self._stall += 1

    def amend_last(self, norms: Sequence[float]) -> None:
        """Overwrite the latest history row (used after residual
        replacement recomputes the true norms for the same iteration)."""
        if not self.history:
            raise RuntimeError("no observation to amend")
        self.history[-1] = self._row(norms)

    @property
    def stalled(self) -> bool:
        return self._stall >= self.stagnation_window

    def count_matvec(self, k: int = 1) -> None:
        self._matvecs += k

    @property
    def matvecs(self) -> int:
        return self._matvecs

    def record_breakdown(self, kind: str, detail: str = "") -> None:
        self._breakdowns.append(
            BreakdownEvent(iteration=self.iteration, kind=kind, detail=detail)
        )

    def record_restart(self, reason: str) -> None:
        """Record a Krylov restart and reset the stagnation window."""
        self._restarts.append(RestartEvent(iteration=self.iteration, reason=reason))
        self._stall = 0
        self._best_metric = None

    def mark_stagnated(self) -> None:
        """Flag the solve as terminally stagnated (restarts exhausted)."""
        self._stagnated_for_good = True

    # ------------------------------------------------------------------
    def finalize(
        self,
        *,
        converged: bool,
        true_residual_norms: Optional[np.ndarray] = None,
    ) -> SolveDiagnostics:
        return SolveDiagnostics(
            solver=self.solver,
            iterations=self.iteration,
            converged=converged,
            n_columns=self.n_columns,
            residual_history=list(self.history),
            breakdown_events=tuple(self._breakdowns),
            restart_events=tuple(self._restarts),
            stagnated=self._stagnated_for_good or (self.stalled and not converged),
            matvecs=self._matvecs,
            true_residual_norms=(
                None
                if true_residual_norms is None
                else np.atleast_1d(np.asarray(true_residual_norms, dtype=np.float64))
            ),
        )


class ResultView:
    """``iterations`` and ``converged`` of a solver result, read from
    its ``diagnostics`` record (mixed into the frozen result types)."""

    diagnostics: SolveDiagnostics

    @property
    def iterations(self) -> int:
        return self.diagnostics.iterations

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged
