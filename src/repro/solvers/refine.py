"""Iterative refinement with a frozen solver.

The paper's optimization for the second in-step solve (Section II.C):
"solve the system in step 5 using the same Cholesky factor combined
with a simple iterative method, such as 'iterative refinement'.
Combined with an initial guess which is the solution from step 3, only
a very small number of iterations are needed for convergence.  Thus
only one Cholesky factorization, rather than two, is needed per time
step."

Given an approximate solver ``apply_inv`` (e.g. the Cholesky factor of
a *nearby* matrix ``R_k`` used against ``R_{k+1/2}``), refinement
iterates ``x += apply_inv(b - A x)`` until the true residual passes the
tolerance.  Refinement always works with the true residual, so no
replacement is needed; divergence (the contraction factor exceeding 1)
and stagnation are detected and surfaced as breakdown events in
``RefinementResult.diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.solvers.cg import DEFAULT_TOL
from repro.solvers.diagnostics import ConvergenceMonitor, ResultView, SolveDiagnostics

__all__ = ["RefinementResult", "iterative_refinement"]


@dataclass(frozen=True)
class RefinementResult(ResultView):
    """Outcome of one refinement; convergence fields view ``diagnostics``."""

    x: np.ndarray
    diagnostics: SolveDiagnostics
    """Convergence record: divergence/stagnation events, residual history."""

    @property
    def residual_norms(self) -> List[float]:
        """True ``||b - A x||_2`` after each iteration, starting with x0's."""
        return [float(row[0]) for row in self.diagnostics.residual_history]


def iterative_refinement(
    A,
    b: np.ndarray,
    apply_inv: Callable[[np.ndarray], np.ndarray],
    *,
    x0: Optional[np.ndarray] = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = 50,
) -> RefinementResult:
    """Refine ``A x = b`` using an approximate inverse.

    Parameters
    ----------
    A:
        The true operator (supports ``A @ x``).
    b:
        Right-hand side vector.
    apply_inv:
        Applies an approximation of ``A^{-1}`` (a factorization of a
        nearby matrix); the closer it is, the fewer iterations.
    x0:
        Initial guess (e.g. the previous solve's solution).
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("b must be a vector")
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    if x.shape != b.shape:
        raise ValueError("x0 shape mismatch")
    if tol <= 0:
        raise ValueError("tol must be positive")
    b_norm = float(np.linalg.norm(b))
    stop = tol * (b_norm if b_norm > 0 else 1.0)
    monitor = ConvergenceMonitor("iterative_refinement", [stop])
    r = b - (A @ x)
    monitor.count_matvec()
    rn = float(np.linalg.norm(r))
    monitor.observe([rn])
    converged = rn <= stop
    while not converged and monitor.iteration < max_iter:
        x += apply_inv(r)
        r = b - (A @ x)
        monitor.count_matvec()
        rn = float(np.linalg.norm(r))
        monitor.observe([rn])
        converged = rn <= stop
        if converged:
            break
        # Divergence guard: if refinement is not contracting, stop
        # honestly — the frozen factor is too far from A.
        if monitor.iteration >= 2 and rn > 2.0 * monitor.history[-3][0]:
            monitor.record_breakdown(
                "divergence",
                f"residual grew {rn:.3e} > 2 x {monitor.history[-3][0]:.3e}; "
                "approximate inverse is not a contraction",
            )
            break
        if monitor.stalled:
            monitor.record_breakdown(
                "stagnation",
                "refinement residual stopped contracting before tolerance",
            )
            monitor.mark_stagnated()
            break
    return RefinementResult(
        x=x, diagnostics=monitor.finalize(
            converged=converged, true_residual_norms=np.array([rn])
        ),
    )
