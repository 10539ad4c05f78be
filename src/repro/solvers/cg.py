"""Conjugate gradients with initial guesses and iteration recording.

This is the solver whose iteration counts the paper reports in
Figure 6 and Table V: "the conjugate gradient (CG) method was used and
the iterations were stopped when the residual norm became less than
1e-6 times the norm of the right-hand side."

The implementation is deliberately textbook (preconditioned CG),
because its *iteration count as a function of initial-guess quality*
is the observable the MRHS algorithm improves.  It shares the solver
robustness layer (:mod:`repro.solvers.diagnostics`): convergence is
verified against the *true* residual ``b - A x`` (not the recurrence),
with residual replacement and a restart when the recurrence has
drifted, and breakdown (``p^T A p <= 0``, or a residual norm that is
not finite) is reported as an event in ``CGResult.diagnostics`` instead
of being silently folded into a non-converged flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import repro.telemetry as _telemetry
from repro.solvers.diagnostics import ConvergenceMonitor, ResultView, SolveDiagnostics
from repro.telemetry.metrics import RESIDUAL_BUCKETS

__all__ = ["CGResult", "conjugate_gradient"]

DEFAULT_TOL = 1e-6  # the paper's relative residual threshold


@dataclass(frozen=True)
class CGResult(ResultView):
    """Outcome of one CG solve; convergence fields view ``diagnostics``."""

    x: np.ndarray
    diagnostics: SolveDiagnostics
    """Convergence record: restarts, breakdowns, true residual norm."""

    @property
    def residual_norms(self) -> List[float]:
        """``||r||_2`` after each iteration, starting with the initial residual."""
        return [float(row[0]) for row in self.diagnostics.residual_history]

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else np.inf


def conjugate_gradient(
    A,
    b: np.ndarray,
    *,
    x0: Optional[np.ndarray] = None,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> CGResult:
    """Solve ``A x = b`` for SPD ``A`` by (preconditioned) CG.

    Parameters
    ----------
    A:
        Anything supporting ``A @ x`` for 1-D ``x`` (BCRSMatrix, scipy
        sparse matrix, ndarray).
    b:
        Right-hand side.
    x0:
        Initial guess (zero if omitted) — the MRHS algorithm's entire
        benefit enters through this argument.
    tol:
        Relative residual threshold ``||r|| <= tol * ||b||``, enforced
        on the true residual.
    max_iter:
        Iteration cap (default ``10 * n``).
    preconditioner:
        Callable applying ``M^{-1}`` to a vector.
    callback:
        Called as ``callback(iteration, x)`` after each iteration.
    """
    hub = _telemetry.active_hub
    if hub is None:
        return _conjugate_gradient(
            A, b, x0=x0, tol=tol, max_iter=max_iter,
            preconditioner=preconditioner, callback=callback,
        )
    with hub.tracer.span("cg.solve", n=int(np.asarray(b).shape[0])) as sp:
        result = _conjugate_gradient(
            A, b, x0=x0, tol=tol, max_iter=max_iter,
            preconditioner=preconditioner, callback=callback,
        )
        sp.set(iterations=result.iterations, converged=result.converged)
    mx = hub.metrics
    mx.counter("cg.solves").inc()
    mx.counter("cg.iterations").inc(result.iterations)
    # Every exit computes the true residual norm ``||b - A x||``.
    final = float(result.diagnostics.final_residuals[0])
    if np.isfinite(final):
        mx.histogram("cg.true_residual", buckets=RESIDUAL_BUCKETS).observe(final)
    return result


def _conjugate_gradient(
    A,
    b: np.ndarray,
    *,
    x0: Optional[np.ndarray],
    tol: float,
    max_iter: Optional[int],
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]],
    callback: Optional[Callable[[int, np.ndarray], None]],
) -> CGResult:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("b must be a vector; use block_conjugate_gradient for blocks")
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        monitor = ConvergenceMonitor("cg", [0.0])
        monitor.observe([0.0])
        return CGResult(
            x=np.zeros(n), diagnostics=monitor.finalize(
                converged=True, true_residual_norms=np.array([0.0])
            ),
        )
    stop = tol * b_norm
    monitor = ConvergenceMonitor("cg", [stop])

    apply_m = preconditioner if preconditioner is not None else (lambda v: v)
    r = b - (A @ x)
    monitor.count_matvec()
    rn = float(np.linalg.norm(r))
    monitor.observe([rn])
    # An infinite ``b`` makes ``stop`` infinite too: only a finite
    # residual may converge (the loop below stops on the other kind).
    if rn <= stop and math.isfinite(rn):
        return CGResult(
            x=x, diagnostics=monitor.finalize(
                converged=True, true_residual_norms=np.array([rn])
            ),
        )
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    converged = False
    while monitor.iteration < max_iter:
        if not math.isfinite(rn):
            # A NaN or infinite residual never converges: stop instead
            # of running to the iteration cap, and return no finite
            # iterate a caller could mistake for a solution.
            monitor.record_breakdown(
                "non_finite_residual",
                f"||r|| = {rn} at iteration {monitor.iteration}",
            )
            x[:] = np.nan
            break
        Ap = A @ p
        monitor.count_matvec()
        pAp = float(p @ Ap)
        if pAp <= 0:
            # Not SPD along p (breakdown): report non-convergence honestly.
            monitor.record_breakdown(
                "indefinite_operator",
                f"p^T A p = {pAp:.3e} at iteration {monitor.iteration}",
            )
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        # What ``np.linalg.norm`` computes for a vector, without its
        # argument handling.
        rn = math.sqrt(r.dot(r))
        monitor.observe([rn])
        if callback is not None:
            callback(monitor.iteration, x)
        if rn <= stop:
            # Verify against the true residual before declaring victory;
            # the recurrence can drift below tolerance while the actual
            # residual has stalled above it.
            r_true = b - (A @ x)
            monitor.count_matvec()
            rn_true = float(np.linalg.norm(r_true))
            if rn_true <= stop:
                converged = True
                final_true = rn_true
                break
            # Residual replacement + restart from the honest residual.
            r = r_true
            monitor.amend_last([rn_true])
            monitor.record_restart("residual_drift")
            z = apply_m(r)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = apply_m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta  # p <- z + beta p, in place
        p += z
    if not converged:
        # Iteration cap or breakdown: report the true residual, as block
        # CG does at its cap, not the recurred one.
        final_true = float(np.linalg.norm(b - (A @ x)))
        monitor.count_matvec()
    return CGResult(
        x=x, diagnostics=monitor.finalize(
            converged=converged, true_residual_norms=np.array([final_true])
        ),
    )
