"""Block conjugate gradients (O'Leary 1980) for multiple right-hand sides.

Solves ``A X = B`` with SPD ``A`` and ``B`` of shape ``(n, m)``.  Each
iteration performs exactly one GSPMV with ``m`` vectors — this is the
"block iterative method" of the paper's Section III that makes solving
the augmented system (Eq. 7) cost "little more than the solve of the
original system with a single right-hand side".

The recurrences are the block generalization of CG:

    alpha  = (P^T A P)^{-1} (R^T Z)
    X     += P alpha
    R     -= A P alpha
    beta   = (R_old^T Z_old)^{-1} (R^T Z)
    P      = Z + P beta

with ``Z = M^{-1} R``.  Four safeguards address the rank-deficiency
and drift problems O'Leary identified (cited by the paper as the
reason block methods "have been avoided"):

* **column deflation** — converged columns are removed from the active
  block (their solutions are frozen), so the small systems never carry
  near-zero residual directions whose noise would stall the others;
* **residual replacement** — the *recurred* residual drifts away from
  the true residual ``B - A X`` as the small systems lose rank, so the
  true residual is recomputed on apparent convergence, periodically
  (every ``replace_every`` iterations), and on stagnation; convergence
  is only ever declared against the true residual;
* **restarts** — when replacement reveals significant drift, or the
  worst active column makes no progress for ``stagnation_window``
  iterations, the Krylov process is restarted from the current
  (replaced) residual, keeping the frozen deflation state.  Two
  consecutive stagnation restarts without progress abort the solve
  honestly instead of looping to ``max_iter``;
* the remaining ``m_act x m_act`` systems are symmetrized and fall
  back to least-squares when Cholesky detects rank deficiency (e.g.
  duplicated right-hand sides); every such event is surfaced as a
  :class:`~repro.solvers.diagnostics.BreakdownEvent` instead of being
  swallowed silently.

Convergence is judged per column (``||r_j|| <= tol * ||b_j||``); the
iteration stops when every column has converged against the *true*
residual.  The full event record is returned in
``BlockCGResult.diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

import repro.telemetry as _telemetry
from repro.solvers.cg import DEFAULT_TOL
from repro.solvers.diagnostics import ConvergenceMonitor, ResultView, SolveDiagnostics
from repro.telemetry.metrics import RESIDUAL_BUCKETS

__all__ = ["BlockCGResult", "block_conjugate_gradient"]

_DRIFT_TOL = 0.1
"""Relative recurred-vs-true residual mismatch above which the Krylov
process is restarted from the replaced residual."""


@dataclass(frozen=True)
class BlockCGResult(ResultView):
    """Outcome of one block-CG solve; convergence fields view ``diagnostics``."""

    X: np.ndarray
    diagnostics: SolveDiagnostics
    """Convergence record: restarts, breakdowns, stagnation, true
    residual norms."""
    gspmv_calls: int
    """Number of Krylov A-applications with the full block (the GSPMV
    count: one for the initial residual plus one per iteration).
    True-residual recomputations are counted separately in
    ``diagnostics.matvecs``."""

    @property
    def residual_norms(self) -> List[np.ndarray]:
        """Per-iteration arrays of the m column residual norms."""
        return list(self.diagnostics.residual_history)

    @property
    def final_residuals(self) -> np.ndarray:
        return self.residual_norms[-1] if self.residual_norms else np.array([])


def _column_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of ``V`` (no temporaries).

    Sums in another order than ``np.linalg.norm(V, axis=0)`` on a
    column-major ``V``, so the two may differ in the last bit.
    """
    return np.sqrt(np.einsum("ij,ij->j", V, V))


def _solve_small(G: np.ndarray, RHS: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Solve the m x m system ``G Y = RHS`` robustly.

    ``G`` is symmetrized first (both the alpha system ``P^T A P`` and
    the beta system ``R^T Z`` are symmetric in exact arithmetic but not
    in floating point).  Cholesky is used when ``G`` is comfortably
    positive definite; near-singular or indefinite systems fall back to
    rank-revealing least-squares and are reported as a breakdown so the
    caller can surface the event rather than trusting the fallback
    silently.

    Returns ``(Y, breakdown)``.
    """
    G = 0.5 * (G + G.T)
    scale = float(np.abs(G.diagonal()).max())
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(G, RHS, rcond=None)[0], True
    # Cholesky can succeed on a numerically singular matrix; a tiny
    # pivot relative to the diagonal scale means the block has
    # (nearly) lost rank and the triangular solves would amplify noise.
    if scale > 0 and float(L.diagonal().min()) ** 2 <= 1e-14 * scale:
        return np.linalg.lstsq(G, RHS, rcond=None)[0], True
    y = np.linalg.solve(L, RHS)
    return np.linalg.solve(L.T, y), False


def block_conjugate_gradient(
    A,
    B: np.ndarray,
    *,
    X0: Optional[np.ndarray] = None,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    replace_every: int = 50,
    stagnation_window: int = 10,
) -> BlockCGResult:
    """Solve ``A X = B`` for SPD ``A`` and a block of right-hand sides.

    Parameters
    ----------
    A:
        Anything supporting ``A @ X`` for 2-D ``X`` (BCRSMatrix, scipy
        sparse matrix, ndarray).
    B:
        Right-hand sides, shape ``(n, m)``.
    X0:
        Initial guesses, shape ``(n, m)`` (zero if omitted).
    tol:
        Per-column relative residual threshold, applied to the *true*
        residual ``||b_j - A x_j||``.
    max_iter:
        Iteration cap (default ``10 * n``).
    preconditioner:
        Callable applying ``M^{-1}`` column-wise to an ``(n, m)`` array.
    replace_every:
        Recompute the true residual at least every this many iterations
        (residual replacement); set large to disable periodic
        replacement (it still happens on apparent convergence and on
        stagnation).
    stagnation_window:
        Iterations without relative progress of the worst active column
        before a replacement + restart is forced.
    """
    hub = _telemetry.active_hub
    if hub is None:
        return _block_conjugate_gradient(
            A, B, X0=X0, tol=tol, max_iter=max_iter,
            preconditioner=preconditioner, replace_every=replace_every,
            stagnation_window=stagnation_window,
        )
    B_arr = np.asarray(B)
    m = B_arr.shape[1] if B_arr.ndim == 2 else 0
    with hub.tracer.span(
        "block_cg.solve", n=int(B_arr.shape[0]), m=int(m)
    ) as sp:
        result = _block_conjugate_gradient(
            A, B, X0=X0, tol=tol, max_iter=max_iter,
            preconditioner=preconditioner, replace_every=replace_every,
            stagnation_window=stagnation_window,
        )
        sp.set(
            iterations=result.iterations,
            converged=result.converged,
            gspmv_calls=result.gspmv_calls,
        )
    mx = hub.metrics
    mx.counter("block_cg.solves", m=m).inc()
    mx.counter("block_cg.iterations", m=m).inc(result.iterations)
    mx.counter("block_cg.gspmv_calls", m=m).inc(result.gspmv_calls)
    hist = mx.histogram("block_cg.true_residual", buckets=RESIDUAL_BUCKETS)
    for rn in np.atleast_1d(result.final_residuals):
        if np.isfinite(rn):
            hist.observe(float(rn))
    return result


def _block_conjugate_gradient(
    A,
    B: np.ndarray,
    *,
    X0: Optional[np.ndarray],
    tol: float,
    max_iter: Optional[int],
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]],
    replace_every: int,
    stagnation_window: int,
) -> BlockCGResult:
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("B must have shape (n, m); use conjugate_gradient for vectors")
    n, m = B.shape
    if m < 1:
        raise ValueError("B must contain at least one column")
    if max_iter is None:
        max_iter = 10 * n
    if tol <= 0:
        raise ValueError("tol must be positive")
    if replace_every < 1:
        raise ValueError("replace_every must be >= 1")
    X = np.zeros((n, m)) if X0 is None else np.array(X0, dtype=np.float64, copy=True)
    if X.shape != (n, m):
        raise ValueError(f"X0 must have shape ({n}, {m})")

    apply_m = preconditioner if preconditioner is not None else (lambda V: V)
    b_norms = np.linalg.norm(B, axis=0)
    stop = tol * np.where(b_norms > 0, b_norms, 1.0)
    monitor = ConvergenceMonitor(
        "block_cg", stop, stagnation_window=stagnation_window
    )

    R_full = B - (A @ X)
    gspmv_calls = 1
    monitor.count_matvec()
    latest_rn = _column_norms(R_full)
    monitor.observe(latest_rn)
    bad = ~np.isfinite(latest_rn)
    finite = not bad.any()
    if not finite:
        # A NaN or infinite column never joins the block (it would poison
        # every column through ``P^T A P``), gets no finite solution a
        # caller could mistake for one, and fails the solve.
        monitor.record_breakdown(
            "non_finite_residual",
            f"columns {np.flatnonzero(bad).tolist()} have non-finite residuals",
        )
        X[:, bad] = np.nan
    # Active-column bookkeeping: converged columns are deflated out (and
    # non-finite ones fail ``> stop``).
    act = np.flatnonzero(latest_rn > stop)
    if act.size == 0:
        return BlockCGResult(
            X=X, gspmv_calls=gspmv_calls, diagnostics=monitor.finalize(
                converged=finite, true_residual_norms=latest_rn
            ),
        )

    R = R_full[:, act].copy()
    # The active columns' iterates, row-major like the ``P @ alpha``
    # added to them every iteration, and written back into ``X`` only on
    # deflation and at exit.
    Xa = np.ascontiguousarray(X[:, act])
    stop_act = stop[act]
    Z = apply_m(R)
    P = Z.copy()
    RZ = R.T @ Z
    converged = False
    true_rn = latest_rn.copy()
    since_replace = 0
    stagnation_strikes = 0

    def true_residual() -> np.ndarray:
        """Recompute ``B - A X`` on the active columns (one GSPMV).

        ``A`` gets the column-major layout a gather ``X[:, act]`` has,
        which a dense ``A``'s product rounds differently from a
        row-major one."""
        monitor.count_matvec()
        return B[:, act] - (A @ np.asfortranarray(Xa))

    def restart(Rt: np.ndarray, reason: str):
        """Rebuild the Krylov process from the (replaced) residual."""
        monitor.record_restart(reason)
        Zr = apply_m(Rt)
        return Zr, Zr.copy(), Rt.T @ Zr

    while monitor.iteration < max_iter:
        AP = A @ P
        gspmv_calls += 1
        monitor.count_matvec()
        alpha, bd = _solve_small(P.T @ AP, RZ)
        if bd:
            monitor.record_breakdown(
                "alpha_singular", f"P^T A P rank-deficient at m_act={len(act)}"
            )
        Xa += P @ alpha
        R -= AP @ alpha
        since_replace += 1
        rn_act = _column_norms(R)
        latest_rn[act] = rn_act
        monitor.observe(latest_rn, active=act)

        apparent = rn_act <= stop_act
        stalled = monitor.stalled
        periodic = since_replace >= replace_every
        if apparent.any() or stalled or periodic:
            # Residual replacement: never trust the recurrence for a
            # convergence decision, and repair it when it has drifted.
            Rt = true_residual()
            rn_true = _column_norms(Rt)
            drift = float(
                np.max(np.abs(rn_true - rn_act) / np.maximum(rn_true, 1e-300))
            )
            since_replace = 0
            latest_rn[act] = rn_true
            monitor.amend_last(latest_rn)
            true_rn[act] = rn_true
            conv_true = rn_true <= stop_act
            if conv_true.all():
                converged = finite
                break
            if conv_true.any():
                # Deflate: freeze converged columns, shrink the block.
                keep = np.flatnonzero(~conv_true)
                X[:, act] = Xa
                act = act[keep]
                Xa = np.ascontiguousarray(X[:, act])
                stop_act = stop[act]
                Rt = Rt[:, keep]
                P = P[:, keep]
                RZ = RZ[np.ix_(keep, keep)]
            R = Rt
            if stalled:
                if drift <= _DRIFT_TOL:
                    stagnation_strikes += 1
                else:
                    stagnation_strikes = 0
                if stagnation_strikes >= 2:
                    # Two stagnation restarts with an honest residual
                    # and still no progress: give up explicitly.
                    monitor.record_breakdown(
                        "stagnation",
                        f"no progress over {stagnation_window}-iteration "
                        f"window after {monitor.iteration} iterations",
                    )
                    monitor.mark_stagnated()
                    break
                Z, P, RZ = restart(R, "stagnation")
                continue
            if drift > _DRIFT_TOL or conv_true.any():
                # The recurrence is no longer trustworthy (drift) or
                # the block shrank with a replaced residual: restart
                # the Krylov process around the frozen deflation state.
                reason = "residual_drift" if drift > _DRIFT_TOL else "deflation"
                Z, P, RZ = restart(R, reason)
                continue
            # Mild drift, nothing deflated: adopt the true residual and
            # continue the existing recurrence.

        Z = apply_m(R)
        RZ_new = R.T @ Z
        beta, bd = _solve_small(RZ, RZ_new)
        if bd:
            monitor.record_breakdown(
                "beta_singular", f"R^T Z near-singular at m_act={len(act)}"
            )
        RZ = RZ_new
        P = Z + P @ beta

    X[:, act] = Xa
    if converged or monitor.iteration >= max_iter:
        # Report the final true residual even when the cap was hit.
        if not converged:
            Rt = true_residual()
            true_rn[act] = _column_norms(Rt)
            latest_rn[act] = true_rn[act]
            monitor.amend_last(latest_rn)
            converged = bool(np.all(true_rn <= stop))
    return BlockCGResult(
        X=X, gspmv_calls=gspmv_calls, diagnostics=monitor.finalize(
            converged=converged, true_residual_norms=true_rn
        ),
    )
