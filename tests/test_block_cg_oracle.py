"""Block CG against the loop it replaced, kept here as the oracle.

The iteration now updates the active columns' iterates in one
row-major array in place (written back into ``X`` only on deflation
and at exit) and takes column norms with ``einsum``.  Neither may move a decision: on BCRS
inputs, with and without block-Jacobi, the solution, iteration count,
restart reasons and breakdown kinds must be identical to the old
loop's, across deflation, stagnation, duplicate and non-finite columns
and a given ``X0``.  Only the residual norms may differ, in the last
bits (``einsum`` sums a column-major residual in another order).
"""

from typing import Callable, Optional, Tuple

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers.block_cg import (
    _DRIFT_TOL,
    BlockCGResult,
    block_conjugate_gradient,
)
from repro.solvers.diagnostics import ConvergenceMonitor
from repro.solvers.precond import BlockJacobiPreconditioner
from repro.sparse.convert import bcrs_from_scipy


# ----------------------------------------------------------------------
# the replaced loop, verbatim but for its names
# ----------------------------------------------------------------------
def _replaced_solve_small(G: np.ndarray, RHS: np.ndarray) -> Tuple[np.ndarray, bool]:
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
    scale = float(np.max(np.abs(np.diag(G)), initial=0.0))
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(G, RHS, rcond=None)[0], True
    # Cholesky can succeed on a numerically singular matrix; a tiny
    # pivot relative to the diagonal scale means the block has
    # (nearly) lost rank and the triangular solves would amplify noise.
    d = np.diag(L)
    if scale > 0 and float(np.min(d)) ** 2 <= 1e-14 * scale:
        return np.linalg.lstsq(G, RHS, rcond=None)[0], True
    y = np.linalg.solve(L, RHS)
    return np.linalg.solve(L.T, y), False


def _replaced_block_cg(
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
    latest_rn = np.linalg.norm(R_full, axis=0)
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
    Z = apply_m(R)
    P = Z.copy()
    RZ = R.T @ Z
    converged = False
    true_rn = latest_rn.copy()
    since_replace = 0
    stagnation_strikes = 0

    def true_residual() -> np.ndarray:
        """Recompute ``B - A X`` on the active columns (one GSPMV)."""
        monitor.count_matvec()
        return B[:, act] - (A @ X[:, act])

    def restart(Rt: np.ndarray, reason: str):
        """Rebuild the Krylov process from the (replaced) residual."""
        monitor.record_restart(reason)
        Zr = apply_m(Rt)
        return Zr, Zr.copy(), Rt.T @ Zr

    while monitor.iteration < max_iter:
        AP = A @ P
        gspmv_calls += 1
        monitor.count_matvec()
        alpha, bd = _replaced_solve_small(P.T @ AP, RZ)
        if bd:
            monitor.record_breakdown(
                "alpha_singular", f"P^T A P rank-deficient at m_act={len(act)}"
            )
        X[:, act] += P @ alpha
        R -= AP @ alpha
        since_replace += 1
        rn_act = np.linalg.norm(R, axis=0)
        latest_rn[act] = rn_act
        monitor.observe(latest_rn, active=act)

        apparent = rn_act <= stop[act]
        stalled = monitor.stalled
        periodic = since_replace >= replace_every
        if apparent.any() or stalled or periodic:
            # Residual replacement: never trust the recurrence for a
            # convergence decision, and repair it when it has drifted.
            Rt = true_residual()
            rn_true = np.linalg.norm(Rt, axis=0)
            drift = float(
                np.max(np.abs(rn_true - rn_act) / np.maximum(rn_true, 1e-300))
            )
            since_replace = 0
            latest_rn[act] = rn_true
            monitor.amend_last(latest_rn)
            true_rn[act] = rn_true
            conv_true = rn_true <= stop[act]
            if conv_true.all():
                converged = finite
                break
            if conv_true.any():
                # Deflate: freeze converged columns, shrink the block.
                keep = np.flatnonzero(~conv_true)
                act = act[keep]
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
        beta, bd = _replaced_solve_small(RZ, RZ_new)
        if bd:
            monitor.record_breakdown(
                "beta_singular", f"R^T Z near-singular at m_act={len(act)}"
            )
        RZ = RZ_new
        P = Z + P @ beta

    if converged or monitor.iteration >= max_iter:
        # Report the final true residual even when the cap was hit.
        if not converged:
            Rt = true_residual()
            true_rn[act] = np.linalg.norm(Rt, axis=0)
            latest_rn[act] = true_rn[act]
            monitor.amend_last(latest_rn)
            converged = bool(np.all(true_rn <= stop))
    return BlockCGResult(
        X=X, gspmv_calls=gspmv_calls, diagnostics=monitor.finalize(
            converged=converged, true_residual_norms=true_rn
        ),
    )


# ----------------------------------------------------------------------
# cases (all on BCRS matrices)
# ----------------------------------------------------------------------
def _spd_bcrs(n: int, seed: int, log_cond: float):
    """A dense SPD matrix with spectrum ``logspace(0, log_cond)``, as BCRS."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = (Q * np.logspace(0, log_cond, n)) @ Q.T
    return bcrs_from_scipy(sp.csr_matrix(0.5 * (dense + dense.T)), 3)


def _rhs(n: int, m: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, m))


def _deflation():
    A = _spd_bcrs(30, 1, 3.0)
    B = _rhs(30, 4, 2)
    # A smooth solution with a little noise: this column converges
    # well before the others and is deflated.  At 1e-4 it deflates on
    # the ``cgen`` and the ``scipy`` engine, with and without
    # block-Jacobi (at 1e-3, unpreconditioned ``cgen`` records no
    # deflation restart).
    B[:, 2] = A @ np.ones(30) + 1e-4 * B[:, 2]
    return A, B, {"tol": 1e-8}


def _stagnation():
    A = _spd_bcrs(18, 3, 1.0)
    B = _rhs(18, 2, 61)
    # A singular preconditioner: half the unknowns never move.
    mask = (np.arange(18) % 2 == 0).astype(float)[:, None]
    return A, B, {"tol": 1e-8, "max_iter": 200, "mask": mask}


def _duplicates():
    A = _spd_bcrs(24, 5, 2.0)
    B = _rhs(24, 3, 6)
    B[:, 2] = B[:, 0]
    return A, B, {"tol": 1e-8}


def _non_finite():
    A = _spd_bcrs(24, 7, 2.0)
    B = _rhs(24, 3, 8)
    B[3, 1] = np.nan
    return A, B, {"tol": 1e-8}


def _x0_given():
    A = _spd_bcrs(30, 9, 3.0)
    B = _rhs(30, 3, 10)
    X0 = 0.1 * _rhs(30, 3, 11)
    X0[:, 0] = np.linalg.solve(A.to_dense(), B[:, 0]) + 1e-6 * _rhs(30, 1, 12)[:, 0]
    return A, B, {"tol": 1e-8, "X0": X0}


CASES = {
    "deflation": (_deflation, "deflation", None),
    "stagnation": (_stagnation, "stagnation", "stagnation"),
    "duplicates": (_duplicates, None, "alpha_singular"),
    "non_finite": (_non_finite, None, "non_finite_residual"),
    "x0_given": (_x0_given, "deflation", None),
}


def _solve(solver: Callable, case: str, block_jacobi: bool):
    A, B, kw = CASES[case][0]()
    M = BlockJacobiPreconditioner(A) if block_jacobi else None
    mask = kw.pop("mask", None)
    if mask is not None:
        M = (lambda R, M=M: mask * M(R)) if M else (lambda R: mask * R)
    kw.setdefault("X0", None)
    kw.setdefault("max_iter", None)
    return solver(
        A, B, preconditioner=M, replace_every=50, stagnation_window=10, **kw
    )


@pytest.mark.parametrize("block_jacobi", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_same_decisions_and_solution_as_the_replaced_loop(case, block_jacobi):
    new = _solve(block_conjugate_gradient, case, block_jacobi)
    old = _solve(_replaced_block_cg, case, block_jacobi)
    assert new.X.tobytes() == old.X.tobytes()
    assert new.iterations == old.iterations
    assert (new.converged, new.gspmv_calls) == (old.converged, old.gspmv_calls)
    d_new, d_old = new.diagnostics, old.diagnostics
    assert d_new.restart_events == d_old.restart_events
    assert [e.kind for e in d_new.breakdown_events] == [
        e.kind for e in d_old.breakdown_events
    ]
    assert (d_new.stagnated, d_new.matvecs) == (d_old.stagnated, d_old.matvecs)
    assert len(d_new.residual_history) == len(d_old.residual_history)
    for a, b in zip(d_new.residual_history, d_old.residual_history):
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0, equal_nan=True)
    np.testing.assert_allclose(
        d_new.true_residual_norms, d_old.true_residual_norms,
        rtol=1e-14, atol=0, equal_nan=True,
    )
    # The case exercises what it is named for.
    _, restart, breakdown = CASES[case]
    if restart is not None:
        assert restart in [e.reason for e in d_old.restart_events]
    if breakdown is not None:
        assert breakdown in [e.kind for e in d_old.breakdown_events]
