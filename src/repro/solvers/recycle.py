"""Krylov subspace recycling across a sequence of linear systems.

Section III lists recycling (Parks, de Sturler et al. 2006) as the
second classical technique for slowly varying matrix sequences: "A
second technique is to 'recycle' components of the Krylov subspace from
one solve to the next to reduce the number of iterations required for
convergence."

:class:`RecyclingCG` implements the standard projection form: a basis
``W`` of directions harvested from previous solves is used to deflate
each new solve's initial guess,

    x0' = x0 + W (W^T A W)^{-1} W^T (b - A x0),

which removes the error components living in span(W) before CG starts.
After each solve the basis is refreshed with the A-dominant search
directions of that solve (the final directions of CG approximate the
extreme eigenvectors — the components that slow CG down).

This is implemented as a *baseline/ablation* against the paper's MRHS
guesses: recycling helps when consecutive right-hand sides share error
structure, but the SD right-hand sides are fresh random vectors each
step, so recycling's win is bounded by the deflated eigenspace — the
comparison bench quantifies this.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.solvers.cg import CGResult, DEFAULT_TOL, conjugate_gradient
from repro.solvers.diagnostics import BreakdownEvent

__all__ = ["RecyclingCG"]


@dataclass
class RecyclingCG:
    """CG with a recycled deflation basis across solves.

    Parameters
    ----------
    basis_size:
        Maximum number of recycled directions kept (``k``).
    """

    basis_size: int = 8
    _basis: Optional[np.ndarray] = field(default=None, repr=False)
    _projection_breakdown: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.basis_size < 1:
            raise ValueError("basis_size must be >= 1")

    # ------------------------------------------------------------------
    def deflated_guess(self, A, b: np.ndarray, x0: Optional[np.ndarray]) -> np.ndarray:
        """Project the initial guess so its error is A-orthogonal to the
        recycled basis."""
        n = b.shape[0]
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
        W = self._basis
        self._projection_breakdown = False
        if W is None or W.shape[0] != n or W.shape[1] == 0:
            return x
        r = b - (A @ x)
        AW = np.column_stack([A @ W[:, j] for j in range(W.shape[1])])
        G = W.T @ AW
        G = 0.5 * (G + G.T)
        try:
            coeff = np.linalg.solve(G, W.T @ r)
        except np.linalg.LinAlgError:
            # W^T A W lost rank (basis directions became linearly
            # dependent): surface the breakdown and drop the stale
            # basis so the next solve rebuilds it from scratch.
            self._projection_breakdown = True
            coeff = np.linalg.lstsq(G, W.T @ r, rcond=None)[0]
            self._basis = None
        return x + W @ coeff

    def solve(
        self,
        A,
        b: np.ndarray,
        *,
        x0: Optional[np.ndarray] = None,
        tol: float = DEFAULT_TOL,
        max_iter: Optional[int] = None,
    ) -> CGResult:
        """Solve ``A x = b``, deflating with and then refreshing the
        recycled basis."""
        x_defl = self.deflated_guess(A, b, x0)
        harvested: List[np.ndarray] = []

        def harvest(_it, x_now):
            harvested.append(x_now.copy())

        result = conjugate_gradient(
            A, b, x0=x_defl, tol=tol, max_iter=max_iter, callback=harvest
        )
        self._refresh_basis(harvested)
        # Relabel the diagnostics as ours, appending the projection
        # breakdown (if any) so callers see the full event record.
        events = result.diagnostics.breakdown_events
        if self._projection_breakdown:
            events = (
                BreakdownEvent(
                    iteration=0,
                    kind="projection_singular",
                    detail="recycled basis W^T A W rank-deficient; basis dropped",
                ),
            ) + events
        diag = dataclasses.replace(
            result.diagnostics, solver="recycling_cg", breakdown_events=events
        )
        return dataclasses.replace(result, diagnostics=diag)

    # ------------------------------------------------------------------
    def _refresh_basis(self, iterates: List[np.ndarray]) -> None:
        """Rebuild the basis from the *late* iterate differences.

        Late CG increments point along the slowly converging (extreme)
        eigendirections — exactly what deflation should remove next time.
        """
        if len(iterates) < 2:
            return
        diffs = [
            iterates[k + 1] - iterates[k] for k in range(len(iterates) - 1)
        ]
        tail = diffs[-self.basis_size :]
        M = np.column_stack(tail)
        # Orthonormalize for numerical sanity (spans the same space).
        q, r = np.linalg.qr(M)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
        q = q[:, keep]
        if q.shape[1]:
            self._basis = q

    @property
    def basis(self) -> Optional[np.ndarray]:
        """The current recycled basis (``None`` before the first solve)."""
        return self._basis

    def reset(self) -> None:
        self._basis = None
