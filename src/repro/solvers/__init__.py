"""Iterative and direct solvers used by Stokesian dynamics.

The SD time step requires solving ``R u = -f^B`` with the symmetric
positive definite resistance matrix ``R`` (Section II.C).  The paper's
large-problem path is iterative:

* :mod:`repro.solvers.cg` — conjugate gradients with an initial guess
  and full iteration recording (the paper stops at
  ``||r|| <= 1e-6 ||b||``);
* :mod:`repro.solvers.block_cg` — the block CG method of O'Leary (1980)
  for systems with multiple right-hand sides; each iteration performs
  one GSPMV with ``m`` vectors, which is what makes the MRHS auxiliary
  solve cheap;
* :mod:`repro.solvers.precond` — the block-Jacobi preconditioner;
* :mod:`repro.solvers.chol` — dense Cholesky factorization with factor
  reuse (the paper's small-problem path, including its "reuse the factor
  from step 2 for step 3" optimization);
* :mod:`repro.solvers.refine` — iterative refinement with a frozen
  factorization (the paper's optimization for the second in-step solve);
* :mod:`repro.solvers.diagnostics` — the shared robustness layer: every
  solver returns a :class:`SolveDiagnostics` (per-column residual
  history, restarts, breakdown events, stagnation state) built by a
  :class:`ConvergenceMonitor`, and the iterative solvers verify
  convergence against the *true* residual with replacement/restart.
  That record is the only one a solve writes: a result's
  ``iterations``, ``converged``, ``residual_norms`` and
  ``final_residual(s)`` are views of its ``diagnostics``.
"""

from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.block_cg import BlockCGResult, block_conjugate_gradient
from repro.solvers.diagnostics import (
    BreakdownEvent,
    ConvergenceMonitor,
    RestartEvent,
    SolveDiagnostics,
)
from repro.solvers.precond import BlockJacobiPreconditioner
from repro.solvers.chol import CholeskySolver
from repro.solvers.refine import iterative_refinement
from repro.solvers.recycle import RecyclingCG
from repro.solvers.reuse import ILUPreconditioner, ReusedPreconditioner

__all__ = [
    "CGResult",
    "conjugate_gradient",
    "BlockCGResult",
    "block_conjugate_gradient",
    "BreakdownEvent",
    "ConvergenceMonitor",
    "RestartEvent",
    "SolveDiagnostics",
    "BlockJacobiPreconditioner",
    "CholeskySolver",
    "iterative_refinement",
    "RecyclingCG",
    "ILUPreconditioner",
    "ReusedPreconditioner",
]
