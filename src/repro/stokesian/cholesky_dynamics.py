"""The paper's small-problem SD path: one Cholesky factorization per step.

Section II.C: "Many SD implementations use a Cholesky factorization of
R for computing f^B and for solving the systems in steps 3 and 5.  An
important advantage of this is because the Cholesky factor computed for
step 2 can be reused for step 3.  A further optimization which we have
used ... is to solve the system in step 5 using the same Cholesky
factor combined with a simple iterative method, such as 'iterative
refinement'.  Combined with an initial guess which is the solution from
step 3, only a very small number of iterations are needed for
convergence.  Thus only one Cholesky factorization, rather than two, is
needed per time step."

:class:`CholeskyStokesianDynamics` implements exactly that pipeline:

    1. R_k = muF*I + Rlub(r_k);  factor once: R_k = L L^T
    2. f^B = scale * L z                       (exact Brownian force)
    3. u_k = L^-T L^-1 (-f^B)                  (direct solve, free reuse)
    4. midpoint configuration
    5. u_{k+1/2} from *iterative refinement* against R_{k+1/2} using the
       frozen factor of R_k and initial guess u_k
    6. final update

It is the reference implementation the iterative drivers are validated
against on small systems, and demonstrates why the approach dies at
scale (one dense factorization per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.solvers.chol import CholeskySolver
from repro.solvers.refine import iterative_refinement
from repro.stokesian.dynamics import SDParameters, _ConfigurationCache
from repro.stokesian.integrators import apply_displacement
from repro.stokesian.particles import ParticleSystem
from repro.util.rng import RngLike, as_rng
from repro.util.timer import Stopwatch, TimingRecord

__all__ = ["CholeskyStepRecord", "CholeskyStokesianDynamics"]


@dataclass(frozen=True)
class CholeskyStepRecord:
    """Outcome of one direct-path time step."""

    step_index: int
    refinement_iterations: int
    """Iterations of the step-5 refinement (paper: 'a very small
    number')."""
    refinement_converged: bool
    timings: TimingRecord
    factorizations: int
    """Cholesky factorizations performed this step (always 1: the
    paper's headline optimization)."""


class CholeskyStokesianDynamics:
    """Algorithm 1 with the direct (Cholesky) solver pipeline."""

    def __init__(
        self,
        system: ParticleSystem,
        params: SDParameters = SDParameters(),
        *,
        rng: RngLike = None,
    ) -> None:
        self.system = system
        self.params = params
        self.rng = as_rng(rng)
        self.step_index = 0
        self.history: List[CholeskyStepRecord] = []
        self._configs = _ConfigurationCache()

    # ------------------------------------------------------------------
    def build_matrix(self, system: Optional[ParticleSystem] = None):
        sys_ = system if system is not None else self.system
        return self._configs.get(sys_, self.params)[1]

    def step(self, *, z: Optional[np.ndarray] = None) -> CholeskyStepRecord:
        """Advance one time step; exactly one Cholesky factorization."""
        p = self.params
        sw = Stopwatch()
        if z is None:
            z = self.rng.standard_normal(self.system.dof)

        with sw.phase("Construct R"):
            # One pair list serves R_k and both displacements.
            nl, R_k = self._configs.get(self.system, p)
        with sw.phase("Factor"):
            chol = CholeskySolver(R_k)
        with sw.phase("Brownian (exact)"):
            f_b = p.force_scale * chol.sample_correlated(z=z)
        with sw.phase("1st solve (direct)"):
            u_k = chol.solve(-f_b)

        half_system, _ = apply_displacement(
            self.system, 0.5 * p.dt * u_k, nl, safety=p.overlap_safety
        )
        with sw.phase("Construct R half"):
            _, R_half = self._configs.get(half_system, p)
        with sw.phase("2nd solve (refinement)"):
            # The frozen factor of R_k approximates R_{k+1/2}^{-1}; the
            # first solve's solution is the initial guess.
            refined = iterative_refinement(R_half, -f_b, chol.solve, x0=u_k, tol=p.tol)

        self.system, _ = apply_displacement(
            self.system, p.dt * refined.x, nl, safety=p.overlap_safety
        )
        record = CholeskyStepRecord(
            step_index=self.step_index,
            refinement_iterations=refined.iterations,
            refinement_converged=refined.converged,
            timings=sw.record(),
            factorizations=1,
        )
        self.step_index += 1
        self.history.append(record)
        return record

    def run(self, n_steps: int) -> List[CholeskyStepRecord]:
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        return [self.step() for _ in range(n_steps)]
