"""Failure-injection tests: the library must fail loudly and honestly.

Every failure mode a user can plausibly hit — singular operators,
non-finite inputs, impossible configurations, bad spectra — must either
produce a correct error or an honest non-converged result, never a
silent wrong answer or a hang.
"""

import numpy as np
import pytest

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.distributed.partition import contiguous_partition
from repro.distributed.simcluster import DistributedGspmv
from repro.resilience import FaultPlan, FaultSpec, ResilientRunner, armed
from repro.resilience.faults import RankFailure
from repro.solvers.block_cg import block_conjugate_gradient
from repro.solvers.cg import conjugate_gradient
from repro.solvers.chol import CholeskySolver
from repro.solvers.refine import iterative_refinement
from repro.sparse.bcrs import BCRSMatrix
from repro.stokesian.brownian import BrownianForceGenerator
from repro.stokesian.chebyshev import ChebyshevSqrt
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.lubrication import pair_resistance_block
from repro.stokesian.packing import random_configuration, relax_overlaps
from repro.stokesian.particles import ParticleSystem
from tests.conftest import random_bcrs


class TestSolverFailures:
    def test_cg_singular_matrix_reports_nonconvergence(self):
        A = np.zeros((4, 4))
        res = conjugate_gradient(A, np.ones(4), max_iter=10)
        assert not res.converged

    def test_cg_indefinite_breakdown_is_flagged(self):
        A = np.diag([1.0, -1.0, 2.0])
        res = conjugate_gradient(A, np.array([1.0, 1.0, 1.0]), max_iter=50)
        assert not res.converged

    def test_cg_nan_rhs_terminates(self):
        """NaNs must not loop forever; the result reports failure."""
        A = np.eye(3)
        b = np.array([1.0, np.nan, 0.0])
        res = conjugate_gradient(A, b, max_iter=20)
        assert not res.converged or np.isnan(res.x).any()

    def test_block_cg_nan_block_terminates(self):
        A = np.eye(6)
        B = np.ones((6, 2))
        B[0, 0] = np.nan
        res = block_conjugate_gradient(A, B, max_iter=20)
        assert res.iterations <= 20

    def test_cholesky_rejects_indefinite_clearly(self):
        with pytest.raises(ValueError, match="positive definite"):
            CholeskySolver(np.diag([1.0, -2.0]))

    def test_refinement_with_garbage_inverse_stops_early(self):
        A = np.eye(5) * 2.0
        res = iterative_refinement(
            A, np.ones(5), lambda r: 100.0 * r, max_iter=1000
        )
        assert not res.converged
        assert res.iterations < 20  # divergence guard tripped


class TestPhysicsFailures:
    def test_coincident_particles_rejected_by_lubrication(self):
        with pytest.raises(ValueError, match="coincident"):
            pair_resistance_block(1.0, 1.0, np.zeros(3), cutoff_gap=1.0)

    def test_impossible_packing_raises_not_hangs(self):
        rng = np.random.default_rng(0)
        s = ParticleSystem(
            rng.uniform(0, 2.5, (12, 3)), np.full(12, 1.0), [2.5] * 3
        )
        with pytest.raises(RuntimeError, match="overlaps"):
            relax_overlaps(s, max_sweeps=30)

    def test_chebyshev_interval_missing_spectrum_gives_bad_accuracy(self):
        """Bounds that do not enclose the spectrum produce garbage —
        the generator must at least expose the approximation error so
        callers can detect the misuse."""
        A = random_bcrs(8, 3.0, seed=0, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        # Deliberately wrong interval (far below the true spectrum).
        gen = BrownianForceGenerator(
            A, bounds=(w.min() * 1e-3, w.min() * 1e-2), degree=10, rng=0
        )
        z = np.random.default_rng(1).standard_normal(A.n_rows)
        f = gen.generate(z)
        # Compare against the exact sqrt: the error is enormous, and
        # finite (no NaN/overflow for this mild mismatch)?  The honest
        # contract: output may be wrong, but sqrt_accuracy on the
        # *declared* interval remains the caller's verification tool.
        dense = A.to_dense()
        ww, V = np.linalg.eigh(dense)
        exact = (V * np.sqrt(ww)) @ V.T @ z
        rel = np.linalg.norm(f - exact) / np.linalg.norm(exact)
        assert rel > 0.5  # visibly wrong, not silently okay-looking

    def test_chebyshev_fit_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ChebyshevSqrt.fit(-1.0, 2.0)


class TestStructuralFailures:
    def test_bcrs_rejects_nan_free_but_preserves_values(self):
        """NaN blocks are stored (numerics is the caller's domain) but
        the product faithfully propagates them — no silent zeroing."""
        blocks = np.full((1, 3, 3), np.nan)
        A = BCRSMatrix(
            row_ptr=np.array([0, 1]),
            col_ind=np.array([0]),
            blocks=blocks,
            nb_cols=1,
        )
        y = A @ np.ones(3)
        assert np.isnan(y).all()

    def test_mismatched_operand_sizes_raise(self):
        A = random_bcrs(5, 2.0, seed=1)
        with pytest.raises(ValueError):
            A @ np.ones(7)

    def test_empty_block_coo_roundtrip(self):
        A = BCRSMatrix.from_block_coo(2, 2, [], [], np.zeros((0, 3, 3)))
        assert (A @ np.ones(6) == 0).all()


class TestDriverLevelFaults:
    """Injected faults against the full drivers: recovery, not silence."""

    def test_nan_forcing_triggers_retry_not_propagation(self):
        """A NaN Brownian force at one step must roll the step back and
        retry — NaN positions never survive into the trajectory."""
        system = random_configuration(24, 0.2, rng=0)
        sd = StokesianDynamics(system, SDParameters(), rng=1)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="brownian.forcing", kind="nan", at={"step": 1}
                ),
            )
        )
        report = ResilientRunner(sd, injector=plan).run_steps(3)
        assert report.retries == 1
        assert np.isfinite(sd.system.positions).all()

    def test_nan_forcing_without_runner_propagates_loudly(self):
        """The flip side: bare drivers do not hide the corruption —
        the NaN is visible in the positions, not silently scrubbed."""
        system = random_configuration(24, 0.2, rng=0)
        sd = StokesianDynamics(system, SDParameters(), rng=1)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="brownian.forcing", kind="nan", at={"step": 0}
                ),
            )
        )
        with armed(plan):
            sd.step()
        assert not np.isfinite(sd.system.positions).all()

    def test_block_breakdown_in_second_chunk_degrades_and_completes(self):
        """Repeated block-CG breakdown in chunk 2 of an MRHS run: the
        chunk degrades m -> m/2, the degradation is recorded, and the
        run completes with every step accounted for."""
        system = random_configuration(24, 0.2, rng=0)
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=4), rng=1
        )
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="mrhs.block_breakdown", at={"chunk": 1}, times=2
                ),
            )
        )
        report = ResilientRunner(driver, injector=plan).run_steps(12)
        assert report.steps_completed == 12
        assert (1, 2) in report.degradations
        degraded = driver.chunks[1]
        assert degraded.degradations == [2]
        assert len(degraded.steps) == 2
        assert sum(len(c.steps) for c in driver.chunks) == 12
        # Statistics stay coherent: each step carries its solve record.
        for chunk in driver.chunks:
            assert len(chunk.first_solve_iterations) == len(chunk.steps)

    def test_corrupted_boundary_block_detected_and_repaired(self):
        A = random_bcrs(24, 4.0, seed=3, spd=True)
        part = contiguous_partition(A, 3)
        X = np.random.default_rng(0).standard_normal((A.n_rows, 4))
        g = DistributedGspmv(A, part)
        clean = g.multiply(X)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="comm.exchange", kind="corrupt", at={"round": 0}
                ),
            ),
            seed=5,
        )
        with armed(plan):
            repaired = g.multiply(X)
        assert np.array_equal(repaired, clean)
        assert g.last_exchange["corrupted"] == [(0, 1, 0)]
        assert g.last_exchange["repaired"] == [(0, 1, 1)]

    def test_unrepairable_corruption_declares_rank_failed(self):
        A = random_bcrs(24, 4.0, seed=3, spd=True)
        part = contiguous_partition(A, 3)
        X = np.random.default_rng(0).standard_normal((A.n_rows, 2))
        g = DistributedGspmv(A, part)
        plan = FaultPlan(
            specs=(FaultSpec(site="comm.exchange", kind="zero", times=None),)
        )
        with armed(plan), pytest.raises(RankFailure) as err:
            g.multiply(X)
        # Every rank's copies from its boundary senders stayed corrupt.
        senders = {
            s for r in range(part.n_parts) for s in g.plan.recv_cols[r]
        }
        assert set(err.value.ranks) == senders
        assert g.last_exchange["failed"] == sorted(senders)
