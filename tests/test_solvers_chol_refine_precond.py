"""Tests for Cholesky, iterative refinement, and preconditioners."""

import numpy as np
import pytest

from repro.solvers.chol import CholeskySolver
from repro.solvers.precond import BlockJacobiPreconditioner
from repro.solvers.refine import iterative_refinement


def spd_dense(n=18, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


class TestCholeskySolver:
    def test_solve_vector(self):
        A = spd_dense()
        solver = CholeskySolver(A)
        b = np.arange(18, dtype=float)
        np.testing.assert_allclose(solver.solve(b), np.linalg.solve(A, b), rtol=1e-9)

    def test_solve_multivector(self):
        A = spd_dense(seed=1)
        solver = CholeskySolver(A)
        B = np.random.default_rng(0).standard_normal((18, 4))
        np.testing.assert_allclose(solver.solve(B), np.linalg.solve(A, B), rtol=1e-9)

    def test_accepts_bcrs(self, spd_bcrs):
        solver = CholeskySolver(spd_bcrs)
        b = np.ones(spd_bcrs.n_rows)
        x = solver.solve(b)
        np.testing.assert_allclose(spd_bcrs @ x, b, rtol=1e-8, atol=1e-10)

    def test_accepts_scipy(self, spd_bcrs):
        from repro.sparse.convert import bcrs_to_scipy

        solver = CholeskySolver(bcrs_to_scipy(spd_bcrs))
        b = np.ones(spd_bcrs.n_rows)
        np.testing.assert_allclose(spd_bcrs @ solver.solve(b), b, rtol=1e-8, atol=1e-10)

    def test_factor_reconstructs_matrix(self):
        A = spd_dense(seed=2)
        L = CholeskySolver(A).lower
        np.testing.assert_allclose(L @ L.T, A, rtol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            CholeskySolver(-np.eye(4))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            CholeskySolver(np.ones((3, 4)))

    def test_sample_correlated_covariance(self):
        """E[(Lz)(Lz)^T] = A: verify empirically on many samples."""
        A = spd_dense(n=6, seed=3)
        solver = CholeskySolver(A)
        samples = solver.sample_correlated(rng=0, m=20000)
        cov = samples @ samples.T / 20000
        np.testing.assert_allclose(cov, A, rtol=0.2, atol=0.5)

    def test_sample_with_given_z(self):
        A = spd_dense(n=5, seed=4)
        solver = CholeskySolver(A)
        z = np.ones(5)
        np.testing.assert_allclose(solver.sample_correlated(z=z), solver.lower @ z)

    def test_solve_shape_check(self):
        solver = CholeskySolver(spd_dense())
        with pytest.raises(ValueError):
            solver.solve(np.ones(5))


class TestIterativeRefinement:
    def test_exact_inverse_converges_in_one(self):
        A = spd_dense(seed=5)
        solver = CholeskySolver(A)
        b = np.ones(18)
        res = iterative_refinement(A, b, solver.solve)
        assert res.converged
        assert res.iterations <= 2
        np.testing.assert_allclose(A @ res.x, b, rtol=1e-6)

    def test_nearby_matrix_factor(self):
        """The paper's trick: refine R_{k+1/2} solves with R_k's factor."""
        A = spd_dense(seed=6)
        A_perturbed = A + 1e-3 * np.diag(np.arange(18.0))
        solver = CholeskySolver(A)
        b = np.random.default_rng(1).standard_normal(18)
        res = iterative_refinement(A_perturbed, b, solver.solve)
        assert res.converged
        assert res.iterations < 10
        np.testing.assert_allclose(
            A_perturbed @ res.x, b, rtol=1e-5, atol=1e-6
        )

    def test_good_x0_reduces_iterations(self):
        A = spd_dense(seed=7)
        A_pert = A + 0.15 * np.eye(18)
        solver = CholeskySolver(A)
        b = np.random.default_rng(2).standard_normal(18)
        cold = iterative_refinement(A_pert, b, solver.solve)
        x_near = np.linalg.solve(A_pert, b) * (1 + 1e-9)
        warm = iterative_refinement(A_pert, b, solver.solve, x0=x_near)
        assert warm.iterations <= cold.iterations
        assert warm.iterations == 0

    def test_divergence_guard(self):
        """A terrible 'inverse' must not loop to max_iter silently."""
        A = spd_dense(seed=8)
        res = iterative_refinement(
            A, np.ones(18), lambda r: -10.0 * r, max_iter=50
        )
        assert not res.converged
        assert res.iterations < 50

    def test_validation(self):
        A = spd_dense(seed=9)
        with pytest.raises(ValueError):
            iterative_refinement(A, np.ones((18, 2)), lambda r: r)
        with pytest.raises(ValueError):
            iterative_refinement(A, np.ones(18), lambda r: r, x0=np.ones(3))
        with pytest.raises(ValueError):
            iterative_refinement(A, np.ones(18), lambda r: r, tol=0.0)


class TestPreconditioners:
    def test_block_jacobi_exact_on_block_diagonal(self):
        """On a block-diagonal matrix, block Jacobi IS the inverse."""
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((6, 3, 3))
        blocks = np.einsum("kij,klj->kil", blocks, blocks) + 3 * np.eye(3)
        from repro.sparse.bcrs import BCRSMatrix

        A = BCRSMatrix(
            row_ptr=np.arange(7),
            col_ind=np.arange(6),
            blocks=blocks,
            nb_cols=6,
        )
        M = BlockJacobiPreconditioner(A)
        v = rng.standard_normal(18)
        np.testing.assert_allclose(A @ M(v), v, rtol=1e-10)

    def test_block_jacobi_singular_block_fallback(self):
        from repro.sparse.bcrs import BCRSMatrix

        A = BCRSMatrix(
            row_ptr=np.array([0, 1]),
            col_ind=np.array([0]),
            blocks=np.zeros((1, 3, 3)),
            nb_cols=1,
        )
        M = BlockJacobiPreconditioner(A)
        v = np.arange(3.0)
        np.testing.assert_allclose(M(v), v)  # identity fallback

    def test_block_jacobi_multivector(self, spd_bcrs):
        M = BlockJacobiPreconditioner(spd_bcrs)
        V = np.random.default_rng(4).standard_normal((spd_bcrs.n_rows, 2))
        out = M(V)
        np.testing.assert_allclose(out[:, 1], M(V[:, 1]))
