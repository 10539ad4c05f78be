"""Tests for conjugate gradients (repro.solvers.cg)."""

import numpy as np
import pytest

from repro.solvers.cg import conjugate_gradient
from repro.solvers.precond import BlockJacobiPreconditioner
from tests.conftest import random_bcrs


def spd_system(nb=12, seed=0):
    A = random_bcrs(nb, 4.0, seed=seed, spd=True)
    rng = np.random.default_rng(seed + 100)
    x_true = rng.standard_normal(A.n_rows)
    return A, x_true, A @ x_true


class TestConjugateGradient:
    def test_solves_spd_system(self):
        A, x_true, b = spd_system()
        res = conjugate_gradient(A, b, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6, atol=1e-8)

    def test_matches_scipy(self):
        import scipy.sparse.linalg as spla

        from repro.sparse.convert import bcrs_to_scipy

        A, _, b = spd_system(seed=1)
        res = conjugate_gradient(A, b, tol=1e-10)
        x_ref, info = spla.cg(bcrs_to_scipy(A), b, rtol=1e-10)
        assert info == 0
        np.testing.assert_allclose(res.x, x_ref, rtol=1e-5, atol=1e-7)

    def test_residual_satisfies_tolerance(self):
        A, _, b = spd_system(seed=2)
        res = conjugate_gradient(A, b, tol=1e-8)
        assert np.linalg.norm(b - A @ res.x) <= 1e-8 * np.linalg.norm(b) * 1.01

    def test_good_initial_guess_reduces_iterations(self):
        """The core mechanism the MRHS algorithm exploits."""
        A, x_true, b = spd_system(nb=20, seed=3)
        cold = conjugate_gradient(A, b)
        rng = np.random.default_rng(0)
        warm_guess = x_true + 1e-4 * rng.standard_normal(len(x_true))
        warm = conjugate_gradient(A, b, x0=warm_guess)
        assert warm.iterations < cold.iterations

    def test_exact_guess_converges_immediately(self):
        A, x_true, b = spd_system(seed=4)
        res = conjugate_gradient(A, b, x0=x_true)
        assert res.converged
        assert res.iterations == 0

    def test_zero_rhs(self):
        A, _, _ = spd_system(seed=5)
        res = conjugate_gradient(A, np.zeros(A.n_rows))
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_max_iter_respected(self):
        A, _, b = spd_system(nb=20, seed=6)
        res = conjugate_gradient(A, b, max_iter=2, tol=1e-14)
        assert res.iterations == 2
        assert not res.converged

    def test_residual_history_recorded(self):
        A, _, b = spd_system(seed=7)
        res = conjugate_gradient(A, b)
        assert len(res.residual_norms) == res.iterations + 1
        assert res.final_residual == res.residual_norms[-1]

    def test_callback_invoked(self):
        A, _, b = spd_system(seed=8)
        seen = []
        conjugate_gradient(A, b, callback=lambda it, x: seen.append(it))
        assert seen == list(range(1, len(seen) + 1))

    def test_input_validation(self):
        A, _, b = spd_system(seed=9)
        with pytest.raises(ValueError, match="vector"):
            conjugate_gradient(A, np.ones((A.n_rows, 2)))
        with pytest.raises(ValueError, match="x0"):
            conjugate_gradient(A, b, x0=np.ones(3))
        with pytest.raises(ValueError, match="tol"):
            conjugate_gradient(A, b, tol=0.0)

    def test_indefinite_matrix_reports_failure(self):
        A = -np.eye(6)
        res = conjugate_gradient(A, np.ones(6), max_iter=10)
        assert not res.converged


class TestPreconditionedCG:
    def test_jacobi_reduces_iterations_on_illconditioned(self):
        """Scale-imbalanced SPD system: Jacobi should help CG."""
        rng = np.random.default_rng(10)
        n = 60
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        scales = np.logspace(0, 5, n)
        A = (Q * scales) @ Q.T
        A = 0.5 * (A + A.T)
        D_boost = np.diag(np.logspace(0, 4, n))
        A = A + D_boost  # strong diagonal variation for Jacobi to exploit
        b = rng.standard_normal(n)
        plain = conjugate_gradient(A, b, tol=1e-8, max_iter=2000)
        inv_diag = 1.0 / np.diag(A)
        pre = conjugate_gradient(
            A, b, tol=1e-8, max_iter=2000, preconditioner=lambda v: inv_diag * v
        )
        assert pre.iterations < plain.iterations

    def test_block_jacobi_on_bcrs(self):
        A, x_true, b = spd_system(nb=15, seed=11)
        M = BlockJacobiPreconditioner(A)
        res = conjugate_gradient(A, b, preconditioner=M, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-5, atol=1e-7)
