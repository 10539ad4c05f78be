"""Tests for the shared solver robustness layer
(repro.solvers.diagnostics) and its integration across every solver
and the MRHS driver."""

import logging

import numpy as np
import pytest

from repro.solvers import (
    BreakdownEvent,
    CholeskySolver,
    ConvergenceMonitor,
    RecyclingCG,
    ReusedPreconditioner,
    SolveDiagnostics,
    block_conjugate_gradient,
    conjugate_gradient,
    iterative_refinement,
)


def spd(n=16, seed=0, log_cond=2.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.logspace(0, log_cond, n)) @ Q.T
    return 0.5 * (A + A.T)


class TestConvergenceMonitor:
    def test_history_and_iteration_count(self):
        mon = ConvergenceMonitor("test", [1e-8, 1e-8])
        mon.observe([1.0, 2.0])
        mon.observe([0.5, 1.0])
        assert mon.iteration == 1
        diag = mon.finalize(converged=False)
        assert len(diag.residual_history) == 2
        np.testing.assert_array_equal(diag.residual_history[0], [1.0, 2.0])

    def test_width_validation(self):
        mon = ConvergenceMonitor("test", [1e-8, 1e-8])
        with pytest.raises(ValueError, match="residual norms"):
            mon.observe([1.0])

    def test_stagnation_window(self):
        mon = ConvergenceMonitor("test", [1e-8], stagnation_window=3)
        mon.observe([1.0])
        for _ in range(3):
            mon.observe([1.0])  # no progress
        assert mon.stalled
        mon.record_restart("stagnation")
        assert not mon.stalled  # restart resets the window

    def test_progress_resets_stall(self):
        mon = ConvergenceMonitor("test", [1e-8], stagnation_window=3)
        mon.observe([1.0])
        mon.observe([1.0])
        mon.observe([0.01])  # big improvement
        mon.observe([0.009])
        assert not mon.stalled

    def test_events_and_finalize(self):
        mon = ConvergenceMonitor("test", [1e-8])
        mon.observe([1.0])
        mon.record_breakdown("alpha_singular", "detail")
        mon.record_restart("residual_drift")
        mon.count_matvec(3)
        diag = mon.finalize(converged=True, true_residual_norms=[1e-9])
        assert diag.breakdown
        assert diag.restarts == 1
        assert diag.matvecs == 3
        assert diag.breakdown_events[0] == BreakdownEvent(0, "alpha_singular", "detail")
        np.testing.assert_array_equal(diag.true_residual_norms, [1e-9])

    def test_amend_last(self):
        mon = ConvergenceMonitor("test", [1e-8])
        mon.observe([1.0])
        mon.amend_last([0.5])
        assert mon.history[-1][0] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor("t", [1.0], stagnation_window=0)
        with pytest.raises(ValueError):
            ConvergenceMonitor("t", [1.0], stagnation_improvement=1.5)


class TestSolveDiagnostics:
    def test_summary_mentions_state(self):
        mon = ConvergenceMonitor("block_cg", [1e-8])
        mon.observe([1.0])
        diag = mon.finalize(converged=True)
        s = diag.summary()
        assert "block_cg" in s and "converged" in s

    def test_column_history(self):
        mon = ConvergenceMonitor("t", [1e-8, 1e-8])
        mon.observe([1.0, 2.0])
        mon.observe([0.1, 0.2])
        diag = mon.finalize(converged=False)
        np.testing.assert_array_equal(diag.column_history(1), [2.0, 0.2])
        with pytest.raises(IndexError):
            diag.column_history(2)


class TestEverySolverReturnsDiagnostics:
    """The PR 1 acceptance contract: all solvers in repro.solvers
    expose a SolveDiagnostics with iterations, per-column residual
    history, restarts, and breakdown events."""

    def _check(self, diag, n_columns):
        assert isinstance(diag, SolveDiagnostics)
        assert diag.iterations >= 0
        assert diag.n_columns == n_columns
        assert len(diag.residual_history) == diag.iterations + 1
        assert all(len(r) == n_columns for r in diag.residual_history)
        assert diag.restarts == len(diag.restart_events)
        assert isinstance(diag.breakdown_events, tuple)

    def test_cg(self):
        A = spd()
        b = np.random.default_rng(1).standard_normal(16)
        res = conjugate_gradient(A, b, tol=1e-8)
        self._check(res.diagnostics, 1)
        assert res.diagnostics.converged == res.converged
        assert res.diagnostics.true_residual_norms is not None

    def test_block_cg(self):
        A = spd()
        B = np.random.default_rng(2).standard_normal((16, 4))
        res = block_conjugate_gradient(A, B, tol=1e-8)
        self._check(res.diagnostics, 4)

    def test_refinement(self):
        A = spd()
        b = np.random.default_rng(3).standard_normal(16)
        chol = CholeskySolver(A)
        res = iterative_refinement(1.05 * A, b, chol.solve, tol=1e-8)
        self._check(res.diagnostics, 1)

    def test_recycling_cg(self):
        A = spd()
        rng = np.random.default_rng(4)
        rec = RecyclingCG(basis_size=4)
        for _ in range(3):
            res = rec.solve(A, rng.standard_normal(16), tol=1e-8)
        self._check(res.diagnostics, 1)
        assert res.diagnostics.solver == "recycling_cg"

    def test_cholesky(self):
        A = spd()
        b = np.random.default_rng(5).standard_normal(16)
        x, diag = CholeskySolver(A).solve_diagnosed(b)
        assert isinstance(diag, SolveDiagnostics)
        assert diag.converged
        assert diag.iterations == 0
        np.testing.assert_allclose(A @ x, b, rtol=1e-8, atol=1e-8)
        assert diag.true_residual_norms[0] <= 1e-8 * np.linalg.norm(b)


class TestCGRobustness:
    def test_indefinite_operator_breakdown_event(self):
        A = -np.eye(8)
        b = np.ones(8)
        res = conjugate_gradient(A, b, tol=1e-8, max_iter=100)
        assert not res.converged
        assert res.diagnostics.breakdown
        assert res.diagnostics.breakdown_events[0].kind == "indefinite_operator"

    def test_converged_means_true_residual(self):
        A = spd(n=20, seed=9, log_cond=4.0)
        b = np.random.default_rng(10).standard_normal(20)
        res = conjugate_gradient(A, b, tol=1e-10, max_iter=10_000)
        assert res.converged
        assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_stops_at_first_non_finite_residual(self, bad):
        A = spd(n=20, seed=9)
        b = np.random.default_rng(10).standard_normal(20)
        b[3] = bad
        res = conjugate_gradient(
            A, b, x0=np.ones(20), tol=1e-8, max_iter=10_000
        )
        assert not res.converged
        assert res.iterations == 0
        (event,) = res.diagnostics.breakdown_events
        assert event.kind == "non_finite_residual"
        # No finite iterate is passed off as a solution.
        assert np.isnan(res.x).all()


class TestBlockCGNonFinite:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_column_is_not_converged(self, bad):
        A = spd(n=20, seed=9)
        B = np.random.default_rng(11).standard_normal((20, 3))
        B[5, 1] = bad
        res = block_conjugate_gradient(A, B, tol=1e-8, max_iter=1_000)
        assert not res.converged
        assert [e.kind for e in res.diagnostics.breakdown_events] == [
            "non_finite_residual"
        ]
        assert np.isnan(res.X[:, 1]).all()
        # The finite columns are still solved.
        for j in (0, 2):
            r = B[:, j] - A @ res.X[:, j]
            assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(B[:, j])


class TestRefinementRobustness:
    def test_divergence_surfaced(self):
        A = spd(n=10, seed=11)
        b = np.random.default_rng(12).standard_normal(10)
        chol = CholeskySolver(A)
        # Refining a matrix 5x away diverges: contraction factor 4 > 1.
        res = iterative_refinement(5.0 * A, b, chol.solve, tol=1e-10, max_iter=50)
        assert not res.converged
        assert res.diagnostics.breakdown
        kinds = {e.kind for e in res.diagnostics.breakdown_events}
        assert kinds & {"divergence", "stagnation"}


class TestReusedPreconditionerDiagnostics:
    def test_observe_accepts_result_and_rebuilds_on_breakdown(self):
        builds = []

        def factory(A):
            builds.append(1)
            return lambda v: v

        mgr = ReusedPreconditioner(factory)
        A = spd()
        mgr.get(A)
        # A healthy converged solve does not schedule a rebuild.
        good = conjugate_gradient(A, np.ones(16), tol=1e-8)
        mgr.observe(good)
        mgr.get(A)
        assert sum(builds) == 1
        # A broken-down solve forces a rebuild.
        bad = conjugate_gradient(-np.eye(16), np.ones(16), tol=1e-8, max_iter=10)
        mgr.observe(bad)
        mgr.get(A)
        assert sum(builds) == 2

    def test_observe_still_accepts_ints(self):
        mgr = ReusedPreconditioner(lambda A: (lambda v: v))
        mgr.get(spd())
        mgr.observe(10)
        mgr.observe(100)  # > 1.5x best -> rebuild
        mgr.get(spd())
        assert mgr.builds == 2


class TestMrhsDiagnosticsIntegration:
    @pytest.fixture(scope="class")
    def chunk(self):
        from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
        from repro.stokesian.dynamics import SDParameters
        from repro.stokesian.packing import random_configuration

        system = random_configuration(30, 0.35, rng=3)
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=4), rng=5
        )
        return driver.run_chunk()

    def test_chunk_carries_block_diagnostics(self, chunk):
        diag = chunk.block_diagnostics
        assert isinstance(diag, SolveDiagnostics)
        assert diag.solver == "block_cg"
        assert diag.n_columns == 4
        assert diag.converged == chunk.block_converged

    def test_steps_carry_solve_diagnostics(self, chunk):
        for s in chunk.steps:
            assert isinstance(s.diagnostics_first, SolveDiagnostics)
            assert isinstance(s.diagnostics_second, SolveDiagnostics)
            assert s.diagnostics_first.iterations == s.iterations_first
            assert s.diagnostics_second.iterations == s.iterations_second

    def test_healthy_chunk_needs_no_fallback(self, chunk):
        assert chunk.fallback_columns == []

    def test_per_step_logging_emitted(self, caplog):
        from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
        from repro.stokesian.dynamics import SDParameters
        from repro.stokesian.packing import random_configuration

        system = random_configuration(20, 0.3, rng=8)
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=2), rng=9
        )
        with caplog.at_level(logging.DEBUG, logger="repro.core.mrhs"):
            driver.run_chunk()
        step_lines = [r for r in caplog.records if "1st solve" in r.message]
        assert len(step_lines) == 2
        assert any("block solve" in r.message for r in caplog.records)
