"""Tests for the MRHS algorithm (repro.core.mrhs) — the paper's contribution."""

import numpy as np
import pytest

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration


@pytest.fixture(scope="module")
def system():
    return random_configuration(40, 0.4, rng=0)


@pytest.fixture(scope="module")
def mrhs_run(system):
    driver = MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=6), rng=1
    )
    driver.run(2)
    return driver


class TestMrhsParameters:
    def test_defaults(self):
        p = MrhsParameters()
        assert p.m == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            MrhsParameters(m=0)

    def test_state_ignores_legacy_block_tol(self, mrhs_run):
        """Checkpoints from before ``block_tol`` was removed carry the
        key (always ``None``); restoring one still works."""
        state = mrhs_run.get_state()
        assert "block_tol" not in state
        restored = MrhsStokesianDynamics(
            random_configuration(40, 0.4, rng=0), SDParameters(),
            MrhsParameters(m=2), rng=1,
        )
        restored.set_state({**state, "block_tol": None})
        assert restored.mrhs == MrhsParameters(m=6)


class TestChunkStructure:
    def test_chunk_advances_m_steps(self, system):
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=4), rng=2
        )
        before = driver.system.positions.copy()
        chunk = driver.run_chunk()
        assert len(chunk.steps) == 4
        assert driver.sd.step_index == 4
        assert not np.allclose(driver.system.positions, before)

    def test_block_solve_converged(self, mrhs_run):
        assert all(c.block_converged for c in mrhs_run.chunks)

    def test_block_gspmv_calls_counted(self, mrhs_run):
        for c in mrhs_run.chunks:
            assert c.block_gspmv_calls == c.block_iterations + 1

    def test_chunk_phases_present(self, mrhs_run):
        c = mrhs_run.chunks[0]
        for phase in ("Construct R0", "Cheb vectors", "Calc guesses"):
            assert phase in c.chunk_timings.phases

    def test_step_records_ordering(self, mrhs_run):
        recs = mrhs_run.step_records()
        assert [r.step_index for r in recs] == list(range(12))

    def test_run_validation(self, system):
        driver = MrhsStokesianDynamics(system, rng=0)
        with pytest.raises(ValueError):
            driver.run(-1)


class TestGuessQuality:
    def test_first_step_guess_is_solution(self, mrhs_run):
        """Column 0 of the augmented solve IS step 0's solution: its
        in-step solve starts converged (<= 2 iterations)."""
        for c in mrhs_run.chunks:
            assert c.steps[0].iterations_first <= 2
            assert c.guess_errors[0] is not None
            assert c.guess_errors[0] < 1e-4

    def test_guess_error_grows_with_step(self, mrhs_run):
        """The Figure 5 behaviour: the guess degrades as the
        configuration diffuses away from the chunk start."""
        for c in mrhs_run.chunks:
            errs = [e for e in c.guess_errors if e is not None]
            assert errs[-1] > errs[0]
            # And stays small over a chunk (slow sqrt growth).
            assert max(errs) < 0.5

    def test_iterations_grow_within_chunk(self, mrhs_run):
        """Later in-chunk steps need (weakly) more iterations."""
        for c in mrhs_run.chunks:
            its = c.first_solve_iterations
            assert its[0] <= its[-1]

    def test_guesses_beat_no_guesses(self, system):
        """The headline mechanism: guessed first solves take fewer
        iterations than unguessed ones on the same noise."""
        m = 6
        mrhs = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=m), rng=7
        )
        mrhs.run(1)
        orig = StokesianDynamics(system, SDParameters(), rng=7)
        orig.run(m)
        mean_with = np.mean(
            [s.iterations_first for s in mrhs.chunks[0].steps[1:]]
        )
        mean_without = np.mean(
            [s.iterations_first for s in orig.history[1:]]
        )
        assert mean_with < 0.8 * mean_without


class TestEquivalence:
    def test_same_noise_same_physics(self, system):
        """MRHS changes only initial guesses; with tight tolerances its
        trajectory matches the original algorithm's."""
        params = SDParameters(tol=1e-10)
        m = 4
        mrhs = MrhsStokesianDynamics(
            system, params, MrhsParameters(m=m), rng=11
        )
        mrhs.run(1)
        orig = StokesianDynamics(system, params, rng=11)
        orig.run(m)
        np.testing.assert_allclose(
            mrhs.system.positions, orig.system.positions, rtol=1e-6, atol=1e-6
        )

    def test_m1_reduces_to_per_step_block_solve(self, system):
        """m=1 is the degenerate chunk: still valid, one step per chunk."""
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=1), rng=12
        )
        chunk = driver.run_chunk()
        assert len(chunk.steps) == 1
        assert chunk.steps[0].iterations_first <= 2


class TestAccounting:
    def test_average_step_time_positive(self, mrhs_run):
        assert mrhs_run.average_step_time() > 0

    def test_chunk_average_consistent(self, mrhs_run):
        c = mrhs_run.chunks[0]
        assert c.average_step_time() == pytest.approx(c.total_time() / c.m)

    def test_empty_driver_time_zero(self, system):
        assert MrhsStokesianDynamics(system, rng=0).average_step_time() == 0.0

    def test_solve_auxiliary_component(self, system):
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=3), rng=13
        )
        R0 = driver.sd.build_matrix()
        Z = driver.sd.draw_noise(3)
        F_B, block, U = driver.solve_auxiliary(R0, Z)
        assert F_B.shape == U.shape == (system.dof, 3)
        assert block.converged
        # The guesses really solve the auxiliary system.
        resid = np.linalg.norm(-F_B - R0 @ U, axis=0)
        assert np.all(resid <= 1e-5 * np.linalg.norm(F_B, axis=0))


class TestSkinListTrajectory:
    def test_byte_identical_to_fresh_search_each_configuration(self, monkeypatch):
        """Three MRHS chunks (m=8), two AutoMrhs chunks (m=4) and 24
        original steps at n=1000, phi=0.3 end where the same runs end
        when every configuration's pairs come from a fresh search, and
        when the configuration cache is bypassed, every build fresh."""
        from repro.core.auto import AutoMrhsStokesianDynamics
        from repro.core.schedule import FixedM
        from repro.stokesian.dynamics import _ConfigurationCache
        from repro.stokesian.neighbors import VerletList, neighbor_pairs

        start = random_configuration(1000, 0.3, rng=1)

        def run():
            mrhs = MrhsStokesianDynamics(
                start, SDParameters(), MrhsParameters(m=8), rng=2
            )
            mrhs.run(3)
            auto = AutoMrhsStokesianDynamics(
                start, SDParameters(), policy=FixedM(4), rng=2
            )
            auto.run(2)
            orig = StokesianDynamics(start, SDParameters(), rng=2)
            orig.run(24)
            chunks = mrhs.chunks + auto.chunks
            steps = [s for c in chunks for s in c.steps] + orig.history
            iters = [c.block_iterations for c in chunks] + [
                (s.iterations_first, s.iterations_second) for s in steps
            ]
            ends = [d.system.positions.tobytes() for d in (mrhs, auto, orig)]
            return ends, iters

        cached = run()
        with monkeypatch.context() as m:
            m.setattr(
                VerletList, "pairs",
                lambda self, system, max_gap: neighbor_pairs(system, max_gap=max_gap),
            )
            fresh_search = run()
        get = _ConfigurationCache.get

        def bypassed(self, system, params):
            self.key = None
            return get(self, system, params)

        with monkeypatch.context() as m:
            m.setattr(_ConfigurationCache, "get", bypassed)
            every_build_fresh = run()
        assert fresh_search == cached
        assert every_build_fresh == cached
