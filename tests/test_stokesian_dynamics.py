"""Tests for integrators, the SD driver (Algorithm 1), and the BD baseline."""

import numpy as np
import pytest

from repro.stokesian.brownian_dynamics import BDParameters, BrownianDynamics
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.integrators import (
    apply_displacement,
    euler_update,
    overlap_safe_scale,
)
from repro.stokesian.neighbors import neighbor_pairs
from repro.stokesian.packing import random_configuration
from repro.stokesian.particles import ParticleSystem


@pytest.fixture(scope="module")
def small_system():
    return random_configuration(30, 0.3, rng=0)


class TestOverlapSafeScale:
    def test_full_step_when_safe(self, small_system):
        nl = neighbor_pairs(small_system, max_gap=float(small_system.radii.mean()))
        tiny = np.full((small_system.n, 3), 1e-9)
        assert overlap_safe_scale(small_system, tiny, nl) == 1.0

    def test_scales_down_big_steps(self, small_system):
        nl = neighbor_pairs(small_system, max_gap=float(small_system.radii.mean()))
        huge = np.random.default_rng(0).standard_normal((small_system.n, 3)) * 50.0
        s = overlap_safe_scale(small_system, huge, nl)
        assert 0 < s < 1.0

    def test_scaled_step_avoids_overlap(self, small_system):
        nl = neighbor_pairs(small_system, max_gap=float(small_system.radii.mean()))
        delta = np.random.default_rng(1).standard_normal((small_system.n, 3)) * 10.0
        moved, scale = apply_displacement(small_system, delta, nl, safety=0.5)
        # Only pairs known to the list are protected; verify those.
        gaps_after = [
            moved.surface_gap(int(i), int(j)) for i, j in zip(nl.i, nl.j)
        ]
        assert min(gaps_after) > 0

    def test_flat_delta_accepted(self, small_system):
        nl = neighbor_pairs(small_system, max_gap=1.0)
        s = overlap_safe_scale(small_system, np.zeros(small_system.dof), nl)
        assert s == 1.0

    def test_empty_neighbor_list(self):
        s = ParticleSystem([[5.0] * 3, [15.0] * 3], [1.0, 1.0], [30.0] * 3)
        nl = neighbor_pairs(s, cutoff=3.0)
        assert overlap_safe_scale(s, np.ones((2, 3)), nl) == 1.0

    def test_safety_validation(self, small_system):
        nl = neighbor_pairs(small_system, max_gap=1.0)
        with pytest.raises(ValueError):
            overlap_safe_scale(small_system, np.zeros(small_system.dof), nl, safety=0.0)


class TestEulerUpdate:
    def test_moves_by_dt_v(self):
        s = ParticleSystem([[5.0] * 3], [1.0], [20.0] * 3)
        out = euler_update(s, np.array([[1.0, 2.0, 3.0]]), dt=0.1)
        np.testing.assert_allclose(out.positions[0], [5.1, 5.2, 5.3])

    def test_dt_validation(self):
        s = ParticleSystem([[5.0] * 3], [1.0], [20.0] * 3)
        with pytest.raises(ValueError):
            euler_update(s, np.zeros((1, 3)), dt=0.0)


class TestSDParameters:
    def test_force_scale(self):
        p = SDParameters(dt=0.5, kT=2.0)
        assert p.force_scale == pytest.approx(np.sqrt(2 * 2.0 / 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            SDParameters(dt=0.0)
        with pytest.raises(ValueError):
            SDParameters(cheb_degree=0)
        with pytest.raises(ValueError):
            SDParameters(tol=2.0)


class TestStokesianDynamics:
    def test_single_step_advances(self, small_system):
        sd = StokesianDynamics(small_system, SDParameters(), rng=1)
        before = sd.system.positions.copy()
        rec = sd.step()
        assert rec.converged
        assert not np.allclose(sd.system.positions, before)
        assert sd.step_index == 1

    def test_no_overlap_after_steps(self, small_system):
        sd = StokesianDynamics(small_system, SDParameters(), rng=2)
        sd.run(3)
        assert sd.system.max_overlap() == 0.0

    def test_records_iterations_and_phases(self, small_system):
        sd = StokesianDynamics(small_system, SDParameters(), rng=3)
        rec = sd.step()
        assert rec.iterations_first > 0
        assert rec.iterations_second >= 0
        for phase in ("Construct R", "Cheb single", "1st solve", "2nd solve"):
            assert phase in rec.timings.phases

    def test_second_solve_cheaper_than_first(self, small_system):
        """The first solve's solution seeds the second: fewer iterations."""
        sd = StokesianDynamics(small_system, SDParameters(), rng=4)
        recs = sd.run(3)
        assert all(r.iterations_second <= r.iterations_first for r in recs)

    def test_guess_seeding_reduces_first_solve(self, small_system):
        """Passing a good u_guess (what MRHS provides) cuts iterations."""
        sd_a = StokesianDynamics(small_system, SDParameters(), rng=5)
        z = sd_a.draw_noise()
        rec_cold = sd_a.step(z=z)

        sd_b = StokesianDynamics(small_system, SDParameters(), rng=5)
        R = sd_b.build_matrix()
        f_b = sd_b.brownian_generator(R).generate(z)
        exact = sd_b.solve(R, -f_b).x
        rec_warm = sd_b.step(z=z, u_guess=exact)
        assert rec_warm.iterations_first < rec_cold.iterations_first
        assert rec_warm.guess_error is not None
        assert rec_warm.guess_error < 1e-4

    def test_deterministic_with_seed(self, small_system):
        a = StokesianDynamics(small_system, SDParameters(), rng=6)
        b = StokesianDynamics(small_system, SDParameters(), rng=6)
        a.run(2)
        b.run(2)
        np.testing.assert_allclose(a.system.positions, b.system.positions)

    def test_cholesky_brownian_method(self, small_system):
        params = SDParameters(brownian_method="cholesky")
        sd = StokesianDynamics(small_system, params, rng=7)
        rec = sd.step()
        assert rec.converged

    def test_preconditioned_run(self, small_system):
        params = SDParameters(precondition=True)
        sd = StokesianDynamics(small_system, params, rng=8)
        rec = sd.step()
        assert rec.converged

    def test_run_validation(self, small_system):
        sd = StokesianDynamics(small_system, SDParameters(), rng=9)
        with pytest.raises(ValueError):
            sd.run(-1)

    def test_history_accumulates(self, small_system):
        sd = StokesianDynamics(small_system, SDParameters(), rng=10)
        sd.run(2)
        assert len(sd.history) == 2
        assert [r.step_index for r in sd.history] == [0, 1]

    def test_skin_list_searches_once_and_matches_fresh_search(
        self, small_system, monkeypatch
    ):
        """Three steps search the tree once: every later configuration is
        filtered from the skin list, and each of its pair lists equals a
        fresh search byte for byte."""
        import repro.stokesian.neighbors as neighbors
        import repro.stokesian.resistance as resistance

        searched, compared = [], []

        def counting(system, **kw):
            searched.append(kw)
            return neighbor_pairs(system, **kw)

        filtered = neighbors.VerletList.pairs

        def checked(self, system, max_gap):
            nl = filtered(self, system, max_gap)
            fresh = neighbor_pairs(system, max_gap=max_gap)
            for name in ("i", "j", "r_vec", "dist"):
                assert getattr(nl, name).tobytes() == getattr(fresh, name).tobytes()
            compared.append(system)
            return nl

        monkeypatch.setattr(neighbors, "neighbor_pairs", counting)
        monkeypatch.setattr(resistance, "neighbor_pairs", counting)
        monkeypatch.setattr(neighbors.VerletList, "pairs", checked)
        sd = StokesianDynamics(small_system, SDParameters(), rng=11)
        sd.run(3)
        assert len(searched) == 1
        # r_k and r_{k+1/2} of each step, each filtered once.
        assert len(compared) == 6
        assert len({id(s) for s in compared}) == 6


class TestBrownianDynamics:
    def test_step_moves_particles(self):
        s = random_configuration(10, 0.1, rng=0)
        bd = BrownianDynamics(s, BDParameters(dt=0.1), rng=1)
        before = bd.system.positions.copy()
        bd.step()
        assert not np.allclose(bd.system.positions, before)

    def test_diffusion_scales_with_kT(self):
        """Hotter solvent diffuses faster (Einstein relation)."""
        s = random_configuration(12, 0.05, rng=2)
        msds = []
        for kT in (1.0, 4.0):
            bd = BrownianDynamics(s, BDParameters(dt=0.05, kT=kT), rng=3)
            bd.run(20)
            msds.append(bd.mean_squared_displacement())
        assert msds[1] > 2.0 * msds[0]

    def test_dilute_diffusion_constant(self):
        """For nearly isolated equal spheres, D -> kT / (6 pi mu a).
        Averaging MSD over many particles tames the chi-square noise of
        a single trajectory."""
        rng = np.random.default_rng(4)
        n = 48
        positions = rng.uniform(0, 400.0, size=(n, 3))
        s = ParticleSystem(positions, np.full(n, 1.0), [400.0] * 3)
        bd = BrownianDynamics(s, BDParameters(dt=0.5, kT=1.0), rng=4)
        bd.run(60)
        expected = 1.0 / (6 * np.pi)
        assert bd.diffusion_estimate() == pytest.approx(expected, rel=0.2)

    def test_deterministic_force_term(self):
        """A constant force drags the particle at M f per unit time."""
        s = ParticleSystem([[50.0] * 3], [1.0], [100.0] * 3)
        f = np.array([[600.0, 0.0, 0.0]])
        bd = BrownianDynamics(
            s, BDParameters(dt=0.01, kT=1e-12), forces=lambda sys_: f, rng=5
        )
        bd.run(10)
        drift = bd._unwrapped[0, 0] - 50.0
        expected = 600.0 / (6 * np.pi) * 0.1
        assert drift == pytest.approx(expected, rel=1e-3)

    def test_overlap_count_reports(self):
        s = random_configuration(10, 0.3, rng=6)
        bd = BrownianDynamics(s, BDParameters(dt=0.1), rng=7)
        assert bd.overlap_count() == 0

    def test_forces_shape_check(self):
        s = ParticleSystem([[5.0] * 3], [1.0], [20.0] * 3)
        bd = BrownianDynamics(
            s, BDParameters(), forces=lambda sys_: np.zeros((2, 3)), rng=8
        )
        with pytest.raises(ValueError):
            bd.step()

    def test_run_validation(self):
        s = ParticleSystem([[5.0] * 3], [1.0], [20.0] * 3)
        with pytest.raises(ValueError):
            BrownianDynamics(s, rng=0).run(-1)


class TestBDEwaldMobility:
    def test_ewald_mobility_option_runs(self):
        from repro.stokesian.particles import ParticleSystem

        s = ParticleSystem(
            [[3.0, 3.0, 3.0], [7.0, 7.0, 7.0]], [1.0, 1.0], [10.0] * 3
        )
        bd = BrownianDynamics(s, BDParameters(dt=0.05, mobility="ewald_rpy"), rng=0)
        before = bd.system.positions.copy()
        bd.step()
        assert not np.allclose(bd.system.positions, before)

    def test_invalid_mobility_rejected(self):
        with pytest.raises(ValueError, match="mobility"):
            BDParameters(mobility="magic")

    def test_ewald_diffuses_slower_in_small_box(self):
        """Periodic backflow lowers mobility: the Ewald-BD MSD in a tight
        box is below the (overestimating) minimum-image value."""
        from repro.stokesian.particles import ParticleSystem

        s = ParticleSystem([[5.0] * 3], [1.0], [8.0] * 3)
        msd = {}
        for mob in ("rpy", "ewald_rpy"):
            bd = BrownianDynamics(s, BDParameters(dt=0.2, mobility=mob), rng=7)
            bd.run(40)
            msd[mob] = bd.mean_squared_displacement()
        assert msd["ewald_rpy"] < msd["rpy"]
