"""Tests for packing and neighbor search."""

import numpy as np
import pytest

import repro.stokesian.neighbors as neighbors
import repro.stokesian.packing as packing
from repro.stokesian.neighbors import SKIN, VerletList, neighbor_pairs
from repro.stokesian.packing import (
    box_edge_for_fraction,
    default_clearance,
    random_configuration,
    relax_overlaps,
)
from repro.stokesian.particles import ParticleSystem


class TestBoxEdge:
    def test_achieves_fraction(self):
        radii = np.array([1.0, 2.0, 0.5])
        edge = box_edge_for_fraction(radii, 0.3)
        vol = (4 / 3) * np.pi * np.sum(radii**3)
        assert vol / edge**3 == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            box_edge_for_fraction(np.ones(3), 0.9)


class TestDefaultClearance:
    def test_decreasing_with_crowding(self):
        cs = [default_clearance(phi) for phi in (0.1, 0.3, 0.5)]
        assert cs[0] > cs[1] > cs[2]

    def test_bounds(self):
        for phi in (0.05, 0.2, 0.6):
            assert 2e-4 <= default_clearance(phi) <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            default_clearance(0.7)


class TestRelaxOverlaps:
    def test_removes_overlaps(self):
        rng = np.random.default_rng(0)
        s = ParticleSystem(rng.uniform(0, 20, (30, 3)), np.full(30, 1.0), [20.0] * 3)
        out = relax_overlaps(s)
        assert out.max_overlap() <= 1e-6

    def test_no_op_when_clean(self):
        s = ParticleSystem(
            [[2.0, 2.0, 2.0], [8.0, 8.0, 8.0]], [1.0, 1.0], [12.0] * 3
        )
        out = relax_overlaps(s)
        np.testing.assert_allclose(out.positions, s.positions)

    def test_impossible_density_raises(self):
        # 9 unit spheres in a 2.2-box: far beyond close packing.
        rng = np.random.default_rng(1)
        s = ParticleSystem(rng.uniform(0, 2.2, (9, 3)), np.full(9, 1.0), [2.2] * 3)
        with pytest.raises(RuntimeError, match="overlaps"):
            relax_overlaps(s, max_sweeps=50)

    def test_push_factor_validation(self):
        s = ParticleSystem([[1.0] * 3], [0.5], [10.0] * 3)
        with pytest.raises(ValueError):
            relax_overlaps(s, push_factor=1.0)

    # The packings the benchmark workloads start from: sd_step,
    # solve_replay and the service_mix job specs.
    SPECS = [(1000, 0.3, 1), (1000, 0.3, 2), (2000, 0.4, 1)] + [
        (32, 0.3, seed) for seed in range(8, 24)
    ]

    def test_skin_list_relaxation_equals_fresh_search(self, monkeypatch):
        """Relaxing through the skin list gives the configuration a fresh
        overlap search every sweep gives, byte for byte."""
        skin = [random_configuration(n, phi, rng=seed) for n, phi, seed in self.SPECS]
        monkeypatch.setattr(
            neighbors.VerletList,
            "pairs",
            lambda self, system, max_gap: neighbor_pairs(system, max_gap=max_gap),
        )
        for spec, got in zip(self.SPECS, skin):
            want = random_configuration(spec[0], spec[1], rng=spec[2])
            assert got.positions.tobytes() == want.positions.tobytes(), spec


class TestRandomConfiguration:
    @pytest.mark.parametrize("phi", [0.1, 0.3, 0.5])
    def test_reaches_fraction_without_overlap(self, phi):
        s = random_configuration(40, phi, rng=0)
        assert s.volume_fraction == pytest.approx(phi, rel=1e-6)
        assert s.max_overlap() == 0.0

    def test_clearance_respected(self):
        s = random_configuration(30, 0.4, rng=1, clearance=0.05)
        nl = neighbor_pairs(s, max_gap=0.5 * float(s.radii.mean()))
        gaps = nl.dist - (s.radii[nl.i] + s.radii[nl.j])
        min_allowed = 0.05 * (s.radii[nl.i] + s.radii[nl.j]) * 0.99
        assert np.all(gaps >= np.minimum(min_allowed, gaps + 1))  # no overlap
        assert gaps.min() >= 0.0

    def test_custom_radii(self):
        radii = np.full(20, 2.0)
        s = random_configuration(20, 0.2, radii=radii, rng=2)
        np.testing.assert_array_equal(s.radii, radii)

    def test_radii_shape_check(self):
        with pytest.raises(ValueError):
            random_configuration(10, 0.2, radii=np.ones(5), rng=0)

    def test_deterministic(self):
        a = random_configuration(15, 0.2, rng=7)
        b = random_configuration(15, 0.2, rng=7)
        np.testing.assert_allclose(a.positions, b.positions)

    def test_jammed_placement_is_replaced(self, monkeypatch):
        # Three of the largest radii in a 9-sphere box at phi=0.5: the
        # first placement jams, a later one relaxes.
        with monkeypatch.context() as m:
            m.setattr(packing, "_PLACEMENTS", 1)
            with pytest.raises(RuntimeError, match="overlaps"):
                random_configuration(9, 0.5, rng=7989417)
        s = random_configuration(9, 0.5, rng=7989417)
        assert s.volume_fraction == pytest.approx(0.5, rel=1e-6)
        assert s.max_overlap() == 0.0
        b = random_configuration(9, 0.5, rng=7989417)
        assert b.positions.tobytes() == s.positions.tobytes()


class TestNeighborPairs:
    def test_requires_exactly_one_cutoff(self):
        s = random_configuration(10, 0.2, rng=0)
        with pytest.raises(ValueError):
            neighbor_pairs(s)
        with pytest.raises(ValueError):
            neighbor_pairs(s, max_gap=1.0, cutoff=1.0)

    def test_matches_brute_force_center_cutoff(self):
        s = random_configuration(60, 0.3, rng=3)
        cutoff = 2.5 * float(s.radii.mean())
        nl = neighbor_pairs(s, cutoff=cutoff)
        # Brute force reference.
        i, j = np.triu_indices(s.n, k=1)
        d = s.minimum_image(s.positions[j] - s.positions[i])
        dist = np.linalg.norm(d, axis=1)
        expected = set(zip(i[dist <= cutoff].tolist(), j[dist <= cutoff].tolist()))
        got = set(zip(nl.i.tolist(), nl.j.tolist()))
        assert got == expected

    def test_max_gap_filter(self):
        s = random_configuration(40, 0.3, rng=4)
        gap = 0.3 * float(s.radii.mean())
        nl = neighbor_pairs(s, max_gap=gap)
        gaps = nl.dist - (s.radii[nl.i] + s.radii[nl.j])
        assert np.all(gaps <= gap + 1e-12)

    def test_pairs_are_canonical(self):
        s = random_configuration(30, 0.3, rng=5)
        nl = neighbor_pairs(s, cutoff=2.0 * float(s.radii.mean()))
        assert np.all(nl.i < nl.j)
        # No duplicates.
        keys = nl.i.astype(np.int64) * s.n + nl.j
        assert len(np.unique(keys)) == len(keys)

    def test_r_vec_consistent_with_dist(self):
        s = random_configuration(30, 0.3, rng=6)
        nl = neighbor_pairs(s, cutoff=3.0 * float(s.radii.mean()))
        np.testing.assert_allclose(np.linalg.norm(nl.r_vec, axis=1), nl.dist)

    def test_small_box_fallback(self):
        """A box under 3 cutoffs per side is still searched exactly."""
        s = ParticleSystem(
            [[1.0, 1.0, 1.0], [3.0, 3.0, 3.0], [5.0, 1.0, 3.0]],
            [0.5, 0.5, 0.5],
            [6.0, 6.0, 6.0],
        )
        nl = neighbor_pairs(s, cutoff=2.5)
        # Brute-force reference on the same geometry.
        i, j = np.triu_indices(s.n, k=1)
        d = s.minimum_image(s.positions[j] - s.positions[i])
        expected = int(np.sum(np.linalg.norm(d, axis=1) <= 2.5))
        assert nl.n_pairs == expected

    def test_pair_exactly_at_cutoff_is_found(self):
        """``dist <= cutoff`` decides, with ``dist`` the minimum-image
        norm, even where the tree's own distance rounds above it."""
        rng = np.random.default_rng(0)
        box = np.array([17.3, 11.1, 23.7])
        for _ in range(50):
            s = ParticleSystem(rng.uniform(0, 1, (2, 3)) * box, [0.5, 0.5], box)
            d = s.minimum_image(s.positions[[1]] - s.positions[[0]])
            cutoff = float(np.linalg.norm(d, axis=1)[0])
            assert neighbor_pairs(s, cutoff=cutoff).n_pairs == 1

    def test_empty_result(self):
        s = ParticleSystem(
            [[1.0, 1.0, 1.0], [25.0, 25.0, 25.0]], [0.5, 0.5], [50.0] * 3
        )
        nl = neighbor_pairs(s, cutoff=2.0)
        assert nl.n_pairs == 0

    def test_cutoff_validation(self):
        s = random_configuration(5, 0.1, rng=0)
        with pytest.raises(ValueError):
            neighbor_pairs(s, cutoff=0.0)
        with pytest.raises(ValueError):
            neighbor_pairs(s, max_gap=-1.0)

    def test_periodic_pair_found_across_boundary(self):
        s = ParticleSystem(
            [[0.5, 10.0, 10.0], [19.5, 10.0, 10.0]], [0.4, 0.4], [20.0] * 3
        )
        nl = neighbor_pairs(s, cutoff=1.5)
        assert nl.n_pairs == 1
        assert nl.dist[0] == pytest.approx(1.0)


class TestVerletList:
    def _two(self, x1, radii=(0.5, 0.7)):
        return ParticleSystem([[5.0, 5.0, 5.0], [x1, 5.0, 5.0]], list(radii), [20.0] * 3)

    def test_pair_exactly_at_gap_is_kept(self):
        moved = self._two(6.31)
        gap = float(moved.positions[1, 0] - moved.positions[0, 0]) - 1.2
        nl = VerletList().pairs(moved, gap)
        assert nl.n_pairs == 1
        assert nl.dist.tobytes() == neighbor_pairs(moved, max_gap=gap).dist.tobytes()

    def test_reuses_candidates_within_half_skin(self):
        start = self._two(6.5)
        half_skin = 0.5 * SKIN * float(start.radii.mean())
        verlet = VerletList()
        verlet.pairs(start, 0.5)
        built = verlet._candidates
        verlet.pairs(self._two(6.5 + 0.9 * half_skin), 0.5)
        assert verlet._candidates is built
        verlet.pairs(self._two(6.5 + 1.1 * half_skin), 0.5)
        assert verlet._candidates is not built

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: (s, 0.6),
            lambda s: (ParticleSystem(s.positions, [0.5, 0.8], s.box), 0.5),
            lambda s: (ParticleSystem(s.positions, s.radii, [21.0] * 3), 0.5),
            lambda s: (ParticleSystem(s.positions[:1], s.radii[:1], s.box), 0.5),
        ],
        ids=["max_gap", "radii", "box", "n"],
    )
    def test_rebuilds_when_geometry_or_gap_changes(self, change):
        verlet = VerletList()
        verlet.pairs(self._two(6.5), 0.5)
        built = verlet._candidates
        system, gap = change(self._two(6.5))
        nl = verlet.pairs(system, gap)
        assert verlet._candidates is not built
        want = neighbor_pairs(system, max_gap=gap)
        assert nl.i.tobytes() == want.i.tobytes()
        assert nl.dist.tobytes() == want.dist.tobytes()

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            VerletList().pairs(self._two(6.5), -0.1)
