"""Tests for repro.stokesian.particles."""

import numpy as np
import pytest

from repro.stokesian.particles import (
    ECOLI_RADII_ANGSTROM,
    ECOLI_RADII_FRACTIONS,
    ParticleSystem,
    sample_ecoli_radii,
)


def simple_system():
    return ParticleSystem(
        positions=[[1.0, 1.0, 1.0], [3.0, 1.0, 1.0]],
        radii=[0.5, 0.5],
        box=[10.0, 10.0, 10.0],
    )


class TestEcoliDistribution:
    def test_table_iv_sums_to_one(self):
        assert ECOLI_RADII_FRACTIONS.sum() == pytest.approx(1.0, abs=1e-3)

    def test_fifteen_species(self):
        assert len(ECOLI_RADII_ANGSTROM) == 15
        assert len(ECOLI_RADII_FRACTIONS) == 15

    def test_radii_descending(self):
        assert np.all(np.diff(ECOLI_RADII_ANGSTROM) < 0)

    def test_sample_values_from_table(self):
        radii = sample_ecoli_radii(100, rng=0)
        assert set(radii.tolist()) <= set(ECOLI_RADII_ANGSTROM.tolist())

    def test_sample_distribution_matches(self):
        """The most common species (27.77 A at 26%) dominates samples."""
        radii = sample_ecoli_radii(20000, rng=1)
        frac = np.mean(radii == 27.77)
        assert frac == pytest.approx(0.2597, abs=0.02)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            sample_ecoli_radii(0)


class TestParticleSystem:
    def test_basic_properties(self):
        s = simple_system()
        assert s.n == 2
        assert s.dof == 6
        assert s.volume == pytest.approx(1000.0)
        expected_phi = 2 * (4 / 3) * np.pi * 0.125 / 1000.0
        assert s.volume_fraction == pytest.approx(expected_phi)

    def test_positions_wrapped(self):
        s = ParticleSystem([[11.0, -1.0, 5.0]], [1.0], [10.0, 10.0, 10.0])
        np.testing.assert_allclose(s.positions[0], [1.0, 9.0, 5.0])

    def test_tiny_negative_coordinate_wraps_below_box(self):
        # np.mod(-1e-20, 10.0) rounds to exactly 10.0.
        s = ParticleSystem([[-1e-20, 0.0, -1e-300]], [1.0], [10.0, 10.0, 10.0])
        assert np.all(s.positions >= 0.0)
        assert np.all(s.positions < s.box)
        np.testing.assert_array_equal(s.positions[0], [0.0, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="positions"):
            ParticleSystem(np.zeros((2, 2)), [1.0, 1.0], [10.0] * 3)
        with pytest.raises(ValueError, match="radii"):
            ParticleSystem(np.zeros((2, 3)), [1.0], [10.0] * 3)
        with pytest.raises(ValueError, match="box"):
            ParticleSystem(np.zeros((1, 3)), [1.0], [10.0, -1.0, 10.0])
        with pytest.raises(ValueError, match="radii"):
            ParticleSystem(np.zeros((1, 3)), [0.0], [10.0] * 3)
        with pytest.raises(ValueError, match="diameter"):
            ParticleSystem(np.zeros((1, 3)), [6.0], [10.0] * 3)

    def test_minimum_image(self):
        s = simple_system()
        d = s.minimum_image(np.array([9.0, 0.0, 0.0]))
        np.testing.assert_allclose(d, [-1.0, 0.0, 0.0])

    def test_pair_vector_across_boundary(self):
        s = ParticleSystem(
            [[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]], [0.4, 0.4], [10.0] * 3
        )
        np.testing.assert_allclose(s.pair_vector(0, 1), [-1.0, 0.0, 0.0])

    def test_surface_gap(self):
        s = simple_system()
        assert s.surface_gap(0, 1) == pytest.approx(1.0)

    def test_surface_gap_negative_when_overlapping(self):
        s = ParticleSystem(
            [[1.0, 1.0, 1.0], [1.5, 1.0, 1.0]], [0.5, 0.5], [10.0] * 3
        )
        assert s.surface_gap(0, 1) == pytest.approx(-0.5)

    def test_displaced_flat_and_2d(self):
        s = simple_system()
        d2 = s.displaced(np.full((2, 3), 0.5))
        d1 = s.displaced(np.full(6, 0.5))
        np.testing.assert_allclose(d2.positions, d1.positions)
        np.testing.assert_allclose(d2.positions[0], [1.5, 1.5, 1.5])

    def test_displaced_wraps(self):
        s = simple_system()
        out = s.displaced(np.array([[9.5, 0, 0], [0, 0, 0]]))
        np.testing.assert_allclose(out.positions[0], [0.5, 1.0, 1.0])

    def test_displaced_shape_check(self):
        with pytest.raises(ValueError):
            simple_system().displaced(np.zeros(5))

    def test_max_overlap_zero_when_separated(self):
        assert simple_system().max_overlap() == 0.0

    def test_max_overlap_positive(self):
        s = ParticleSystem(
            [[1.0, 1.0, 1.0], [1.2, 1.0, 1.0]], [0.5, 0.5], [10.0] * 3
        )
        assert s.max_overlap() == pytest.approx(0.8)

    def test_with_positions(self):
        s = simple_system()
        out = s.with_positions(s.positions + 1.0)
        assert out.n == 2
        np.testing.assert_allclose(out.radii, s.radii)
