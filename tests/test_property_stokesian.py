"""Property-based tests (hypothesis) for the Stokesian dynamics substrate."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.stokesian.chebyshev import ChebyshevSqrt
from repro.stokesian.lubrication import pair_resistance_block
from repro.stokesian.neighbors import SKIN, VerletList, neighbor_pairs
from repro.stokesian.particles import ParticleSystem
from repro.stokesian.resistance import build_resistance_matrix, far_field_viscosity


@st.composite
def particle_systems(draw, max_n=12):
    """Random small non-overlap-free systems (overlap allowed: the
    resistance assembly must regularize, never crash)."""
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.5, 2.0, n)
    box = float(6.0 * radii.max() + n)
    positions = rng.uniform(0, box, (n, 3))
    system = ParticleSystem(positions, radii, [box] * 3)
    # Exclude coincident centers (physically impossible; assembly raises).
    i, j = np.triu_indices(n, k=1)
    d = np.linalg.norm(
        system.minimum_image(system.positions[j] - system.positions[i]), axis=1
    )
    assume(np.all(d > 1e-6))
    return system


class TestResistanceProperties:
    @settings(max_examples=40, deadline=None)
    @given(system=particle_systems())
    def test_always_spd(self, system):
        """R = muF I + Rlub is SPD for any configuration (overlaps are
        gap-regularized)."""
        R = build_resistance_matrix(system)
        dense = R.to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-9)
        w = np.linalg.eigvalsh(dense)
        assert w.min() > 0

    @settings(max_examples=40, deadline=None)
    @given(system=particle_systems(), seed=st.integers(0, 999))
    def test_rigid_translation_null_space_of_lubrication(self, system, seed):
        """Any uniform translation feels only the diagonal drag."""
        R = build_resistance_matrix(system, mu_far_field=1.0)
        u_dir = np.random.default_rng(seed).standard_normal(3)
        u = np.tile(u_dir, system.n)
        f = R @ u
        expected = np.repeat(6 * np.pi * system.radii, 3) * np.tile(
            u_dir, system.n
        )
        np.testing.assert_allclose(f, expected, rtol=1e-8, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(system=particle_systems(), factor=st.floats(1.2, 3.0))
    def test_cutoff_monotone_density(self, system, factor):
        mean_r = float(system.radii.mean())
        small = build_resistance_matrix(system, cutoff_gap=mean_r)
        large = build_resistance_matrix(system, cutoff_gap=factor * mean_r)
        assert large.nnzb >= small.nnzb

    @settings(max_examples=20, deadline=None)
    @given(phi=st.floats(0.01, 0.6))
    def test_far_field_viscosity_bounds(self, phi):
        muF = far_field_viscosity(phi)
        assert muF >= 1.0
        assert muF <= 1.0 + 2.5 * 0.6 + 5.2 * 0.36 + 1e-9


class TestLubricationProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(0.3, 3.0),
        beta=st.floats(0.2, 5.0),
        gap_frac=st.floats(1e-4, 0.5),
        seed=st.integers(0, 999),
    )
    def test_swap_symmetry(self, a, beta, gap_frac, seed):
        """Physics does not care which sphere is 'first': swapping the
        pair (and flipping the center vector) preserves the tensor."""
        b = a * beta
        gap = gap_frac * (a + b)
        u = np.random.default_rng(seed).standard_normal(3)
        u /= np.linalg.norm(u)
        r = (a + b + gap) * u
        cut = 0.6 * (a + b)
        A_ab = pair_resistance_block(a, b, r, cutoff_gap=cut)
        A_ba = pair_resistance_block(b, a, -r, cutoff_gap=cut)
        np.testing.assert_allclose(A_ab, A_ba, rtol=1e-9, atol=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(0.3, 3.0),
        gap1=st.floats(1e-3, 0.1),
        gap2=st.floats(0.1, 0.5),
    )
    def test_monotone_in_gap(self, a, gap1, gap2):
        """Closer pairs resist harder (squeeze eigenvalue)."""
        assume(gap2 > gap1 * 1.5)
        cut = 1.5 * a
        r1 = np.array([2 * a + gap1 * a, 0, 0])
        r2 = np.array([2 * a + gap2 * a, 0, 0])
        A1 = pair_resistance_block(a, a, r1, cutoff_gap=cut)
        A2 = pair_resistance_block(a, a, r2, cutoff_gap=cut)
        assert A1[0, 0] >= A2[0, 0] - 1e-12


class TestNeighborProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        system=particle_systems(),
        factor=st.floats(0.5, 3.0),
        nan_row=st.one_of(st.none(), st.integers(0, 11)),
    )
    def test_cell_list_equals_brute_force(self, system, factor, nan_row):
        """Exactly the brute-force pair set, ``i < j`` in lexsorted
        order; a particle with a NaN coordinate pairs with nothing."""
        if nan_row is not None:
            nan_row %= system.n
            positions = system.positions.copy()
            positions[nan_row, nan_row % 3] = np.nan
            system = ParticleSystem(positions, system.radii, system.box)
        cutoff = factor * float(system.radii.mean()) * 2
        nl = neighbor_pairs(system, cutoff=cutoff)
        i, j = np.triu_indices(system.n, k=1)
        d = np.linalg.norm(
            system.minimum_image(system.positions[j] - system.positions[i]),
            axis=1,
        )
        expected = set(zip(i[d <= cutoff].tolist(), j[d <= cutoff].tolist()))
        got = set(zip(nl.i.tolist(), nl.j.tolist()))
        assert got == expected
        assert np.all(nl.i < nl.j)
        np.testing.assert_array_equal(np.lexsort((nl.j, nl.i)), np.arange(nl.n_pairs))
        if nan_row is not None:
            assert nan_row not in nl.i and nan_row not in nl.j


def _assert_same_pairs(got, want):
    for name in ("i", "j", "r_vec", "dist"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


class TestVerletListProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        system=particle_systems(),
        max_gap=st.floats(0.0, 3.0),
        walk=st.lists(
            st.tuples(
                st.integers(0, 2**31 - 1),
                # Largest move over skin/2, kept off the boundary itself.
                st.one_of(st.floats(0.0, 0.95), st.floats(1.05, 4.0)),
                st.one_of(st.none(), st.integers(0, 11)),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_equals_fresh_search_byte_for_byte(self, system, max_gap, walk):
        """Along a random walk of polydisperse configurations, with moves
        below and above skin/2 and NaN rows, the skin list's pairs equal
        ``neighbor_pairs`` in all four arrays.  It keeps its candidates
        while every particle is within skin/2 of where they were searched
        and searches again otherwise."""
        half_skin = 0.5 * SKIN * float(system.radii.mean())
        verlet = VerletList()
        _assert_same_pairs(
            verlet.pairs(system, max_gap), neighbor_pairs(system, max_gap=max_gap)
        )
        ref, current = system, system  # searched at / last finite
        for seed, reach, nan_row in walk:
            delta = np.random.default_rng(seed).standard_normal((system.n, 3))
            delta *= reach * half_skin / np.linalg.norm(delta, axis=1).max()
            moved = probe = ParticleSystem(
                current.positions + delta, system.radii, system.box
            )
            if nan_row is not None:
                nan_row %= system.n
                positions = moved.positions.copy()
                positions[nan_row, nan_row % 3] = np.nan
                probe = ParticleSystem(positions, system.radii, system.box)
            before = verlet._candidates
            got = verlet.pairs(probe, max_gap)
            _assert_same_pairs(got, neighbor_pairs(probe, max_gap=max_gap))
            reused = verlet._candidates is before
            if nan_row is not None:
                assert not reused
                assert nan_row not in got.i and nan_row not in got.j
            elif np.isfinite(ref.positions).all():
                far = np.linalg.norm(
                    system.minimum_image(moved.positions - ref.positions), axis=1
                ).max() / half_skin
                if far < 0.99 or far > 1.01:
                    assert reused == (far < 1.0)
            else:
                assert not reused
            if not reused:
                ref = probe
            current = moved


class TestChebyshevProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        lam_min=st.floats(0.1, 10.0),
        span=st.floats(1.5, 100.0),
        degree=st.integers(3, 25),
    )
    def test_error_bounded_by_rate(self, lam_min, span, degree):
        """Error <= C * rho^degree with rho = (sqrt(k)-1)/(sqrt(k)+1)."""
        lam_max = lam_min * span
        approx = ChebyshevSqrt.fit(lam_min, lam_max, degree)
        err = approx.max_relative_error(samples=501)
        kappa = lam_max / lam_min
        rho = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
        assert err <= 8.0 * rho ** (degree + 1) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        lam_min=st.floats(0.5, 5.0),
        span=st.floats(2.0, 30.0),
        degree=st.integers(5, 20),
        seed=st.integers(0, 999),
    )
    def test_endpoint_values_near_exact(self, lam_min, span, degree, seed):
        lam_max = lam_min * span
        approx = ChebyshevSqrt.fit(lam_min, lam_max, degree)
        x = np.random.default_rng(seed).uniform(lam_min, lam_max, 16)
        rel = np.abs(approx.evaluate_scalar(x) - np.sqrt(x)) / np.sqrt(x)
        assert rel.max() <= approx.max_relative_error(samples=2001) * 1.5 + 1e-12
