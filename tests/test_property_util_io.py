"""Property-based tests for utilities, persistence, and light core
invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import load_bcrs, load_system, save_bcrs, save_system
from repro.stokesian.particles import ParticleSystem
from repro.util.rng import as_rng, spawn_rngs
from repro.util.tables import format_table
from repro.util.timer import TimingRecord
from tests.test_property_sparse import bcrs_matrices


class TestRngProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8))
    def test_spawned_streams_deterministic_and_distinct(self, seed, n):
        a = [g.standard_normal(4) for g in spawn_rngs(seed, n)]
        b = [g.standard_normal(4) for g in spawn_rngs(seed, n)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        for i in range(n):
            for j in range(i + 1, n):
                assert not np.allclose(a[i], a[j])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_as_rng_seed_reproducible(self, seed):
        np.testing.assert_array_equal(
            as_rng(seed).standard_normal(8), as_rng(seed).standard_normal(8)
        )


class TestTableProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.integers(-10**6, 10**6),
                    st.floats(-1e6, 1e6, allow_nan=False),
                    st.text(
                        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                        max_size=12,
                    ),
                ),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_format_table_structure(self, rows):
        text = format_table(["a", "b"], rows)
        lines = text.splitlines()
        assert len(lines) == 2 + len(rows)
        # Every line is equally wide or shorter (right alignment pads).
        widths = {len(l) for l in lines}
        assert len(widths) == 1


class TestTimerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        phases=st.dictionaries(
            st.sampled_from("xyz"), st.floats(0, 10), min_size=1
        ),
    )
    def test_total_is_order_independent(self, phases):
        forward = TimingRecord(phases=phases, counts={k: 1 for k in phases})
        backward = TimingRecord(
            phases=dict(reversed(list(phases.items()))),
            counts={k: 1 for k in phases},
        )
        assert forward.total() == backward.total()


class TestIoProperties:
    @settings(max_examples=25, deadline=None)
    @given(A=bcrs_matrices())
    def test_bcrs_roundtrip_bitwise(self, A):
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "m.npz"
            save_bcrs(path, A)
            B = load_bcrs(path)
        np.testing.assert_array_equal(B.row_ptr, A.row_ptr)
        np.testing.assert_array_equal(B.col_ind, A.col_ind)
        np.testing.assert_array_equal(B.blocks, A.blocks)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
        box=st.floats(10.0, 100.0),
    )
    def test_system_roundtrip_bitwise(self, n, seed, box):
        import tempfile, pathlib

        rng = np.random.default_rng(seed)
        s = ParticleSystem(
            rng.uniform(0, box, (n, 3)),
            rng.uniform(0.1, box / 4, n),
            [box] * 3,
        )
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "s.npz"
            save_system(path, s)
            t = load_system(path)
        np.testing.assert_array_equal(t.positions, s.positions)
        np.testing.assert_array_equal(t.radii, s.radii)
        np.testing.assert_array_equal(t.box, s.box)
