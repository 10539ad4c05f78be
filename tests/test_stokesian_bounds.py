"""The Chebyshev interval of an assembled resistance matrix.

``R = diag(muF * 6 pi mu a_i I) + Rlub`` with ``Rlub`` a sum of PSD
pair tensors, so ``lambda_min(R) >= muF * 6 pi mu a_min``.  The driver
takes that floor as the interval's lower end and runs Lanczos only for
the top end.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stokesian.brownian import BrownianForceGenerator
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration
from repro.stokesian.resistance import (
    build_resistance_matrix,
    far_field_drag,
    far_field_viscosity,
)
from repro.util.rng import rng_from_json, rng_state_to_json

# Rounding only: the floor equals lambda_min to the last bits on dilute
# packings, where no pair is inside the cutoff.
ROUNDING = 1e-12


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Record the ``which`` of every ``eigsh`` call."""
    calls = []
    real = spla.eigsh

    def recording(*args, **kwargs):
        calls.append(kwargs.get("which"))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recording)
    return calls


class TestFarFieldDrag:
    def test_is_the_diagonal_of_a_pairless_matrix(self):
        system = random_configuration(20, 0.05, rng=4)
        drag = far_field_drag(system, viscosity=0.7)
        R = build_resistance_matrix(system, viscosity=0.7, cutoff_gap=1e-9)
        assert R.nnzb == system.n  # no pair inside the cutoff
        np.testing.assert_array_equal(
            R.diagonal_blocks(), drag[:, None, None] * np.eye(3)
        )

    def test_default_and_override_far_field_viscosity(self):
        system = random_configuration(10, 0.2, rng=5)
        mu_f = far_field_viscosity(system.volume_fraction)
        np.testing.assert_allclose(
            far_field_drag(system), mu_f * 6 * np.pi * system.radii, rtol=1e-15
        )
        np.testing.assert_allclose(
            far_field_drag(system, mu_far_field=2.0),
            2.0 * 6 * np.pi * system.radii,
            rtol=1e-15,
        )
        with pytest.raises(ValueError, match="mu_far_field"):
            far_field_drag(system, mu_far_field=0.0)


class TestFloorProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(8, 200),
        phi=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_floor_and_interval_enclose_dense_spectrum(self, n, phi, seed):
        system = random_configuration(n, phi, rng=seed)
        sd = StokesianDynamics(system, SDParameters(), rng=seed)
        R = sd.build_matrix()
        w = np.linalg.eigvalsh(R.to_dense())
        floor = float(far_field_drag(system).min())
        assert floor <= w[0] * (1 + ROUNDING)
        lo, hi = sd.spectrum_bounds(R)
        assert lo == floor
        assert lo <= w[0] * (1 + ROUNDING)
        assert hi >= w[-1]


class TestDriverRefresh:
    def _driver(self, **params):
        system = random_configuration(60, 0.35, rng=11)
        return StokesianDynamics(system, SDParameters(**params), rng=12)

    def test_one_refresh_is_one_largest_eigenvalue_solve(self, eigsh_calls):
        sd = self._driver(bounds_refresh_steps=2)
        R = sd.build_matrix()
        sd.spectrum_bounds(R)
        assert eigsh_calls == ["LA"]
        sd.spectrum_bounds(R)  # cached
        assert eigsh_calls == ["LA"]
        sd.spectrum_bounds(R)  # second refresh
        assert eigsh_calls == ["LA", "LA"]

    def test_lower_end_is_the_unwidened_floor(self):
        sd = self._driver(bounds_safety=2.0)
        R = sd.build_matrix()
        lo, hi = sd.spectrum_bounds(R)
        assert lo == float(far_field_drag(sd.system).min())
        w_max = np.linalg.eigvalsh(R.to_dense())[-1]
        assert hi >= 2.0 * w_max  # Lanczos' own 1.05 on top of the 2.0

    def test_refresh_draws_one_start_vector_from_the_aux_stream(self):
        """The auxiliary stream advances exactly as when both ends were
        estimated from one shared start vector: one ``n``-normal draw
        per refresh, so checkpoints and trajectories keep their RNG
        positions."""
        sd = self._driver()
        R = sd.build_matrix()
        twin = rng_from_json(rng_state_to_json(sd._aux_rng))
        twin.standard_normal(R.shape[0])
        noise_before = rng_state_to_json(sd.rng)
        sd.spectrum_bounds(R)
        assert rng_state_to_json(sd._aux_rng) == rng_state_to_json(twin)
        assert rng_state_to_json(sd.rng) == noise_before

    def test_generic_operator_keeps_both_ends(self, eigsh_calls):
        sd = self._driver()
        BrownianForceGenerator(sd.build_matrix(), rng=0)
        assert sorted(eigsh_calls) == ["LA", "SA"]


class TestResumeFromLanczosLowerEnd:
    def test_state_with_estimated_lower_end_restores_and_steps(self):
        """A checkpoint whose ``bounds_lo`` is a Lanczos estimate
        divided by both widenings (1.05 * 1.25 = 1.3125) resumes: the
        cached interval is used as saved until the next refresh
        replaces its lower end with the floor."""
        params = SDParameters(bounds_refresh_steps=2)
        system = random_configuration(40, 0.3, rng=21)
        sd = StokesianDynamics(system, params, rng=22)
        R = sd.build_matrix()
        w = np.linalg.eigvalsh(R.to_dense())
        state = sd.get_state()
        state["bounds_lo"] = float(w[0]) / 1.3125
        state["bounds_hi"] = float(w[-1]) * 1.3125
        state["bounds_age"] = 1

        resumed = StokesianDynamics(random_configuration(40, 0.3, rng=21), params)
        resumed.set_state(state)
        rec = resumed.step()
        assert rec.converged
        assert resumed._cached_bounds == (state["bounds_lo"], state["bounds_hi"])
        rec = resumed.step()  # age reached bounds_refresh_steps: refresh
        assert rec.converged
        assert resumed._cached_bounds[0] == float(far_field_drag(system).min())
        assert resumed.step_index == 2
