"""One build per configuration: a driver's R, its pair list and its
block-Jacobi preconditioner come from one configuration entry, keyed on
the ``ParticleSystem`` object, the cutoff and the viscosity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.auto import AutoMrhsStokesianDynamics
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.core.schedule import FixedM
from repro.resilience import ResilientRunner
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration
from repro.stokesian.resistance import build_resistance_matrix

M = 3


def _sd(**params):
    return StokesianDynamics(
        random_configuration(40, 0.35, rng=3), SDParameters(**params), rng=4
    )


def _same_matrix(A, B) -> bool:
    return all(
        np.array_equal(getattr(A, k), getattr(B, k))
        for k in ("row_ptr", "col_ind", "blocks")
    )


class TestKey:
    def test_same_configuration_returns_the_same_matrix(self, assemblies):
        sd = _sd()
        R = sd.build_matrix()
        assert sd.build_matrix(sd.system) is R
        assert sd.preconditioner(R) is sd.preconditioner(R)
        assert len(assemblies) == 1

    @pytest.mark.parametrize("field, value", [("viscosity", 2.5), ("cutoff_gap", 0.3)])
    def test_what_R_depends_on_rebuilds_it(self, assemblies, field, value):
        sd = _sd()
        R = sd.build_matrix()
        pre = sd.preconditioner(R)
        sd.params = replace(sd.params, **{field: value})
        R2 = sd.build_matrix()
        assert R2 is not R and len(assemblies) == 2
        assert sd.preconditioner(R2) is not pre
        fresh = build_resistance_matrix(
            sd.system, viscosity=sd.params.viscosity, cutoff_gap=sd.params.cutoff_gap
        )
        assert _same_matrix(R2, fresh)
        assert not _same_matrix(R2, R)

    def test_set_state_rebuilds(self, assemblies):
        sd = _sd()
        R = sd.build_matrix()
        sd.set_state(sd.get_state())
        R2 = sd.build_matrix()
        assert R2 is not R and len(assemblies) == 2
        assert _same_matrix(R2, R)

    def test_runner_dt_swap_keeps_R(self, assemblies):
        driver = MrhsStokesianDynamics(
            random_configuration(40, 0.35, rng=3), SDParameters(),
            MrhsParameters(m=M), rng=4,
        )
        R = driver.sd.build_matrix()
        ResilientRunner(driver)._set_dt(driver.params.dt / 2)
        assert driver.params.dt == SDParameters().dt / 2
        assert driver.sd.build_matrix() is R
        assert len(assemblies) == 1

    def test_foreign_matrix_gets_a_fresh_preconditioner(self):
        sd = _sd()
        R = sd.build_matrix()
        other = build_resistance_matrix(sd.system)
        assert sd.preconditioner(other) is not sd.preconditioner(R)
        assert sd.preconditioner(other) is not sd.preconditioner(other)
        assert _sd(precondition=False).preconditioner(R) is None


class TestChunkBuilds:
    def test_auto_chunk_assembles_R0_once(self, assemblies):
        seen = []

        class Policy(FixedM):
            def choose(self, A=None):
                seen.append(A)
                return super().choose(A)

        auto = AutoMrhsStokesianDynamics(
            random_configuration(40, 0.35, rng=3), SDParameters(),
            policy=Policy(M), rng=4,
        )
        auto.run_chunk()
        assert len(assemblies) == 2 * M
        # The policy read the R_0 the chunk went on to solve with.
        assert seen == [assemblies[0]]
