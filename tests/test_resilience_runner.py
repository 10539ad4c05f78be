"""ResilientRunner: retry with dt backoff/heal, m-degradation, kills.

Recovery must be bounded, recorded, and deterministic — and checkpoint
overhead must stay under 5% of a step at quickstart scale.
"""

import time

import numpy as np
import pytest

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience import runner as runner_mod
from repro.resilience import (
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    ResilienceExhausted,
    ResilientRunner,
    SimulationKilled,
    resume_driver,
)
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration

N, PHI, M = 24, 0.2, 4


def _sd(seed=0):
    system = random_configuration(N, PHI, rng=seed)
    return StokesianDynamics(system, SDParameters(), rng=seed + 1)


def _mrhs(seed=0, m=M):
    system = random_configuration(N, PHI, rng=seed)
    return MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=m), rng=seed + 1
    )


def _nan_plan(step, times=1):
    return FaultPlan(
        specs=(
            FaultSpec(
                site="brownian.forcing", kind="nan", at={"step": step},
                times=times,
            ),
        )
    )


class TestStepRetry:
    def test_nan_forcing_is_retried_with_dt_backoff(self):
        runner = ResilientRunner(_sd(), injector=_nan_plan(step=2))
        report = runner.run_steps(4)
        assert report.steps_completed == 4
        assert report.retries == 1
        assert report.dt_backoffs == 1
        assert np.isfinite(runner.driver.system.positions).all()
        # The retry rolled back and redrew the same noise at half dt:
        # the fault's budget is spent, so the retried step is clean.
        assert len(report.faults) == 1

    def test_dt_heals_after_streak(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "HEAL_STREAK", 2)
        dt0 = SDParameters().dt
        runner = ResilientRunner(_sd(), injector=_nan_plan(step=1))
        report = runner.run_steps(6)
        assert report.dt_heals >= 1
        assert float(runner.driver.params.dt) == pytest.approx(dt0)

    def test_retry_budget_exhaustion_raises(self):
        runner = ResilientRunner(
            _sd(),
            max_retries=2,
            injector=_nan_plan(step=1, times=None),
        )
        with pytest.raises(ResilienceExhausted, match="failed after"):
            runner.run_steps(3)

    def test_mrhs_retry_is_recorded_on_the_chunk(self):
        runner = ResilientRunner(_mrhs(), injector=_nan_plan(step=1))
        runner.run_steps(M)
        (chunk,) = runner.driver.chunks
        assert chunk.retries == 1


class TestDegradation:
    def test_block_breakdown_degrades_m_and_completes(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="mrhs.block_breakdown", at={"chunk": 0}, times=2
                ),
            )
        )
        runner = ResilientRunner(_mrhs(m=4), injector=plan)
        report = runner.run_steps(8)
        assert report.steps_completed == 8
        assert report.degradations == [(0, 2)]
        chunks = runner.driver.chunks
        assert chunks[0].degradations == [2]
        assert len(chunks[0].steps) == 2
        assert all(c.degradations == [] for c in chunks[1:])
        assert sum(len(c.steps) for c in chunks) == 8

    def test_degradation_ladder_reaches_floor_then_raises(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "MAX_BLOCK_ATTEMPTS", 1)
        plan = FaultPlan(
            specs=(FaultSpec(site="mrhs.block_breakdown", times=None),)
        )
        runner = ResilientRunner(_mrhs(m=4), injector=plan)
        with pytest.raises(ResilienceExhausted, match="block solve"):
            runner.run_steps(4)

    def test_degraded_chunk_noise_stays_deterministic(self):
        """Degradation rewinds the RNG, so a degraded run's trajectory
        is a pure function of the plan — running it twice agrees."""

        def run():
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        site="mrhs.block_breakdown", at={"chunk": 1}, times=2
                    ),
                )
            )
            runner = ResilientRunner(_mrhs(m=4), injector=plan)
            runner.run_steps(10)
            return runner.driver.sd.system.positions

        assert np.array_equal(run(), run())


class TestCheckpointCadence:
    def test_checkpoints_written_at_cadence_and_finish(self, tmp_path):
        man = CheckpointManager(tmp_path, keep=10)
        runner = ResilientRunner(
            _mrhs(), manager=man, checkpoint_every=2
        )
        runner.run_steps(5)
        names = [p.name for p in man.checkpoints()]
        assert names == [
            "ckpt-000000002.npz",
            "ckpt-000000004.npz",
            "ckpt-000000005.npz",
        ]

    def test_kill_leaves_flushed_checkpoints(self, tmp_path):
        man = CheckpointManager(tmp_path)
        runner = ResilientRunner(
            _mrhs(),
            manager=man,
            checkpoint_every=2,
            injector=FaultPlan(
                specs=(FaultSpec(site="runner.abort", at={"step": 3}),)
            ),
        )
        with pytest.raises(SimulationKilled):
            runner.run_steps(8)
        state, meta, _ = man.load_latest()
        assert meta["step"] == 2

    def test_each_step_checkpointed_once(self, tmp_path, checkpoint_saves):
        """The finish coincides with a cadence step: one write, not
        two."""
        runner = ResilientRunner(
            _mrhs(),
            manager=CheckpointManager(tmp_path),
            checkpoint_every=2,
        )
        runner.run_steps(16)
        assert checkpoint_saves == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_checkpoint_every_requires_manager(self):
        with pytest.raises(ValueError, match="requires a CheckpointManager"):
            ResilientRunner(_sd(), checkpoint_every=2)

    def test_rejects_non_driver(self):
        with pytest.raises(TypeError, match="driver must be"):
            ResilientRunner(object())


def _positions_after(runs, target, **runner_kw):
    """Positions after ``runs`` — a list of ``(n_steps, stop_after)``
    calls on one runner — from the same fresh m=4 driver."""
    runner = ResilientRunner(_mrhs(), **runner_kw)
    for n_steps, stop_after in runs:
        runner.run_steps(n_steps, stop_after=stop_after)
    assert runner.step_index == target
    return runner.driver.sd.system.positions.copy()


class TestStopAfter:
    """``stop_after`` slices a run without changing its trajectory:
    chunks stay planned toward the whole target."""

    @pytest.mark.parametrize("target", [8, 6])  # chunks 4+4 and 4+2
    def test_sliced_run_bit_matches_whole_run(self, target):
        whole = _positions_after([(target, None)], target)
        sliced = _positions_after(
            [(target, 3), (target - 3, None)], target
        )
        np.testing.assert_array_equal(sliced, whole)

    def test_cold_resume_from_stop_point_bit_matches(self, tmp_path):
        man = CheckpointManager(tmp_path)
        runner = ResilientRunner(_mrhs(), manager=man, checkpoint_every=2)
        report = runner.run_steps(8, stop_after=3)
        assert report.steps_completed == 3 and runner.step_index == 3
        state, meta, _ = man.load_latest()
        assert meta["step"] == 3
        resumed = ResilientRunner(resume_driver(state))
        resumed.run_steps(5)
        np.testing.assert_array_equal(
            resumed.driver.sd.system.positions,
            _positions_after([(8, None)], 8),
        )

    def test_stop_at_or_past_target_is_a_whole_run(self):
        whole = _positions_after([(4, None)], 4)
        np.testing.assert_array_equal(_positions_after([(4, 9)], 4), whole)

    def test_negative_stop_after_rejected(self):
        with pytest.raises(ValueError, match="stop_after"):
            ResilientRunner(_sd()).run_steps(4, stop_after=-1)


class TestCheckpointOverhead:
    def test_overhead_under_5_percent_of_step_time(self, tmp_path):
        """Acceptance bar: at quickstart scale (n=150, phi=0.4, m=8)
        the critical-path cost of one checkpoint — state snapshot plus
        enqueue to the background writer — is < 5% of one time step."""
        system = random_configuration(150, 0.4, rng=0)
        driver = MrhsStokesianDynamics(
            system, SDParameters(), MrhsParameters(m=8), rng=1
        )
        t0 = time.perf_counter()
        driver.run_chunk(8)
        step_time = (time.perf_counter() - t0) / 8

        man = CheckpointManager(tmp_path)
        costs = []
        for i in range(6):
            t0 = time.perf_counter()
            man.save_async(driver.get_state(), step=driver.sd.step_index)
            costs.append(time.perf_counter() - t0)
            man.flush()
        overhead = float(np.median(costs[1:]))  # first save pays imports
        assert overhead < 0.05 * step_time, (
            f"checkpoint critical path {1e3 * overhead:.3f} ms vs "
            f"step {1e3 * step_time:.1f} ms"
        )
