"""Step acceptance: rejection, dt backoff, quarantine, abort post-mortem.

Covers the tentpole end-to-end guarantees:

* the poisoned-chunk regression (NaN injected mid-chunk is rejected,
  the chunk quarantined, the run completes finite);
* the mis-parameterized-run drill (dt 100x too large either completes
  finite via rejection/dt-halving or aborts naming the invariant);
* corrupted-checkpoint resume fails loudly at ``set_state``.
"""

import numpy as np
import pytest

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.health.acceptance import (
    StepAcceptanceController,
    violation_traced_to_guess,
)
from repro.health.invariants import (
    FluctuationDissipationCheck,
    HealthContext,
    InvariantCheck,
    Severity,
)
from repro.health.monitor import HealthMonitor
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilienceExhausted,
    ResilientRunner,
    RetryPolicy,
)
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration


def _sd(seed=0, n=24, phi=0.2, **params):
    system = random_configuration(n, phi, rng=seed)
    return StokesianDynamics(system, SDParameters(**params), rng=seed + 1)


def _mrhs(seed=0, n=24, phi=0.2, m=4, **params):
    system = random_configuration(n, phi, rng=seed)
    return MrhsStokesianDynamics(
        system, SDParameters(**params), MrhsParameters(m=m), rng=seed + 1
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


class _AlwaysFatal(InvariantCheck):
    name = "always-fatal"

    def check(self, ctx):
        return self._result(ctx, Severity.FATAL, "synthetic violation")


class TestControllerParity:
    """Without a monitor the controller reproduces the legacy runner
    retry loop exactly."""

    def test_nan_step_retried_with_backoff(self):
        driver = _sd()
        controller = StepAcceptanceController(driver)
        from repro.resilience.faults import armed

        with armed(_nan_plan(step=1)):
            controller.attempt_step()
            outcome = controller.attempt_step()
        assert outcome.retries == 1
        assert outcome.dt_backoffs == 1
        assert outcome.quarantines == 0
        assert np.isfinite(driver.system.positions).all()

    def test_exhaustion_message_names_step_and_failure(self):
        driver = _sd()
        controller = StepAcceptanceController(
            driver, retry=RetryPolicy(max_retries=1)
        )
        from repro.resilience.faults import armed

        with armed(_nan_plan(step=0, times=None)):
            with pytest.raises(
                ResilienceExhausted, match=r"failed after 1 retries"
            ):
                controller.attempt_step()


class TestMonitorDrivenRejection:
    def test_fatal_verdict_rejects_even_without_exception(self):
        driver = _sd()
        monitor = HealthMonitor([_AlwaysFatal()])
        driver.health = monitor
        controller = StepAcceptanceController(
            driver, retry=RetryPolicy(max_retries=2), monitor=monitor
        )
        with pytest.raises(ResilienceExhausted, match="always-fatal"):
            controller.attempt_step()
        # The abort message names the invariant and the offending step.
        assert driver.step_index <= 3

    def test_rejection_rolls_back_monitor_observations(self):
        driver = _sd()
        monitor = HealthMonitor([_AlwaysFatal()])
        driver.health = monitor
        controller = StepAcceptanceController(
            driver, retry=RetryPolicy(max_retries=1), monitor=monitor
        )
        with pytest.raises(ResilienceExhausted):
            controller.attempt_step()
        assert monitor.report.rollbacks > 0


class TestPoisonedChunk:
    """The end-to-end regression from the issue: NaN mid-chunk."""

    def test_quarantine_and_finish_finite(self):
        driver = _mrhs(m=8)
        monitor = HealthMonitor()
        runner = ResilientRunner(
            driver, injector=_nan_plan(step=3), monitor=monitor
        )
        report = runner.run_steps(16)
        assert report.steps_completed == 16
        assert report.retries == 1
        assert report.quarantines == 1
        assert report.dt_backoffs == 0  # guess was the poison, not dt
        assert driver.chunks[0].quarantined
        assert "finite" in driver.chunks[0].quarantine_reason
        assert not driver.chunks[1].quarantined
        assert np.isfinite(driver.system.positions).all()
        # The rejected step's observations were withdrawn.
        assert monitor.report.rollbacks > 0
        assert report.final_dt == pytest.approx(driver.params.dt)

    def test_quarantined_steps_cold_start(self):
        driver = _mrhs(m=4)
        driver.begin_chunk()
        driver.step_in_chunk()
        driver.quarantine_chunk(reason="test")
        record = driver.step_in_chunk()
        # Cold start: no guess, so no guess error is recorded.
        assert record.guess_error is None
        assert driver.pending.quarantined

    def test_quarantine_without_pending_raises(self):
        driver = _mrhs()
        with pytest.raises(RuntimeError, match="no chunk in progress"):
            driver.quarantine_chunk()

    def test_quarantine_survives_checkpoint_roundtrip(self):
        driver = _mrhs(m=4)
        driver.begin_chunk()
        driver.step_in_chunk()
        driver.quarantine_chunk(reason="poisoned guesses")
        state = driver.get_state()
        restored = MrhsStokesianDynamics.from_state(state)
        assert restored.pending.quarantined
        assert restored.pending.quarantine_reason == "poisoned guesses"
        # Finish the chunk; the record keeps the quarantine flag.
        restored.step_in_chunk()
        restored.step_in_chunk()
        restored.step_in_chunk()
        assert restored.chunks[-1].quarantined

    def test_traced_heuristic(self):
        driver = _mrhs(m=4)
        assert not violation_traced_to_guess(driver, "non-finite positions")
        driver.begin_chunk()
        # Column 0 is the exact solution: never traced to staleness.
        assert not violation_traced_to_guess(driver, "non-finite positions")
        driver.step_in_chunk()
        assert violation_traced_to_guess(driver, "non-finite positions")
        assert not violation_traced_to_guess(driver, "overlapping particles")
        driver.pending.U[:, driver.pending.k] = np.nan
        assert violation_traced_to_guess(driver, "overlapping particles")


class TestMisparameterizedRun:
    """The issue's acceptance drill: dt 100x too large."""

    def test_dt_100x_completes_finite_or_aborts_with_report(self):
        driver = _sd(n=40, phi=0.45, dt=5.0)  # sane dt here is ~0.05
        monitor = HealthMonitor(
            [FluctuationDissipationCheck(window=4, band_slack=1e12)]
        )
        runner = ResilientRunner(
            driver, retry=RetryPolicy(max_retries=8), monitor=monitor
        )
        try:
            report = runner.run_steps(12)
        except ResilienceExhausted as exc:
            # Abort path: the report names invariant and offending step.
            assert "fluctuation-dissipation" in str(exc)
            assert "step" in str(exc)
        else:
            # Completion path must be via rejection/dt-halving, with a
            # finite trajectory.
            assert report.steps_completed == 12
            assert report.dt_backoffs > 0
            assert "fluctuation-dissipation" in report.rejected_checks
            assert np.isfinite(driver.system.positions).all()

    def test_healthy_dt_triggers_nothing(self):
        driver = _sd(dt=0.05)
        monitor = HealthMonitor()
        runner = ResilientRunner(driver, monitor=monitor)
        report = runner.run_steps(6)
        assert report.retries == 0
        assert report.quarantines == 0
        assert monitor.report.worst() is Severity.OK

    def test_observe_only_mode_records_without_rejecting(self):
        driver = _sd(n=40, phi=0.45, dt=5.0)
        monitor = HealthMonitor(
            [FluctuationDissipationCheck(window=4, band_slack=1e12)]
        )
        runner = ResilientRunner(
            driver, monitor=monitor, reject_on_fatal=False
        )
        report = runner.run_steps(8)
        assert report.steps_completed == 8
        assert report.retries == 0  # nothing rejected...
        assert monitor.report.worst() is Severity.FATAL  # ...but recorded

    def test_observe_only_mode_withdraws_rejected_observations(self):
        """A step the state screen rejects leaves no observation behind,
        whether or not the monitor's own verdicts may reject."""
        driver = _mrhs(n=24, m=4)
        monitor = HealthMonitor()
        runner = ResilientRunner(
            driver, monitor=monitor, reject_on_fatal=False,
            injector=_nan_plan(2),
        )
        report = runner.run_steps(4)
        assert report.steps_completed == 4
        assert report.retries == 1
        assert monitor.report.counts[Severity.FATAL] == 0
        assert "fatal=0" in monitor.report.summary()


class TestSetStateValidation:
    """Satellite: corrupted checkpoints fail loudly at resume."""

    def test_nan_positions_rejected(self):
        driver = _sd()
        state = driver.get_state()
        state["positions"][0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _sd(seed=5).set_state(state)

    def test_wrong_shape_rejected(self):
        driver = _sd()
        state = driver.get_state()
        state["radii"] = state["radii"][:-1]
        with pytest.raises(ValueError, match="radii"):
            _sd(seed=5).set_state(state)

    def test_object_dtype_rejected(self):
        driver = _sd()
        state = driver.get_state()
        state["box"] = np.array([None, None, None])
        with pytest.raises(ValueError, match="numeric dtype"):
            _sd(seed=5).set_state(state)

    def test_live_state_untouched_on_rejection(self):
        victim = _sd(seed=5)
        before = victim.system.positions.copy()
        state = _sd().get_state()
        state["positions"][0, 0] = np.inf
        with pytest.raises(ValueError):
            victim.set_state(state)
        np.testing.assert_array_equal(victim.system.positions, before)

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            SDParameters(dt=float("nan"))
        with pytest.raises(ValueError, match="kT"):
            SDParameters(kT=float("inf"))
