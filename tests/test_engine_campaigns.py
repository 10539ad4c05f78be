"""End-to-end engine fault campaigns through the resilient runner.

The self-healing contract (DESIGN.md §14): a campaign that corrupts,
breaks, or poisons the compiled engine must finish with final positions
**bit-identical** to a clean run pinned to the engine the ladder lands
on — every bad product is caught by shadow verification (or the failure
itself), re-executed one rung down, and the engine is quarantined so it
never serves that shape class again.

All campaigns drive the *default* registry, exactly as the CLI does:
``set_default_engine`` + ``get_engine_watch().configure`` is the same
path ``repro simulate --engine cgen --verify-kernels`` takes.
"""

import numpy as np
import pytest

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience import (
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    ResilientRunner,
    SimulationKilled,
    resume_driver,
)
from repro.sparse import (
    available_engines,
    get_default_registry,
    get_engine_watch,
    set_default_engine,
)
from repro.sparse import kernels_cgen
from repro.sparse.enginewatch import EngineWatch
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration

N, PHI, M, STEPS = 24, 0.2, 4, 6

needs_cgen = pytest.mark.skipif(
    not kernels_cgen.available(), reason="no C toolchain"
)

# The rung every cgen failure lands on (scipy, the next ladder rung) —
# computed from the ladder rather than hard-coded.
LANDING = EngineWatch().next_rung("cgen", set(available_engines()))


def _mrhs(seed=0, m=M):
    system = random_configuration(N, PHI, rng=seed)
    return MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=m), rng=seed + 1
    )


@pytest.fixture(autouse=True)
def _pristine_default_registry():
    """Campaigns mutate global trust state; put it all back."""
    prev = set_default_engine("blocked")
    set_default_engine(prev)
    yield
    set_default_engine(prev)
    get_engine_watch().reset()
    get_default_registry()._warned_fallback.clear()


def run_campaign(engine, *, plan=None, cadence=0, steps=STEPS, seed=0):
    """Run an MRHS trajectory on ``engine``; return final positions."""
    prev = set_default_engine(engine)
    watch = get_engine_watch()
    try:
        if cadence:
            watch.configure(cadence=cadence, full_every=1)
        driver = _mrhs(seed)
        ResilientRunner(driver, injector=plan).run_steps(steps)
        return np.array(driver.sd.system.positions, copy=True)
    finally:
        set_default_engine(prev)


def corrupt_cgen_plan(kind):
    # times=None: *every* cgen product is damaged, so the first call of
    # each shape class miscompares, quarantines, and re-executes one
    # rung down; later calls route around cgen entirely.
    return FaultPlan(
        specs=(
            FaultSpec(
                site="engine.multiply",
                kind=kind,
                at={"engine": "cgen"},
                times=None,
            ),
        )
    )


@needs_cgen
class TestWrongResultCampaigns:
    @pytest.mark.parametrize("kind", ["corrupt", "scale", "nan"])
    def test_damaged_products_land_bit_identical(self, kind):
        faulted = run_campaign(
            "cgen", plan=corrupt_cgen_plan(kind), cadence=1
        )
        watch = get_engine_watch()
        assert watch.counts.get("verify_fail", 0) >= 1
        assert watch.counts.get("quarantine", 0) >= 1
        assert all(q.startswith("cgen|") for q in watch.quarantined)

        watch.reset()
        reference = run_campaign(LANDING)
        assert np.array_equal(faulted, reference)

    def test_events_carry_step_indices(self):
        run_campaign("cgen", plan=corrupt_cgen_plan("corrupt"), cadence=1)
        steps = [
            e.step for e in get_engine_watch().events
            if e.kind == "quarantine"
        ]
        assert steps and all(s >= 0 for s in steps)

    def test_monitor_surfaces_quarantine_as_warn(self):
        from repro.health import HealthMonitor

        monitor = HealthMonitor(checks=[])
        get_engine_watch().attach_monitor(monitor)
        run_campaign("cgen", plan=corrupt_cgen_plan("corrupt"), cadence=1)
        verdicts = monitor.report.results
        assert any(r.check == "engine-quarantine" for r in verdicts)
        assert any(r.check == "engine-verify_fail" for r in verdicts)


@needs_cgen
class TestBrokenToolchainCampaigns:
    def test_compile_failure_degrades_bit_identical(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kc"))
        kernels_cgen._reset()
        try:
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        site="engine.compile", kind="raise", times=None
                    ),
                )
            )
            faulted = run_campaign("cgen", plan=plan)
            assert get_engine_watch().counts.get("fallback", 0) >= 1
            get_engine_watch().reset()
            get_default_registry()._warned_fallback.clear()
            reference = run_campaign(LANDING)
        finally:
            kernels_cgen._reset()
        assert np.array_equal(faulted, reference)

    def test_corrupted_object_degrades_bit_identical(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kc"))
        kernels_cgen._reset()
        try:
            plan = FaultPlan(
                specs=(
                    FaultSpec(site="engine.load", kind="raise", times=None),
                )
            )
            faulted = run_campaign("cgen", plan=plan)
            # The load path saw the bad checksum before giving up:
            watch = get_engine_watch()
            assert watch.counts.get("fallback", 0) >= 1
            assert any(
                "checksum" in e.reason
                for e in watch.events if e.kind == "fallback"
            )
            get_engine_watch().reset()
            get_default_registry()._warned_fallback.clear()
            reference = run_campaign(LANDING)
        finally:
            kernels_cgen._reset()
        assert np.array_equal(faulted, reference)


@needs_cgen
class TestQuarantineCheckpointRoundTrip:
    def test_quarantine_survives_kill_and_resume(self, tmp_path):
        """Kill a quarantining run and resume it in a 'fresh process'.
        The kernel is still miscompiled after the restart, so the
        resumed run keeps the corruption armed: the restored quarantine
        must keep cgen shut out of every shape class it was caught in
        (no second miscompare there), shape classes first seen after
        the resume are caught afresh, and the stitched trajectory
        matches a pure landing-engine run bit for bit."""
        kill_at = 3
        plan = FaultPlan(
            specs=corrupt_cgen_plan("corrupt").specs
            + (FaultSpec(site="runner.abort", at={"step": kill_at}),)
        )
        man = CheckpointManager(tmp_path)
        prev = set_default_engine("cgen")
        watch = get_engine_watch()
        try:
            watch.configure(cadence=1, full_every=1)
            killed = ResilientRunner(
                _mrhs(), manager=man, checkpoint_every=1, injector=plan
            )
            with pytest.raises(SimulationKilled):
                killed.run_steps(STEPS)
            quarantined_before = set(watch.quarantined)
            assert quarantined_before

            # Simulate process death: every in-memory trust decision
            # is gone until the checkpoint restores it.
            watch.reset()
            assert not watch.has_quarantines and watch.cadence == 0

            state, meta, _ = man.load_latest()
            assert meta["step"] == kill_at
            resumed = resume_driver(state)
            assert set(watch.quarantined) == quarantined_before
            assert watch.cadence == 1  # re-armed from the checkpoint
            ResilientRunner(
                resumed, injector=corrupt_cgen_plan("corrupt")
            ).run_steps(STEPS - kill_at)
            final = np.array(resumed.sd.system.positions, copy=True)
            relapses = [
                e for e in watch.events
                if e.kind == "verify_fail"
                and f"{e.engine}|{e.shape}" in quarantined_before
            ]
            assert not relapses
        finally:
            set_default_engine(prev)
            watch.reset()

        reference = run_campaign(LANDING)
        assert np.array_equal(final, reference)
