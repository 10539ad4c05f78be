"""Driver state is the trajectory only; records are each process's log.

``get_state`` carries what the future trajectory depends on and nothing
else, so a snapshot costs the same at every step of a run; ``set_state``
touches records only to drop those at or after the restored step or
chunk.  One rollback (driver state, monitor, the attempt's metrics)
serves a rejected step and a rewound chunk alike, so records, spans and
counters all track the accepted timeline (DESIGN.md §9–§11).
"""

import numpy as np
import pytest

import repro.telemetry as _telemetry
from repro.core.auto import AutoMrhsStokesianDynamics
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.core.schedule import FixedM
from repro.resilience import (
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    ResilientRunner,
    SimulationKilled,
    pack_state,
    resume_driver,
)
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration
from repro.telemetry import TelemetryHub, read_trace
from repro.telemetry.hub import TRACE_FILENAME

N, PHI, M = 24, 0.2, 4


@pytest.fixture(autouse=True)
def _no_global_hub_leak():
    yield
    _telemetry.uninstall()


def _sd(seed=0):
    return StokesianDynamics(
        random_configuration(N, PHI, rng=seed), SDParameters(), rng=seed + 1
    )


def _mrhs(seed=0, n=N, telemetry=None):
    kwargs = {} if telemetry is None else {"telemetry": telemetry}
    return MrhsStokesianDynamics(
        random_configuration(n, PHI, rng=seed), SDParameters(),
        MrhsParameters(m=M), rng=seed + 1, **kwargs,
    )


def _auto(seed=0):
    return AutoMrhsStokesianDynamics(
        random_configuration(N, PHI, rng=seed), SDParameters(),
        policy=FixedM(M), rng=seed + 1,
    )


def _run_chunks(driver, n_chunks):
    """Advance ``n_chunks`` chunks (``M`` steps each for the SD driver)."""
    if isinstance(driver, StokesianDynamics):
        driver.run(n_chunks * M)
    else:
        driver.run(n_chunks)


def _step_indices(driver):
    if isinstance(driver, StokesianDynamics):
        return [r.step_index for r in driver.history]
    return [s.step_index for c in driver.chunks for s in c.steps]


DRIVERS = pytest.mark.parametrize(
    "make", [_sd, _mrhs, _auto], ids=["sd", "mrhs", "auto"]
)


def _nan_plan(step):
    return FaultPlan(
        specs=(
            FaultSpec(
                site="brownian.forcing", kind="nan", at={"step": step}, times=1
            ),
        )
    )


class TestStateIsTrajectoryOnly:
    @DRIVERS
    def test_state_size_does_not_grow_with_the_run(self, make):
        short, long_ = make(), make()
        _run_chunks(short, 1)
        _run_chunks(long_, 6)
        blob = "__blob__"
        assert (
            pack_state(short.get_state())[blob].nbytes
            == pack_state(long_.get_state())[blob].nbytes
        )

    @DRIVERS
    def test_state_carries_no_records(self, make):
        driver = make()
        _run_chunks(driver, 1)
        if isinstance(driver, MrhsStokesianDynamics):
            driver.begin_chunk()
            driver.step_in_chunk()
        state = driver.get_state()
        assert "chosen_ms" not in state
        inner = state.get("driver", state)
        assert "chunks" not in inner
        assert "history" not in inner.get("sd", inner)
        pending = inner.get("pending") or {}
        assert not {"steps", "timings_phases", "timings_counts"} & set(pending)

    def test_summary_helpers_are_gone(self):
        import repro.core.mrhs as mrhs
        import repro.stokesian.dynamics as dynamics

        assert not hasattr(dynamics, "records_to_state")
        assert not hasattr(dynamics, "records_from_state")
        assert not hasattr(mrhs, "_chunks_to_state")
        assert not hasattr(mrhs, "_chunks_from_state")

    @DRIVERS
    def test_restore_drops_records_at_or_after_the_restored_point(self, make):
        driver = make()
        _run_chunks(driver, 2)
        snap = driver.get_state()
        kept = _step_indices(driver)
        _run_chunks(driver, 2)
        driver.set_state(snap)
        assert _step_indices(driver) == kept
        _run_chunks(driver, 1)
        assert _step_indices(driver) == list(range(3 * M))

    @DRIVERS
    def test_resumed_process_starts_with_no_records(self, make):
        driver = make()
        _run_chunks(driver, 2)
        fresh = make(seed=7)
        fresh.set_state(driver.get_state())
        assert _step_indices(fresh) == []
        _run_chunks(fresh, 1)
        assert _step_indices(fresh) == list(range(2 * M, 3 * M))

    def test_auto_views_follow_the_chunks(self):
        auto = _auto()
        auto.run(3)
        assert auto.chosen_ms == [M, M, M]
        assert all(d is not None for d in auto.block_diagnostics)
        snap = auto.get_state()
        auto.run(1)
        auto.set_state(snap)
        assert auto.chosen_ms == [M, M, M]
        with pytest.raises(AttributeError):
            auto.chosen_ms = []


class TestRollbackKeepsTheLiveChunk:
    """A rejected step rolls back inside the live chunk: its records,
    timings, block diagnostics and span all survive."""

    def _run(self, tmp_path, nan_at, n_steps=8):
        hub = TelemetryHub(tmp_path / "run")
        driver = _mrhs(n=40, telemetry=hub)
        report = ResilientRunner(driver, injector=_nan_plan(nan_at)).run_steps(
            n_steps
        )
        hub.close()
        return driver, report, read_trace(tmp_path / "run" / TRACE_FILENAME)

    def test_nan_mid_chunk_keeps_records_and_span(self, tmp_path):
        driver, report, spans = self._run(tmp_path, nan_at=6)
        assert report.retries == 1
        assert [c.chunk_index for c in driver.chunks] == [0, 1]
        assert [len(c.steps) for c in driver.chunks] == [M, M]
        for chunk in driver.chunks:
            assert chunk.chunk_timings.total() > 0
            assert chunk.block_diagnostics is not None
            assert all(s.timings.phases for s in chunk.steps)
        assert driver.chunks[1].retries == 1

        chunk_spans = {
            e.attrs["chunk"]: e for e in spans if e.name == "chunk"
        }
        assert sorted(chunk_spans) == [0, 1]
        assert not any("abandoned" in e.attrs for e in chunk_spans.values())
        late = [e for e in spans if e.name == "step" and e.attrs["step"] >= 6]
        assert len(late) == 3  # step 6 twice (rejected, retried), step 7
        assert all(e.parent_id == chunk_spans[1].span_id for e in late)

    def test_rejected_last_step_rolls_back_into_its_chunk(self, tmp_path):
        driver, report, spans = self._run(tmp_path, nan_at=M - 1)
        assert report.retries == 1
        first = driver.chunks[0]
        assert [s.step_index for s in first.steps] == list(range(M))
        assert first.retries == 1
        (chunk0,) = [e for e in spans if e.name == "chunk" and e.attrs["chunk"] == 0]
        assert "abandoned" not in chunk0.attrs
        steps = [e for e in spans if e.name == "step" and e.attrs["step"] < M]
        assert len(steps) == M + 1
        assert all(e.parent_id == chunk0.span_id for e in steps)


class TestSlicedRunStampsTheChunk:
    def test_steps_inside_a_pending_chunk_carry_its_id(self, tmp_path):
        """A call that starts inside a pending chunk (a sliced or
        resumed run) still stamps that chunk on its step spans."""
        hub = TelemetryHub(tmp_path / "run")
        runner = ResilientRunner(_mrhs(n=40, telemetry=hub))
        runner.run_steps(8, stop_after=3)
        runner.run_steps(5)
        hub.close()
        spans = read_trace(tmp_path / "run" / TRACE_FILENAME)
        steps = [e for e in spans if e.name == "step"]
        assert [e.attrs["step"] for e in steps] == list(range(8))
        assert [e.attrs.get("chunk") for e in steps] == [0] * M + [1] * M

    def test_a_chunk_start_carries_the_chunk_it_starts(self, tmp_path):
        """The spans a chunk's start emits (R0, Brownian block, block
        solve) carry that chunk's id, also after an m-halving retry."""
        hub = TelemetryHub(tmp_path / "run")
        plan = FaultPlan(
            specs=(
                FaultSpec(site="mrhs.block_breakdown", at={"chunk": 1}, times=2),
            )
        )
        runner = ResilientRunner(_mrhs(n=40, telemetry=hub), injector=plan)
        report = runner.run_steps(3 * M)
        hub.close()
        assert report.degradations == [(1, M // 2)]
        spans = read_trace(tmp_path / "run" / TRACE_FILENAME)
        # Chunk 1 starts three times: two injected breakdowns (before
        # the block solve), then the retry at m/2.
        for name, chunks in (
            ("Construct R0", [0, 1, 1, 1, 2, 3]),
            ("Cheb vectors", [0, 1, 1, 1, 2, 3]),
            ("block_cg.solve", [0, 1, 2, 3]),
        ):
            assert [e.attrs.get("chunk") for e in spans if e.name == name] == chunks


class TestChunkRewindTracksTheAcceptedTimeline:
    @staticmethod
    def _totals(hub):
        names = ("gspmv.calls", "spmv.calls", "cg.iterations", "block_cg.iterations")
        return {n: sum(hub.metrics.counters_matching(n).values()) for n in names}

    def test_degraded_run_equals_the_accepted_chunk_sizes(self):
        hub = TelemetryHub()
        degraded = _mrhs(telemetry=hub)
        plan = FaultPlan(
            specs=(
                FaultSpec(site="mrhs.block_breakdown", at={"chunk": 1}, times=2),
            )
        )
        report = ResilientRunner(degraded, injector=plan).run_steps(12)
        assert report.degradations == [(1, 2)]
        assert [c.m for c in degraded.chunks] == [4, 2, 4, 2]
        _telemetry.uninstall()

        direct_hub = TelemetryHub()
        direct = _mrhs(telemetry=direct_hub)
        for m in (4, 2, 4, 2):
            direct.run_chunk(m)

        assert np.array_equal(degraded.system.positions, direct.system.positions)
        totals = self._totals(hub)
        assert all(v > 0 for v in totals.values())
        assert totals == self._totals(direct_hub)


def _parent_format(state, *, steps_done):
    """Rewrite an MRHS state into the format earlier builds wrote: step
    and chunk summaries ride in the state (the chunk count is their
    length), the pending chunk carries its steps and timings, and there
    is no ``chunks_done``."""
    state = dict(state)
    n_chunks = state.pop("chunks_done")

    def steps(indices):
        n = len(indices)
        return {
            "step_index": np.array(indices, dtype=np.int64),
            "iterations_first": np.zeros(n, dtype=np.int64),
            "iterations_second": np.zeros(n, dtype=np.int64),
            "converged": np.ones(n, dtype=bool),
            "midpoint_scale": np.ones(n),
            "final_scale": np.ones(n),
            "guess_error": np.full(n, np.nan),
        }

    def ragged(n):
        return {
            "flat": np.zeros(0, dtype=np.int64),
            "counts": np.zeros(n, dtype=np.int64),
        }

    chunked = list(range(n_chunks * M))
    state["sd"] = {**state["sd"], "history": steps(list(range(steps_done)))}
    state["chunks"] = {
        "chunk_index": np.arange(n_chunks, dtype=np.int64),
        "m": np.full(n_chunks, M, dtype=np.int64),
        "block_iterations": np.zeros(n_chunks, dtype=np.int64),
        "block_gspmv_calls": np.zeros(n_chunks, dtype=np.int64),
        "block_converged": np.ones(n_chunks, dtype=bool),
        "retries": np.zeros(n_chunks, dtype=np.int64),
        "quarantined": np.zeros(n_chunks, dtype=bool),
        "quarantine_reason": [""] * n_chunks,
        "steps_per_chunk": np.full(n_chunks, M, dtype=np.int64),
        "steps": steps(chunked),
        "fallback": ragged(n_chunks),
        "degradations": ragged(n_chunks),
    }
    if state["pending"] is not None:
        state["pending"] = {
            **state["pending"],
            "steps": steps(list(range(len(chunked), steps_done))),
            "timings_phases": {"Construct R0": 0.01},
            "timings_counts": {"Construct R0": 1},
        }
    return state


class TestParentFormatCheckpoint:
    N_STEPS = 12

    @pytest.mark.parametrize("kill_at", [4, 6])
    def test_resumes_bit_exactly_and_chunk_indices_continue(
        self, tmp_path, kill_at
    ):
        full = ResilientRunner(_mrhs())
        full.run_steps(self.N_STEPS)

        man = CheckpointManager(tmp_path)
        killed = ResilientRunner(
            _mrhs(),
            manager=man,
            checkpoint_every=1,
            injector=FaultPlan(
                specs=(FaultSpec(site="runner.abort", at={"step": kill_at}),)
            ),
        )
        with pytest.raises(SimulationKilled):
            killed.run_steps(self.N_STEPS)
        state, _, _ = man.load_latest()
        man.save(_parent_format(state, steps_done=kill_at), step=kill_at)

        driver = resume_driver(man.load_latest()[0])
        assert driver.chunks_done == kill_at // M
        ResilientRunner(driver).run_steps(self.N_STEPS - kill_at)
        assert np.array_equal(driver.system.positions, full.driver.system.positions)
        assert [c.chunk_index for c in driver.chunks] == list(
            range(kill_at // M, self.N_STEPS // M)
        )
        assert driver.chunks_done == self.N_STEPS // M
