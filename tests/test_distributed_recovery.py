"""Tests for checkpoint shards, row re-homing, and rank recovery.

The headline contract: a run that loses a rank mid-flight and recovers
from the newest shard wave ends on the same trajectory a fault-free
run produces — "checkpoint-replay semantics" (DESIGN.md §12).
"""

import numpy as np
import pytest

from repro.distributed.driver import DistributedSimulation
from repro.distributed.mpi_sim import ChannelFaultPlan, ChannelFaultSpec
from repro.distributed.partition import contiguous_partition, rehome_rows
from repro.distributed.recovery import RankRecoveryManager
from repro.resilience.checkpoint import (
    CheckpointCorruptionError,
    CheckpointManager,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    RankFailure,
    arm,
    disarm,
)
from repro.resilience import runner as runner_mod
from repro.resilience.runner import ResilienceExhausted
from repro.resilience.runner import ResilientRunner
from tests.conftest import random_bcrs


def _shard(rank, step, n=4, m=2):
    rng = np.random.default_rng(100 * rank + step)
    return {
        "kind": "distsim-shard",
        "rows": np.arange(rank * n, (rank + 1) * n),
        "X": rng.standard_normal((n, 3, m)),
        "step_index": step,
    }


class TestShardCheckpoints:
    def test_shard_roundtrip(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for r in range(3):
            mgr.save_shard(_shard(r, 5), step=5, rank=r)
        states, step = mgr.load_shards(expect_ranks=3)
        assert step == 5
        assert sorted(states) == [0, 1, 2]
        np.testing.assert_array_equal(states[1]["X"], _shard(1, 5)["X"])

    def test_newest_complete_wave_wins(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for r in range(2):
            mgr.save_shard(_shard(r, 2), step=2, rank=r)
        # Step 4 wave is incomplete: only rank 0 made it.
        mgr.save_shard(_shard(0, 4), step=4, rank=0)
        states, step = mgr.load_shards(expect_ranks=2)
        assert step == 2

    def test_no_wave_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(FileNotFoundError):
            mgr.load_shards(expect_ranks=2)

    def test_corrupt_shard_falls_back_to_older_wave(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for r in range(2):
            mgr.save_shard(_shard(r, 1), step=1, rank=r)
        for r in range(2):
            mgr.save_shard(_shard(r, 3), step=3, rank=r)
        bad = mgr.shard_path_for(3, 1)
        bad.write_bytes(bad.read_bytes()[:-20])
        states, step = mgr.load_shards(expect_ranks=2)
        assert step == 1

    def test_explicit_step_incomplete_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save_shard(_shard(0, 2), step=2, rank=0)
        with pytest.raises(CheckpointCorruptionError):
            mgr.load_shards(step=2, expect_ranks=2)

    def test_shards_do_not_pollute_global_checkpoints(self, tmp_path):
        """Shard files must be invisible to the global checkpoint
        listing — retention pruning of one must not eat the other."""
        mgr = CheckpointManager(tmp_path, keep=2)
        mgr.save_shard(_shard(0, 1), step=1, rank=0)
        assert mgr.checkpoints() == []
        for step in range(5):
            mgr.save({"kind": "t", "x": np.zeros(2)}, step=step)
        assert len(mgr.shard_steps()) == 1  # shards survived global prune

    def test_shard_retention_prunes_old_waves(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            for r in range(2):
                mgr.save_shard(_shard(r, step), step=step, rank=r)
        assert mgr.shard_steps() == [3, 4]


    def test_enospc_shard_spills_and_recovers(self, tmp_path):
        """A shard write that hits ENOSPC takes the global checkpoints'
        degraded ladder: it lands in the spill directory, where
        ``load_shards`` and rank recovery find it."""
        clean = _driver(seed=7)
        clean.run_steps(4)

        mgr = CheckpointManager(tmp_path / "ck", spill_dir=tmp_path / "spill")
        sim = _driver(seed=7)
        sim.recovery = RankRecoveryManager(mgr)
        sim.run_steps(2)
        arm(FaultPlan(specs=[FaultSpec(
            site="io.enospc", at={"writer": "atomic_savez"}, times=1
        )]))
        try:
            sim.recovery.checkpoint(sim)
        finally:
            disarm()
        spilled = tmp_path / "spill" / mgr.shard_path_for(2, 0).name
        assert spilled.exists() and not mgr.shard_path_for(2, 0).exists()
        assert mgr.spills == 1
        assert mgr.shards_at(2)[0] == spilled
        states, step = mgr.load_shards(expect_ranks=4)
        assert step == 2 and sorted(states) == [0, 1, 2, 3]

        sim.run_steps(2)
        report = sim.recovery.recover(sim, [1])
        assert report.restored_step == 2 and report.replayed_steps == 2
        assert sim.n_parts == 3
        np.testing.assert_allclose(sim.X, clean.X, rtol=1e-12, atol=1e-14)


class TestRehomeRows:
    def test_rows_conserved_and_survivors_renumbered(self):
        A = random_bcrs(12, 4.0, seed=0)
        part = contiguous_partition(A, 4)
        new = rehome_rows(part, (1,), A)
        assert new.n_parts == 3
        assert len(new.part_of_row) == 12
        assert set(np.unique(new.part_of_row)) <= {0, 1, 2}

    def test_surviving_rows_keep_relative_owner(self):
        A = random_bcrs(12, 4.0, seed=1)
        part = contiguous_partition(A, 4)
        new = rehome_rows(part, (2,), A)
        survivors = [0, 1, 3]
        for old_rank, new_rank in zip(survivors, range(3)):
            old_rows = set(part.rows_of(old_rank))
            new_rows = set(new.rows_of(new_rank))
            assert old_rows <= new_rows

    def test_deterministic(self):
        A = random_bcrs(16, 5.0, seed=2)
        part = contiguous_partition(A, 4)
        a = rehome_rows(part, (0, 2), A)
        b = rehome_rows(part, (0, 2), A)
        np.testing.assert_array_equal(a.part_of_row, b.part_of_row)
        assert a.n_parts == b.n_parts == 2

    def test_all_dead_rejected(self):
        A = random_bcrs(8, 3.0, seed=3)
        part = contiguous_partition(A, 2)
        with pytest.raises(ValueError):
            rehome_rows(part, (0, 1), A)


def _driver(tmp_path=None, *, p=4, nb=16, m=3, seed=0, plan=None, **kw):
    A = random_bcrs(nb, 4.0, seed=seed)
    part = contiguous_partition(A, p)
    X0 = np.random.default_rng(seed + 1).standard_normal((A.n_rows, m))
    recovery = None
    if tmp_path is not None:
        recovery = RankRecoveryManager(CheckpointManager(tmp_path))
    return DistributedSimulation(
        A, part, X0, fault_plan=plan, recovery=recovery, **kw
    )


def _crash(rank, step):
    return ChannelFaultPlan(
        specs=(ChannelFaultSpec(kind="crash", rank=rank, at={"step": step}),)
    )


class TestRankRecovery:
    def test_recovered_trajectory_matches_clean_run(self, tmp_path):
        clean = _driver(seed=7)
        clean.run_steps(10)

        sim = _driver(tmp_path, seed=7, plan=_crash(1, 5))
        sim.run_steps(10, checkpoint_every=2)
        assert sim.n_parts == 3
        assert len(sim.recoveries) == 1
        rep = sim.recoveries[0]
        assert rep.dead_ranks == (1,)
        assert rep.restored_step == 4 and rep.target_step == 5
        assert rep.replayed_steps == 1
        np.testing.assert_allclose(sim.X, clean.X, rtol=1e-12, atol=1e-14)

    def test_recovery_without_manager_propagates(self):
        sim = _driver(None, seed=7, plan=_crash(1, 2))
        with pytest.raises(RankFailure):
            sim.run_steps(5)

    def test_recovery_budget_enforced(self, tmp_path):
        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="crash", rank=1, at={"step": 3}),
                ChannelFaultSpec(kind="crash", rank=2, at={"step": 6}),
            )
        )
        sim = _driver(tmp_path, seed=8, plan=plan, max_recoveries=1)
        with pytest.raises(RankFailure):
            sim.run_steps(10, checkpoint_every=2)
        assert len(sim.recoveries) == 1

    def test_two_sequential_deaths_with_budget_two(self, tmp_path):
        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="crash", rank=1, at={"step": 3}),
                ChannelFaultSpec(kind="crash", rank=2, at={"step": 6}),
            )
        )
        clean = _driver(seed=8)
        clean.run_steps(10)
        sim = _driver(tmp_path, seed=8, plan=plan, max_recoveries=2)
        sim.run_steps(10, checkpoint_every=2)
        assert sim.n_parts == 2
        assert len(sim.recoveries) == 2
        np.testing.assert_allclose(sim.X, clean.X, rtol=1e-12, atol=1e-14)

    def test_degradation_survives_recovery(self, tmp_path):
        """Shards written at full width must not resurrect shed columns."""
        clean = _driver(seed=9, m=4)
        clean.run_steps(10)

        sim = _driver(tmp_path, seed=9, m=4, plan=_crash(2, 6))
        sim.run_steps(4, checkpoint_every=2)
        sim.degrade_m(2)
        sim.run_steps(6, checkpoint_every=2)
        assert sim.m == 2
        np.testing.assert_allclose(
            sim.X, clean.X[:, :2], rtol=1e-12, atol=1e-14
        )

    def test_no_shard_wave_recovery_fails(self, tmp_path):
        sim = _driver(tmp_path, seed=10, plan=_crash(0, 1))
        with pytest.raises(FileNotFoundError):
            sim.run_steps(5)  # crash fires before any checkpoint exists

    def test_checkpoint_every_requires_manager(self):
        sim = _driver(None, seed=0)
        with pytest.raises(ValueError, match="recovery manager"):
            sim.run_steps(2, checkpoint_every=1)

    def test_recovery_counters_recorded(self, tmp_path):
        import repro.telemetry as _telemetry
        from repro.telemetry import TelemetryHub

        hub = TelemetryHub(tmp_path / "telem")
        _telemetry.install(hub)
        try:
            sim = _driver(tmp_path / "ck", seed=7, plan=_crash(1, 5))
            sim.run_steps(8, checkpoint_every=2)
        finally:
            hub.close()
            _telemetry.uninstall()
        snap = hub.metrics.as_dict()
        assert snap["counters"]["recovery.events"] == 1
        assert snap["counters"]["recovery.ranks_lost"] == 1
        assert snap["counters"]["recovery.replayed_steps"] >= 1
        assert snap["histograms"]["recovery.seconds"]["count"] == 1
        assert snap["counters"]["checkpoint.shard_writes"] > 0


class TestRunnerComposition:
    def test_runner_recovers_past_driver_budget(self, tmp_path):
        """Driver budget exhausted -> runner degrades m and recovers."""
        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="crash", rank=1, at={"step": 3}),
                ChannelFaultSpec(kind="crash", rank=2, at={"step": 6}),
            )
        )
        sim = _driver(tmp_path, seed=11, m=4, plan=plan, max_recoveries=1)
        runner = ResilientRunner(
            sim,
            manager=sim.recovery.manager,
            checkpoint_every=2,
        )
        report = runner.run_steps(10)
        assert report.steps_completed == 10
        assert sim.n_parts == 2
        assert len(sim.recoveries) == 2
        assert report.rank_recoveries  # the runner-level one is recorded
        assert report.degradations  # runner degraded before recovering

    def test_runner_policy_exhaustion(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "MAX_RANK_RECOVERIES", 1)
        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="crash", rank=1, at={"step": 2}),
                ChannelFaultSpec(kind="crash", rank=2, at={"step": 4}),
            )
        )
        sim = _driver(tmp_path, seed=12, plan=plan, max_recoveries=0)
        runner = ResilientRunner(
            sim,
            manager=sim.recovery.manager,
            checkpoint_every=1,
        )
        with pytest.raises(ResilienceExhausted):
            runner.run_steps(10)

    def test_min_ranks_floor(self, tmp_path):
        plan = _crash(1, 2)
        A = random_bcrs(8, 3.0, seed=13)
        part = contiguous_partition(A, 2)
        X0 = np.random.default_rng(1).standard_normal((A.n_rows, 2))
        sim = DistributedSimulation(
            A, part, X0, fault_plan=plan,
            recovery=RankRecoveryManager(CheckpointManager(tmp_path)),
            max_recoveries=0,
        )
        runner = ResilientRunner(
            sim,
            manager=sim.recovery.manager,
            checkpoint_every=1,
        )
        with pytest.raises(ResilienceExhausted, match="rank"):
            runner.run_steps(6)

    def test_distributed_driver_state_roundtrip(self, tmp_path):
        sim = _driver(None, seed=14)
        sim.run_steps(3)
        state = sim.get_state()
        sim2 = _driver(None, seed=14)
        sim2.set_state(state)
        sim.run_steps(2)
        sim2.run_steps(2)
        np.testing.assert_array_equal(sim.X, sim2.X)


class TestRecoveryPolicy:
    def test_defaults(self):
        assert runner_mod.MAX_RANK_RECOVERIES >= 1
        assert runner_mod.MIN_RANKS >= 1
