"""Tests for channel fault injection and the robust halo exchange.

The contract under test (DESIGN.md §12, "Halo exchange"): with no fault plan armed the
engine and the exchange are bitwise-identical to the legacy path; with
a *survivable* plan (drops, delays, duplicates, corruptions within the
retry budget) the robust exchange still produces the bitwise-identical
result; crash-stop death surfaces as :class:`RankFailure` naming the
dead ranks.
"""

import numpy as np
import pytest

from repro.distributed.mpi_sim import (
    RECV_TIMEOUT,
    ChannelFaultPlan,
    ChannelFaultSpec,
    DeadlockError,
    MpiSim,
    RankCrashed,
)
from repro.distributed.partition import Partition, contiguous_partition
from repro.distributed.simcluster import DistributedGspmv
from repro.resilience import FaultPlan, FaultSpec, armed
from repro.resilience.faults import RankFailure
from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.gspmv import gspmv
from tests.conftest import random_bcrs
from tests.exchange_sweep import SweepCase, lethal_channel, run_case, sweep


def _ping(ctx):
    if ctx.rank == 0:
        ctx.send(1, tag=0, payload=np.array([42.0]))
    else:
        msg = yield ctx.recv(0, tag=0, timeout=8)
        ctx.result = None if msg is RECV_TIMEOUT else float(msg[0])


class TestChannelFaultSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ChannelFaultSpec(kind="explode")

    def test_crash_requires_rank(self):
        with pytest.raises(ValueError, match="rank"):
            ChannelFaultSpec(kind="crash")

    def test_message_matching_wildcards(self):
        spec = ChannelFaultSpec(kind="drop", src=0)
        assert spec.matches_message(0, 1, 7, 0)
        assert spec.matches_message(0, 2, 3, 9)
        assert not spec.matches_message(1, 0, 7, 0)

    def test_seq_pins_the_nth_channel_message(self):
        spec = ChannelFaultSpec(kind="drop", src=0, dest=1, seq=2)
        assert not spec.matches_message(0, 1, 0, 0)
        assert spec.matches_message(0, 1, 5, 2)


class TestDropDelayDuplicate:
    def test_drop_makes_timed_recv_time_out(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="drop", src=0, dest=1),)
        )
        ctxs = MpiSim(2, fault_plan=plan).run(_ping)
        assert ctxs[1].result is None

    def test_drop_budget_respected(self):
        """times=1 drops only the first message on the channel."""
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="drop", src=0, dest=1, times=1),)
        )

        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, tag=0, payload=np.array([1.0]))
                ctx.send(1, tag=0, payload=np.array([2.0]))
            else:
                msg = yield ctx.recv(0, tag=0, timeout=8)
                ctx.result = float(msg[0])

        ctxs = MpiSim(2, fault_plan=plan).run(program)
        assert ctxs[1].result == 2.0

    def test_delay_arrives_late_but_intact(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="delay", src=0, dest=1, delay=3),)
        )
        ctxs = MpiSim(2, fault_plan=plan).run(_ping)
        assert ctxs[1].result == 42.0

    def test_duplicate_delivers_twice(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="duplicate", src=0, dest=1),)
        )

        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, tag=0, payload=np.array([7.0]))
            else:
                a = yield ctx.recv(0, tag=0, timeout=8)
                b = yield ctx.recv(0, tag=0, timeout=8)
                ctx.result = (float(a[0]), None if b is RECV_TIMEOUT else float(b[0]))

        ctxs = MpiSim(2, fault_plan=plan).run(program)
        assert ctxs[1].result == (7.0, 7.0)

    def test_corrupt_changes_payload_deterministically(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="corrupt", src=0, dest=1),), seed=3
        )
        a = MpiSim(2, fault_plan=plan).run(_ping)[1].result
        b = MpiSim(2, fault_plan=plan).run(_ping)[1].result
        assert a != 42.0
        assert a == b  # seeded noise

    def test_fault_events_recorded(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="drop", src=0, dest=1),)
        )
        sim = MpiSim(2, fault_plan=plan)
        sim.run(_ping)
        assert [e.kind for e in sim.fault_events] == ["drop"]
        assert sim.fault_events[0].src == 0
        assert sim.fault_events[0].dest == 1


class TestCrashStop:
    def test_death_site_kills_matching_rank(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="crash", rank=1, at={"step": 2}),)
        )

        def program(ctx):
            for step in range(4):
                ctx.death_site(step=step)
                ctx.result = step
            yield ctx.barrier() if False else None  # keep it a generator

        sim = MpiSim(3, fault_plan=plan)
        ctxs = sim.run(program)
        assert sim.dead_ranks == {1}
        assert ctxs[1].result == 1  # died entering step 2
        assert ctxs[0].result == 3 and ctxs[2].result == 3

    def test_dead_rank_skipped_on_next_run(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="crash", rank=0, at={}),)
        )

        def die(ctx):
            ctx.death_site()
            yield None

        def touch(ctx):
            ctx.result = "ran"
            yield None

        sim = MpiSim(2, fault_plan=plan)
        sim.run(die)
        assert sim.dead_ranks == {0}
        ctxs = sim.run(touch)
        assert not hasattr(ctxs[0], "result") or ctxs[0].result != "ran"
        assert ctxs[1].result == "ran"

    def test_peer_dead_visible_to_survivors(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="crash", rank=0, at={}),)
        )

        def program(ctx):
            if ctx.rank == 0:
                ctx.death_site()
            yield None
            ctx.result = ctx.peer_dead(0)

        ctxs = MpiSim(2, fault_plan=plan).run(program)
        assert ctxs[1].result is True

    def test_rank_crashed_carries_rank_and_context(self):
        exc = RankCrashed(2, {"step": 5})
        assert "2" in str(exc) and "step" in str(exc)


class TestDeadlockDiagnostics:
    def test_message_names_rank_source_tag_and_depth(self):
        def program(ctx):
            if ctx.rank == 1:
                yield ctx.recv(0, tag=9)

        with pytest.raises(DeadlockError) as err:
            MpiSim(2).run(program)
        text = str(err.value)
        assert "rank 1" in text
        assert "tag" in text and "9" in text

    def test_message_flags_dead_source(self):
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="crash", rank=0, at={}),)
        )

        def program(ctx):
            if ctx.rank == 0:
                ctx.death_site()
                yield None
            else:
                yield ctx.recv(0, tag=0)

        with pytest.raises(DeadlockError) as err:
            MpiSim(2, fault_plan=plan).run(program)
        assert "dead" in str(err.value)


class TestRemapRanks:
    def test_survivor_coordinates_follow_the_mapping(self):
        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="drop", src=2, dest=3),
                ChannelFaultSpec(kind="crash", rank=3, at={"step": 7}),
            ),
            seed=5,
        )
        remapped = plan.remap_ranks({0: 0, 2: 1, 3: 2})
        assert len(remapped) == 2
        assert remapped.specs[0].src == 1 and remapped.specs[0].dest == 2
        assert remapped.specs[1].rank == 2
        assert remapped.seed == 5

    def test_specs_naming_dead_ranks_are_dropped(self):
        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="drop", src=1, dest=0),
                ChannelFaultSpec(kind="crash", rank=1, at={}),
                ChannelFaultSpec(kind="delay", src=0, dest=2),
            )
        )
        remapped = plan.remap_ranks({0: 0, 2: 1})
        assert [s.kind for s in remapped.specs] == ["delay"]

    def test_wildcard_coordinates_survive(self):
        plan = ChannelFaultPlan(specs=(ChannelFaultSpec(kind="drop", src=None),))
        assert len(plan.remap_ranks({0: 0})) == 1


def _case(seed=0, nb=12, p=3, m=3):
    A = random_bcrs(nb, 4.0, seed=seed)
    part = contiguous_partition(A, p)
    X = np.random.default_rng(seed + 1).standard_normal((A.n_cols, m))
    return A, part, X


class TestReliableExchange:
    def test_reliable_matches_legacy_bitwise(self):
        """A spec that never matches (no rank sends to itself) still
        selects the robust exchange, which must equal the plain one."""
        A, part, X = _case()
        legacy = DistributedGspmv(A, part).multiply(X)
        idle = ChannelFaultPlan(specs=(ChannelFaultSpec(kind="drop", src=0, dest=0),))
        dist = DistributedGspmv(A, part, fault_plan=idle)
        assert np.array_equal(legacy, dist.multiply(X))
        assert dist._sim.fault_events == []
        assert dist.last_traffic.messages_sent > dist.plan.total_messages()

    def test_fault_free_plan_armed_is_bitwise_identical(self):
        A, part, X = _case()
        legacy = DistributedGspmv(A, part).multiply(X)
        armed = DistributedGspmv(
            A, part, fault_plan=ChannelFaultPlan()
        ).multiply(X)
        assert np.array_equal(legacy, armed)

    @pytest.mark.parametrize(
        "spec",
        [
            ChannelFaultSpec(kind="drop", seq=0, times=2),
            ChannelFaultSpec(kind="delay", src=0, delay=2, times=3),
            ChannelFaultSpec(kind="duplicate", src=1, times=2),
            ChannelFaultSpec(kind="corrupt", src=0, seq=0, times=1),
        ],
        ids=["drop", "delay", "duplicate", "corrupt"],
    )
    def test_survivable_faults_preserve_result_bitwise(self, spec):
        A, part, X = _case(seed=2)
        clean = DistributedGspmv(A, part).multiply(X)
        dist = DistributedGspmv(
            A, part, fault_plan=ChannelFaultPlan(specs=(spec,), seed=9)
        )
        assert np.array_equal(dist.multiply(X), clean)

    def test_a_persistent_engine_keeps_no_leftovers(self):
        A, part, X = _case(seed=2)
        spec = ChannelFaultSpec(kind="duplicate", times=None)
        dist = DistributedGspmv(A, part, fault_plan=ChannelFaultPlan(specs=(spec,)))
        for _ in range(3):
            dist.multiply(X)
        assert dist._sim._mailboxes == {} and dist._sim._delayed == []

    def test_exchange_log_counts_recoveries(self):
        A, part, X = _case(seed=3)
        spec = ChannelFaultSpec(kind="drop", seq=0, times=1)
        dist = DistributedGspmv(
            A, part, fault_plan=ChannelFaultPlan(specs=(spec,))
        )
        dist.multiply(X)
        ex = dist.last_exchange
        assert len(ex["timeouts"]) >= 1 or len(ex["resends"]) >= 1

    def test_crash_raises_rank_failure_with_ranks(self):
        A, part, X = _case(seed=4)
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="crash", rank=1, at={"step": 0}),)
        )
        dist = DistributedGspmv(A, part, fault_plan=plan)
        with pytest.raises(RankFailure) as err:
            dist.multiply(X, step=0)
        assert 1 in err.value.ranks

    def test_multiply_after_death_fails_fast(self):
        A, part, X = _case(seed=4)
        plan = ChannelFaultPlan(
            specs=(ChannelFaultSpec(kind="crash", rank=1, at={"step": 0}),)
        )
        dist = DistributedGspmv(A, part, fault_plan=plan)
        with pytest.raises(RankFailure):
            dist.multiply(X, step=0)
        with pytest.raises(RankFailure, match="recover"):
            dist.multiply(X, step=1)

    def test_unsurvivable_loss_declares_peer_dead(self):
        """Dropping every message of a channel past the retry budget must
        end in RankFailure, not a hang or a wrong answer."""
        A, part, X = _case(seed=5)
        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="drop", src=0, times=None),
            )
        )
        dist = DistributedGspmv(A, part, fault_plan=plan, max_retries=2)
        with pytest.raises(RankFailure):
            dist.multiply(X)

    def test_reliable_multiply_still_matches_reference(self):
        A, part, X = _case(seed=6)
        spec = ChannelFaultSpec(kind="drop", seq=1, times=1)
        dist = DistributedGspmv(
            A, part, fault_plan=ChannelFaultPlan(specs=(spec,))
        )
        np.testing.assert_allclose(
            dist.multiply(X), gspmv(A, X), rtol=1e-12, atol=1e-12
        )


class TestExchangeSelection:
    """The robust exchange runs exactly when a fault can reach it."""

    def test_no_reachable_fault_runs_the_plain_exchange(self):
        A, part, X = _case(seed=7)
        dist = DistributedGspmv(A, part, fault_plan=ChannelFaultPlan())
        unrelated = FaultPlan(specs=(FaultSpec(site="runner.abort"),))
        with armed(unrelated):
            dist.multiply(X)
        assert dist.last_traffic.messages_sent == dist.plan.total_messages()

    def test_armed_exchange_fault_runs_the_robust_exchange(self):
        A, part, X = _case(seed=7)
        dist = DistributedGspmv(A, part)
        clean = dist.multiply(X)
        with armed(FaultPlan(specs=(FaultSpec(site="comm.exchange", kind="zero"),))):
            assert np.array_equal(dist.multiply(X), clean)
        assert dist.last_traffic.messages_sent > dist.plan.total_messages()
        assert len(dist.last_exchange["repaired"]) == 1


def _pattern(nb, rows, cols):
    """An ``nb``-block-row matrix with exactly the given block pattern."""
    blocks = np.random.default_rng(0).standard_normal((len(rows), 3, 3))
    return BCRSMatrix.from_block_coo(nb, nb, rows, cols, blocks)


#: Survivable plans that once ended in RankFailure: a valid resend
#: missed its round's deadline and was never read in a later round.
#: The first is a hand reduction; the others come from a seeded sweep
#: of the property test's own space (``tests/exchange_sweep.py``).
#: name -> (matrix, part_of_row, m, plan)
PINNED_PLANS = {
    "late-resend": (
        lambda: random_bcrs(6, 2.5, seed=851820),
        [0, 1, 2, 3, 0, 1],
        2,
        ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="drop", src=1, dest=2, times=1),
                ChannelFaultSpec(kind="corrupt", seq=1, times=2),
            ),
            seed=0,
        ),
    ),
    "one-edge-delay-corrupt": (
        lambda: _pattern(2, [0], [1]),
        [0, 1],
        1,
        ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="delay", seq=0, times=1, delay=1),
                ChannelFaultSpec(kind="corrupt", times=2),
            ),
            seed=29,
        ),
    ),
    "two-edge-corrupt": (
        lambda: _pattern(3, [0, 1], [2, 0]),
        [0, 1, 0],
        2,
        ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(kind="corrupt", seq=1, times=1),
                ChannelFaultSpec(kind="corrupt", dest=0, seq=0, times=1),
            ),
            seed=92,
        ),
    ),
}


def test_a_resend_late_for_its_round_lands_in_a_later_one():
    """Channel 0 -> 1 carries only rank 0's copies of its block: attempt
    0 is dropped, attempt 1 is held past round 1's deadline, attempts 2
    and 3 are dropped.  Only the late copy can deliver the block."""
    A = _pattern(2, [1], [0])
    part = Partition(part_of_row=np.array([0, 1]), n_parts=2)
    X = np.random.default_rng(1).standard_normal((A.n_cols, 2))
    plan = ChannelFaultPlan(
        specs=(
            ChannelFaultSpec(kind="delay", src=0, dest=1, seq=1, delay=12),
            ChannelFaultSpec(kind="drop", src=0, dest=1, times=3),
        )
    )
    dist = DistributedGspmv(A, part, fault_plan=plan)
    assert np.array_equal(dist.multiply(X), DistributedGspmv(A, part).multiply(X))
    assert dist.last_exchange["stragglers"] == [(0, 1, 2)]


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_pinned_plans_are_bitwise_invisible(name):
    make_matrix, part_of_row, m, plan = PINNED_PLANS[name]
    A = make_matrix()
    part = Partition(part_of_row=np.array(part_of_row), n_parts=max(part_of_row) + 1)
    X = np.random.default_rng(1).standard_normal((A.n_cols, m))
    clean = DistributedGspmv(A, part).multiply(X)
    assert np.array_equal(
        DistributedGspmv(A, part, fault_plan=plan).multiply(X), clean
    )


class TestExchangeSweep:
    """The seeded sweep (run in full by CI) and its counting argument."""

    def test_a_short_sweep_is_clean(self):
        assert sweep(200, seed=0)["failures"] == []

    @staticmethod
    def _case(rows, cols, plan):
        A = _pattern(3, rows, cols)
        part = Partition(part_of_row=np.array([0, 1, 2]), n_parts=3)
        X = np.random.default_rng(1).standard_normal((A.n_cols, 2))
        return SweepCase(A, part, X, plan)

    FOUR_LOSSES = ChannelFaultPlan(
        specs=(
            ChannelFaultSpec(kind="drop", src=1, dest=2, times=2),
            ChannelFaultSpec(kind="corrupt", src=1, dest=2, times=2),
        )
    )

    def test_four_losses_on_a_one_way_channel_are_lethal(self):
        case = self._case([2], [1], self.FOUR_LOSSES)
        assert lethal_channel(case) == (1, 2)
        assert run_case(case) == "rank_failure"

    def test_status_traffic_on_the_channel_absorbs_them(self):
        """With data both ways, 1 -> 2 also carries rank 1's status
        messages about rank 2's block; the four strikes no longer all
        land on block copies."""
        case = self._case([2, 1], [1, 2], self.FOUR_LOSSES)
        assert lethal_channel(case) is None
        assert run_case(case) is None
