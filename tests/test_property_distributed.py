"""Property-based tests (hypothesis) for the distributed substrate."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.distributed.comm import build_comm_plan
from repro.distributed.mpi_sim import MpiSim
from repro.distributed.partition import Partition, contiguous_partition
from repro.distributed.simcluster import DistributedGspmv
from repro.sparse.gspmv import gspmv
from tests.exchange_sweep import SweepCase, lethal_channel
from tests.test_property_sparse import bcrs_matrices


@st.composite
def partitioned_cases(draw):
    A = draw(bcrs_matrices(max_nb=8, square=True))
    p = draw(st.integers(1, A.nb_rows))
    # Arbitrary (not necessarily contiguous) assignment covering all parts.
    assignment = [draw(st.integers(0, p - 1)) for _ in range(A.nb_rows)]
    # Guarantee every part non-empty by round-robin stamping the first p rows.
    for r in range(min(p, A.nb_rows)):
        assignment[r] = r
    return A, Partition(part_of_row=np.array(assignment), n_parts=p)


class TestCommPlanProperties:
    @settings(max_examples=40, deadline=None)
    @given(case=partitioned_cases())
    def test_send_recv_duality(self, case):
        A, part = case
        plan = build_comm_plan(A, part)
        for r in range(part.n_parts):
            for s, cols in plan.recv_cols[r].items():
                np.testing.assert_array_equal(plan.send_cols[s][r], cols)
        total_sent = sum(
            plan.send_volume_bytes(r, 1) for r in range(part.n_parts)
        )
        total_recv = sum(
            plan.recv_volume_bytes(r, 1) for r in range(part.n_parts)
        )
        assert total_sent == total_recv

    @settings(max_examples=40, deadline=None)
    @given(case=partitioned_cases(), m=st.integers(1, 8))
    def test_volume_linear_in_m(self, case, m):
        A, part = case
        plan = build_comm_plan(A, part)
        assert plan.total_volume_bytes(m) == m * plan.total_volume_bytes(1)

    @settings(max_examples=40, deadline=None)
    @given(case=partitioned_cases())
    def test_no_self_messages(self, case):
        A, part = case
        plan = build_comm_plan(A, part)
        for r in range(part.n_parts):
            assert r not in plan.recv_cols[r]
            assert r not in plan.send_cols[r]


class TestDistributedExecutionProperties:
    @settings(max_examples=25, deadline=None)
    @given(case=partitioned_cases(), m=st.integers(1, 4), seed=st.integers(0, 999))
    def test_distribution_invariance(self, case, m, seed):
        """The partition must never change the numerical result."""
        A, part = case
        dist = DistributedGspmv(A, part)
        X = np.random.default_rng(seed).standard_normal((A.n_cols, m))
        np.testing.assert_allclose(
            dist.multiply(X), gspmv(A, X), rtol=1e-12, atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(case=partitioned_cases(), m=st.integers(1, 3))
    def test_metered_traffic_equals_plan(self, case, m):
        A, part = case
        dist = DistributedGspmv(A, part)
        dist.multiply(np.ones((A.n_cols, m)))
        assert dist.last_traffic.bytes_sent == dist.plan.total_volume_bytes(m)
        assert dist.last_traffic.bytes_sent == dist.last_traffic.bytes_received


class TestPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(A=bcrs_matrices(max_nb=10), p_frac=st.floats(0.1, 1.0))
    def test_contiguous_partition_covers_everything(self, A, p_frac):
        p = max(1, int(A.nb_rows * p_frac))
        part = contiguous_partition(A, p)
        counts = part.rows_per_part()
        assert counts.sum() == A.nb_rows
        assert np.all(counts > 0)
        assert np.all(np.diff(part.part_of_row) >= 0)

    @settings(max_examples=40, deadline=None)
    @given(A=bcrs_matrices(max_nb=10))
    def test_nnz_conservation(self, A):
        p = max(1, A.nb_rows // 2)
        part = contiguous_partition(A, p)
        assert part.nnz_per_part(A).sum() == A.nnzb


class TestMpiSimProperties:
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(2, 6), n_msgs=st.integers(1, 5), seed=st.integers(0, 999))
    def test_all_to_one_gather(self, size, n_msgs, seed):
        """Rank 0 gathers every message from every rank, any order."""
        rng = np.random.default_rng(seed)
        payloads = {
            (src, k): rng.standard_normal(3)
            for src in range(1, size)
            for k in range(n_msgs)
        }

        def program(ctx):
            if ctx.rank == 0:
                received = {}
                for src in range(1, ctx.size):
                    for k in range(n_msgs):
                        msg = yield ctx.recv(src, tag=k)
                        received[(src, k)] = msg
                ctx.result = received
            else:
                for k in range(n_msgs):
                    ctx.send(0, tag=k, payload=payloads[(ctx.rank, k)])

        ctxs = MpiSim(size).run(program)
        got = ctxs[0].result
        assert set(got) == set(payloads)
        for key, val in payloads.items():
            np.testing.assert_array_equal(got[key], val)


@st.composite
def survivable_fault_plans(draw):
    """Message-fault plans the robust exchange must absorb: bounded
    drops/delays/duplicates/corruptions, never a crash (less the rare
    plan that provably destroys every attempt on one channel — see
    :func:`tests.exchange_sweep.lethal_channel`)."""
    from repro.distributed.mpi_sim import ChannelFaultPlan, ChannelFaultSpec

    n_specs = draw(st.integers(1, 3))
    specs = []
    for _ in range(n_specs):
        kind = draw(st.sampled_from(["drop", "delay", "duplicate", "corrupt"]))
        specs.append(
            ChannelFaultSpec(
                kind=kind,
                src=draw(st.one_of(st.none(), st.integers(0, 3))),
                dest=draw(st.one_of(st.none(), st.integers(0, 3))),
                seq=draw(st.one_of(st.none(), st.integers(0, 2))),
                times=draw(st.integers(1, 2)),
                delay=draw(st.integers(1, 3)),
            )
        )
    return ChannelFaultPlan(specs=tuple(specs), seed=draw(st.integers(0, 99)))


class TestFaultToleranceProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        case=partitioned_cases(),
        m=st.integers(1, 3),
        seed=st.integers(0, 999),
        plan=survivable_fault_plans(),
    )
    def test_survivable_schedules_are_bitwise_invisible(
        self, case, m, seed, plan
    ):
        """Any bounded loss/reorder/duplication/corruption schedule the
        retry ladder can absorb must leave the result bitwise equal to
        the fault-free exchange."""
        A, part = case
        X = np.random.default_rng(seed).standard_normal((A.n_cols, m))
        assume(lethal_channel(SweepCase(A, part, X, plan)) is None)
        clean = DistributedGspmv(A, part).multiply(X)
        faulty = DistributedGspmv(A, part, fault_plan=plan).multiply(X)
        assert np.array_equal(clean, faulty)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 200),
        dead_rank=st.integers(0, 2),
        # The crash must land after at least one shard wave exists:
        # waves are written at step multiples of the cadence, so any
        # crash_step >= max(cadence) is recoverable.
        crash_step=st.integers(3, 7),
        cadence=st.integers(1, 3),
    )
    def test_one_rank_death_recovers_to_clean_trajectory(
        self, tmp_path_factory, seed, dead_rank, crash_step, cadence
    ):
        """Kill any rank at any step: shard rollback + replay must land
        on the clean run's trajectory (checkpoint-replay semantics)."""
        from repro.distributed.driver import DistributedSimulation
        from repro.distributed.mpi_sim import ChannelFaultPlan, ChannelFaultSpec
        from repro.distributed.recovery import RankRecoveryManager
        from repro.resilience.checkpoint import CheckpointManager
        from tests.conftest import random_bcrs

        A = random_bcrs(12, 4.0, seed=seed)
        part = contiguous_partition(A, 3)
        X0 = np.random.default_rng(seed + 1).standard_normal((A.n_rows, 2))

        clean = DistributedSimulation(A, part, X0)
        clean.run_steps(10)

        plan = ChannelFaultPlan(
            specs=(
                ChannelFaultSpec(
                    kind="crash", rank=dead_rank, at={"step": crash_step}
                ),
            )
        )
        ck = tmp_path_factory.mktemp("shards")
        sim = DistributedSimulation(
            A, part, X0, fault_plan=plan,
            recovery=RankRecoveryManager(CheckpointManager(ck)),
        )
        sim.run_steps(10, checkpoint_every=cadence)
        assert sim.n_parts == 2
        assert len(sim.recoveries) == 1
        np.testing.assert_allclose(sim.X, clean.X, rtol=1e-12, atol=1e-14)
