"""Tests for distributed GSPMV execution and the multi-node time model."""

import numpy as np
import pytest

from repro.distributed.netmodel import INFINIBAND, NetworkSpec
from repro.distributed.partition import contiguous_partition, coordinate_partition
from repro.distributed.simcluster import DistributedGspmv, MultiNodeTimeModel
from repro.perfmodel.machine import CLUSTER_NODE
from repro.sparse.convert import bcrs_to_scipy
from repro.sparse.gspmv import gspmv
from repro.stokesian.packing import random_configuration
from repro.stokesian.resistance import build_resistance_matrix


@pytest.fixture(scope="module")
def sd_case():
    system = random_configuration(80, 0.3, rng=1)
    A = build_resistance_matrix(system)
    return system, A


class TestNetworkSpec:
    def test_infiniband_published_values(self):
        assert INFINIBAND.latency == pytest.approx(1.5e-6)
        assert INFINIBAND.bandwidth == pytest.approx(3380 * 2**20)

    def test_transfer_time(self):
        net = NetworkSpec("x", latency=1e-6, bandwidth=1e9)
        assert net.transfer_time(3, 2e6) == pytest.approx(3e-6 + 2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec("x", latency=-1.0, bandwidth=1e9)
        with pytest.raises(ValueError):
            INFINIBAND.transfer_time(-1, 0)


class TestDistributedGspmv:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_matches_single_node_exactly(self, sd_case, p):
        """Distributing a product must not change its result beyond the
        rounding of a reordered row sum.

        A rank's local product may sum a row in another order than the
        single-node engine, so an element whose row cancels (entries of
        1e3-1e4 summing to ~0.4) can differ by far more than a relative
        1e-13 of itself.  The bound is therefore the componentwise one
        for a reordered sum, ``1e-13 * (|A| @ |X|)``.
        """
        system, A = sd_case
        part = coordinate_partition(system, A, p)
        dist = DistributedGspmv(A, part)
        X = np.random.default_rng(p).standard_normal((A.n_cols, 4))
        scale = abs(bcrs_to_scipy(A)) @ np.abs(X)
        assert np.all(np.abs(dist.multiply(X) - gspmv(A, X)) <= 1e-13 * scale)

    def test_single_vector(self, sd_case):
        system, A = sd_case
        dist = DistributedGspmv(A, coordinate_partition(system, A, 3))
        x = np.random.default_rng(9).standard_normal(A.n_cols)
        y = dist.multiply(x)
        assert y.ndim == 1
        np.testing.assert_allclose(y, gspmv(A, x), rtol=1e-13)

    def test_contiguous_partition_works_too(self, sd_case):
        _, A = sd_case
        dist = DistributedGspmv(A, contiguous_partition(A, 5))
        X = np.ones((A.n_cols, 2))
        np.testing.assert_allclose(dist.multiply(X), gspmv(A, X), rtol=1e-13)

    def test_measured_traffic_matches_plan(self, sd_case):
        """The engine's metered bytes must equal the plan's volume."""
        system, A = sd_case
        part = coordinate_partition(system, A, 4)
        dist = DistributedGspmv(A, part)
        m = 3
        dist.multiply(np.ones((A.n_cols, m)))
        assert dist.last_traffic.bytes_sent == dist.plan.total_volume_bytes(m)
        assert dist.last_traffic.messages_sent == dist.plan.total_messages()

    def test_shape_validation(self, sd_case):
        system, A = sd_case
        dist = DistributedGspmv(A, coordinate_partition(system, A, 2))
        with pytest.raises(ValueError):
            dist.multiply(np.ones((A.n_cols + 3, 2)))

    def test_nonsquare_rejected(self):
        from repro.distributed.partition import Partition
        from repro.sparse.bcrs import BCRSMatrix

        A = BCRSMatrix.from_block_coo(2, 3, [0], [2], np.eye(3)[None])
        part = Partition(part_of_row=np.array([0, 1]), n_parts=2)
        with pytest.raises(ValueError):
            DistributedGspmv(A, part)


class TestMultiNodeTimeModel:
    def make_model(self, sd_case, p, **kw):
        system, A = sd_case
        part = coordinate_partition(system, A, p)
        return MultiNodeTimeModel(A, part, CLUSTER_NODE, INFINIBAND, **kw)

    def test_r1_is_one(self, sd_case):
        model = self.make_model(sd_case, 4)
        assert model.relative_time(1) == pytest.approx(1.0)

    def test_relative_time_nondecreasing(self, sd_case):
        model = self.make_model(sd_case, 4)
        rs = [model.relative_time(m) for m in range(1, 17)]
        assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))

    def test_many_nodes_flatten_the_curve(self, sd_case):
        """The Figure 3/4 signature: at large p communication latency
        dominates, so extra vectors are nearly free — r(m, p_large) <
        r(m, 1)."""
        single = self.make_model(sd_case, 1)
        many = self.make_model(sd_case, 16)
        m = 16
        assert many.relative_time(m) < single.relative_time(m)

    def test_comm_fraction_grows_with_nodes(self, sd_case):
        """Table III: comm fraction rises with node count at fixed m."""
        f4 = self.make_model(sd_case, 4).communication_fraction(1)
        f16 = self.make_model(sd_case, 16).communication_fraction(1)
        assert f16 > f4

    def test_comm_fraction_falls_with_m(self, sd_case):
        """Table III: more vectors amortize latency, the compute share
        grows, the comm fraction falls (88% -> 52% style)."""
        model = self.make_model(sd_case, 16)
        f1 = model.communication_fraction(1)
        f32 = model.communication_fraction(32)
        assert f32 < f1

    def test_single_part_no_comm_time(self, sd_case):
        model = self.make_model(sd_case, 1)
        assert model.comm_time(0, 8) == 0.0
        assert model.communication_fraction(4) == 0.0

    def test_overlap_not_slower(self, sd_case):
        over = self.make_model(sd_case, 8, overlap=True)
        nover = self.make_model(sd_case, 8, overlap=False)
        for m in (1, 8):
            assert over.time(m) <= nover.time(m) + 1e-15

    def test_m_validation(self, sd_case):
        with pytest.raises(ValueError):
            self.make_model(sd_case, 2).time(0)

    def test_compute_time_includes_gather(self, sd_case):
        """Ranks that send boundary data pay the packing traffic."""
        system, A = sd_case
        part = coordinate_partition(system, A, 4)
        model = MultiNodeTimeModel(A, part, CLUSTER_NODE, INFINIBAND)
        r = max(range(4), key=lambda q: model.plan.send_volume_bytes(q, 1))
        shape = model._rank_shapes[r]
        from repro.perfmodel.roofline import time_bandwidth, time_compute

        bare = max(
            time_bandwidth(shape, 4, CLUSTER_NODE, 0.0),
            time_compute(shape, 4, CLUSTER_NODE),
        )
        assert model.compute_time(r, 4) > bare
