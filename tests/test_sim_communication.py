"""Communication cost-model tests."""

import math

import numpy as np
import pytest

from repro.cluster import presets
from repro.cluster.topology import Topology
from repro.exceptions import SimulationError, SpecError
from repro.sim import CommunicationModel


@pytest.fixture
def comm(fire):
    return CommunicationModel(cluster=fire)


class TestPointToPoint:
    def test_intra_node_cheaper_than_inter(self, comm):
        intra = comm.p2p_time(1e6, 0, 0)
        inter = comm.p2p_time(1e6, 0, 1)
        assert intra < inter

    def test_alpha_beta_structure(self, comm, fire):
        nic = fire.node.nic
        hops = fire.topology.hops(0, 1)
        expected = hops * nic.latency_s + 1e6 / nic.bandwidth
        assert comm.p2p_time(1e6, 0, 1) == pytest.approx(expected)

    def test_zero_bytes_is_pure_latency(self, comm, fire):
        t = comm.p2p_time(0, 0, 1)
        assert t == pytest.approx(fire.topology.hops(0, 1) * fire.node.nic.latency_s)

    def test_negative_bytes_rejected(self, comm):
        with pytest.raises(SimulationError):
            comm.p2p_time(-1, 0, 1)


class TestCollectives:
    def test_all_zero_for_single_rank(self, comm):
        assert comm.broadcast_time(1e6, 1) == 0.0
        assert comm.allreduce_time(1e6, 1) == 0.0
        assert comm.allgather_time(1e6, 1) == 0.0
        assert comm.alltoall_time(1e6, 1) == 0.0
        assert comm.barrier_time(1) == 0.0

    def test_broadcast_log_rounds(self, comm):
        t8 = comm.broadcast_time(1e6, 8)
        t64 = comm.broadcast_time(1e6, 64)
        assert t64 == pytest.approx(2 * t8)  # log2 64 = 2 * log2 8

    def test_allreduce_grows_with_ranks(self, comm):
        times = [comm.allreduce_time(1e6, p) for p in (2, 4, 16, 64)]
        assert times == sorted(times)

    def test_allreduce_bandwidth_term_bounded(self, comm, fire):
        """The 2m(p-1)/(p beta) term approaches 2m/beta from below."""
        m = 1e8
        bound = 2 * m / fire.node.nic.bandwidth
        t = comm.allreduce_time(m, 1024 if fire.total_cores >= 1024 else 128)
        latency = 2 * math.log2(128) * comm.effective_latency()
        assert t - latency < bound

    def test_alltoall_linear_in_ranks(self, comm):
        t4 = comm.alltoall_time(1e5, 4)
        t16 = comm.alltoall_time(1e5, 16)
        assert t16 == pytest.approx(5 * t4)  # (16-1)/(4-1)

    def test_allgather_total_volume(self, comm, fire):
        p = 8
        per_rank = 1e6
        t = comm.allgather_time(per_rank, p)
        volume_time = (p - 1) / p * per_rank * p / fire.node.nic.bandwidth
        assert t == pytest.approx((p - 1) * comm.effective_latency() + volume_time)

    def test_barrier_log_scaling(self, comm):
        assert comm.barrier_time(128) == pytest.approx(
            7 * comm.effective_latency()
        )

    def test_single_node_cluster_latency(self, fire):
        single = fire.with_nodes(1)
        comm = CommunicationModel(cluster=single)
        assert comm.effective_latency() < 1e-6  # shared-memory latency


class TestBatchForms:
    """The vectorized batch methods must match the scalars elementwise."""

    sizes = [0.0, 1.0, 512.0, 1e5, 1e6, 3.7e8]

    @pytest.mark.parametrize("op", CommunicationModel.COLLECTIVE_OPS)
    @pytest.mark.parametrize("num_ranks", [1, 2, 7, 64])
    def test_collective_times_match_scalars(self, comm, op, num_ranks):
        scalar = getattr(comm, f"{op}_time")
        batch = comm.collective_times(op, self.sizes, num_ranks)
        assert batch.shape == (len(self.sizes),)
        for got, m in zip(batch, self.sizes):
            assert got == pytest.approx(scalar(m, num_ranks), rel=1e-12, abs=0.0)

    def test_collective_times_unknown_op(self, comm):
        with pytest.raises(SimulationError, match="op must be one of"):
            comm.collective_times("gossip", [1.0], 4)

    def test_collective_times_negative_bytes(self, comm):
        with pytest.raises(SimulationError):
            comm.collective_times("broadcast", [1.0, -2.0], 4)

    def test_p2p_times_match_scalars(self, comm, fire):
        nodes = fire.num_nodes
        m = np.array(self.sizes)
        a = np.arange(len(self.sizes)) % nodes
        b = (np.arange(len(self.sizes)) * 3 + 1) % nodes
        batch = comm.p2p_times(m, a, b)
        for k in range(len(self.sizes)):
            assert batch[k] == pytest.approx(
                comm.p2p_time(float(m[k]), int(a[k]), int(b[k])), rel=1e-12, abs=0.0
            )

    def test_p2p_times_broadcasts_scalar_endpoints(self, comm):
        batch = comm.p2p_times(self.sizes, 0, 1)
        assert batch.shape == (len(self.sizes),)
        assert batch[0] == pytest.approx(comm.p2p_time(0.0, 0, 1))

    def test_p2p_times_intra_node(self, comm):
        batch = comm.p2p_times([1e6], 2, 2)
        assert batch[0] == pytest.approx(comm.p2p_time(1e6, 2, 2))

    def test_p2p_times_negative_bytes(self, comm):
        with pytest.raises(SimulationError):
            comm.p2p_times([-1.0], 0, 1)

    def test_p2p_times_fat_tree_matches_scalars(self):
        comm = CommunicationModel(cluster=presets.system_g(num_nodes=40))
        a = np.arange(40).repeat(40)
        b = np.tile(np.arange(40), 40)
        batch = comm.p2p_times(1e4, a, b)
        for k in range(0, a.size, 7):
            assert batch[k] == comm.p2p_time(1e4, int(a[k]), int(b[k]))

    def test_p2p_times_one_topology_call(self, comm, monkeypatch):
        calls = []
        real = Topology.hops
        monkeypatch.setattr(
            Topology, "hops", lambda self, a, b: calls.append(1) or real(self, a, b)
        )
        comm.p2p_times(np.ones(500), np.arange(500) % 8, np.arange(500) * 3 % 8)
        assert len(calls) == 1

    def test_p2p_times_out_of_range_endpoint(self, comm):
        with pytest.raises(SpecError):
            comm.p2p_times([1.0, 1.0], [0, 1], [1, 8])


class TestLargeFabrics:
    def test_effective_latency_1024_node_fat_tree_is_closed_form(self):
        cluster = presets.system_g(num_nodes=1024)
        # 64 leaves of 16: 64 * C(16, 2) pairs are 2 hops apart, the rest 4
        pairs = 1024 * 1023 // 2
        same_leaf = 64 * 16 * 15 // 2
        mean_hops = (2 * same_leaf + 4 * (pairs - same_leaf)) / pairs
        expected = mean_hops * cluster.node.nic.latency_s
        assert CommunicationModel(cluster=cluster).effective_latency() == expected
