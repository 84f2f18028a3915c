"""Interconnect-topology tests."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow, shortest_path

from repro.cluster.topology import (
    Topology,
    fat_tree_topology,
    ring_topology,
    star_topology,
)
from repro.exceptions import SpecError


class TestStar:
    def test_pairwise_hops(self):
        star = star_topology(8)
        assert star.hops(0, 7) == 2

    def test_self_hops_zero(self):
        assert star_topology(8).hops(3, 3) == 0

    def test_single_node(self):
        assert star_topology(1).hops(0, 0) == 0

    def test_max_hops(self):
        assert star_topology(8).max_hops() == 2

    def test_mean_hops(self):
        assert star_topology(8).mean_hops() == pytest.approx(2.0)

    def test_bisection(self):
        # every pair of halves is separated by the 4 links of one half
        assert star_topology(8).bisection_links() == 4

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(SpecError):
            star_topology(4).hops(0, 4)


class TestRing:
    def test_adjacent(self):
        assert ring_topology(8).hops(0, 1) == 1

    def test_wraparound(self):
        assert ring_topology(8).hops(0, 7) == 1

    def test_diameter(self):
        assert ring_topology(8).max_hops() == 4

    def test_two_nodes(self):
        assert ring_topology(2).hops(0, 1) == 1

    def test_bisection_is_two(self):
        assert ring_topology(8).bisection_links() == 2


class TestFatTree:
    def test_same_leaf_two_hops(self):
        ft = fat_tree_topology(32, leaf_radix=16)
        assert ft.hops(0, 15) == 2

    def test_cross_leaf_four_hops(self):
        ft = fat_tree_topology(32, leaf_radix=16)
        assert ft.hops(0, 16) == 4

    def test_mean_hops_between_two_and_four(self):
        ft = fat_tree_topology(32, leaf_radix=16)
        assert 2 < ft.mean_hops() < 4

    def test_single_leaf_degenerate(self):
        ft = fat_tree_topology(8, leaf_radix=16)
        assert ft.max_hops() == 2

    def test_bisection_counts_uplink_multiplicity(self):
        # two leaves of radix 16 -> 8 uplinks each; the cut is one leaf's
        # uplink bundle
        ft = fat_tree_topology(32, leaf_radix=16)
        assert ft.bisection_links() == 8


class TestTopologyValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            Topology("hypercube", 8)

    @pytest.mark.parametrize("radix", [0, -4])
    def test_non_positive_leaf_radix_rejected(self, radix):
        with pytest.raises(SpecError):
            fat_tree_topology(8, leaf_radix=radix)

    def test_fat_tree_needs_leaf_radix(self):
        with pytest.raises(SpecError):
            Topology("fat-tree", 8)

    def test_leaf_radix_only_for_fat_tree(self):
        with pytest.raises(SpecError):
            Topology("star", 8, leaf_radix=4)

    @pytest.mark.parametrize("build", [star_topology, fat_tree_topology, ring_topology])
    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_num_nodes_rejected(self, build, n):
        with pytest.raises(SpecError):
            build(n)

    def test_value_equality(self):
        assert fat_tree_topology(32) == fat_tree_topology(32, leaf_radix=16)
        assert hash(star_topology(8)) == hash(star_topology(8))
        assert star_topology(8) != ring_topology(8)
        assert fat_tree_topology(32, leaf_radix=8) != fat_tree_topology(32)

    def test_names(self):
        assert star_topology(8).name == "star(8)"
        assert fat_tree_topology(32, leaf_radix=16).name == "fat-tree(32,radix=16)"
        assert ring_topology(8).name == "ring(8)"


class TestArrayHops:
    def test_broadcast_shape(self):
        ft = fat_tree_topology(40, leaf_radix=8)
        assert ft.hops(np.arange(40)[:, None], np.arange(3)).shape == (40, 3)
        assert ft.hops(np.arange(40), 0).tolist() == [0] + [2] * 7 + [4] * 32

    def test_scalar_in_scalar_out(self):
        assert type(ring_topology(8).hops(0, 5)) is int
        assert type(star_topology(8).hops(np.int64(1), 2)) is int

    @pytest.mark.parametrize("bad", [[0, 4], [-1, 0]])
    def test_rejects_any_out_of_range_entry(self, bad):
        with pytest.raises(SpecError):
            star_topology(4).hops(np.array(bad), 0)

    def test_rejects_non_integer_endpoints(self):
        with pytest.raises(SpecError):
            ring_topology(4).hops(np.array([0.0, 1.0]), 0)

    def test_unsigned_endpoints(self):
        ring = ring_topology(8)
        a = np.array([0, 7], dtype=np.uint8)
        b = np.array([7, 0], dtype=np.uint8)
        assert ring.hops(a, b).tolist() == [1, 1]


# ----------------------------------------------------------------------
# Oracle: the explicit switch graph, solved by scipy.sparse.csgraph
# ----------------------------------------------------------------------
def _switch_graph(kind, n, radix):
    """Undirected ``(u, v, capacity)`` edges of the fabric.

    Compute nodes are ``0..n-1``; switches follow.  Star: one crossbar.
    Fat tree: one leaf per ``radix`` nodes, each leaf tied to one spine by
    ``max(1, radix // 2)`` parallel uplinks (a single edge of that
    capacity) when there is more than one leaf.  Ring: ``i -- i+1 mod n``.
    """
    edges = []
    if kind == "star":
        if n > 1:
            edges += [(i, n, 1) for i in range(n)]
        return n + 1, edges
    if kind == "fat-tree":
        leaves = -(-n // radix)
        spine = n
        if n > 1:
            for leaf in range(leaves):
                sw = n + 1 + leaf
                edges += [(i, sw, 1) for i in range(leaf * radix, min((leaf + 1) * radix, n))]
                if leaves > 1:
                    edges.append((sw, spine, max(1, radix // 2)))
        return n + 1 + leaves, edges
    if n == 2:
        edges.append((0, 1, 1))
    elif n > 2:
        edges += [(i, (i + 1) % n, 1) for i in range(n)]
    return n, edges


def _oracle(kind, n, radix):
    """(pairwise compute-node hops, bisection max-flow) on the explicit graph."""
    size, edges = _switch_graph(kind, n, radix)
    u = np.array([e[0] for e in edges], dtype=np.int32)
    v = np.array([e[1] for e in edges], dtype=np.int32)
    cap = np.array([e[2] for e in edges], dtype=np.int32)
    adj = csr_matrix((np.ones(len(edges)), (u, v)), shape=(size, size))
    dist = shortest_path(adj, directed=False, unweighted=True)[:n, :n]
    if n == 1:
        return dist, 0
    # Both halves hang off a super source / sink by edges no cut would take.
    half, src, dst, big = n // 2, size, size + 1, 10 * n
    rows = np.concatenate([u, v, np.full(half, src), np.arange(half, n)])
    cols = np.concatenate([v, u, np.arange(half), np.full(n - half, dst)])
    caps = np.concatenate([cap, cap, np.full(n, big)]).astype(np.int32)
    flow_net = csr_matrix((caps, (rows, cols)), shape=(size + 2, size + 2))
    return dist, int(maximum_flow(flow_net, src, dst).flow_value)


_FABRICS = [("star", None), ("ring", None)] + [
    ("fat-tree", r) for r in (1, 2, 3, 4, 8, 16)
]


class TestAgainstSwitchGraph:
    @pytest.mark.parametrize("kind,radix", _FABRICS)
    def test_every_query_matches_graph(self, kind, radix):
        for n in range(1, 65):
            topo = Topology(kind, n, radix)
            dist, flow = _oracle(kind, n, radix)
            ids = np.arange(n)
            np.testing.assert_array_equal(topo.hops(ids[:, None], ids[None, :]), dist)
            assert topo.max_hops() == dist.max()
            expected_mean = dist[np.triu_indices(n, 1)].mean() if n > 1 else 0.0
            assert topo.mean_hops() == pytest.approx(expected_mean, rel=1e-12, abs=1e-12)
            assert topo.bisection_links() == flow
            expected_name = f"fat-tree({n},radix={radix})" if radix else f"{kind}({n})"
            assert topo.name == expected_name

    @pytest.mark.parametrize("kind,radix", [("star", None), ("ring", None), ("fat-tree", 3)])
    def test_scalar_hops_match_graph(self, kind, radix):
        for n in (1, 2, 3, 7, 16, 33):
            topo = Topology(kind, n, radix)
            dist, _ = _oracle(kind, n, radix)
            for i in range(n):
                for j in range(n):
                    assert topo.hops(i, j) == dist[i, j]


# ----------------------------------------------------------------------
# Scaling guards: counted operations and bytes, not seconds
# ----------------------------------------------------------------------
class TestScalingGuards:
    @pytest.mark.parametrize("build", [fat_tree_topology, ring_topology])
    def test_aggregate_queries_make_no_hop_calls(self, build, monkeypatch):
        calls = []
        real = Topology.hops
        monkeypatch.setattr(
            Topology, "hops", lambda self, a, b: calls.append((a, b)) or real(self, a, b)
        )
        topo = build(100_000)
        topo.mean_hops()
        topo.max_hops()
        assert calls == []

    def test_large_fabrics_answer_in_closed_form(self):
        ft = fat_tree_topology(100_000)
        assert ft.max_hops() == 4
        # each half is 3,125 full leaves, each with 8 uplinks to the spine
        assert ft.bisection_links() == 3125 * 8
        assert ring_topology(100_000).mean_hops() == 100_000**2 // 4 / 99_999

    def test_building_many_topologies_allocates_no_per_node_objects(self):
        tracemalloc.start()
        try:
            kept = [star_topology(4096) for _ in range(1000)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 1000
        # a per-node object each would be >= 1000 * 4096 * 28 bytes
        assert peak < 512 * 1024
