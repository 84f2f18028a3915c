"""Property-based equivalence: the vectorized fleet path vs the scalar
oracle, across all four eras (hypothesis).

This is the fleet layer's analogue of ``test_engine_equivalence.py``: the
scalar per-system path is the semantic definition, the batched path must
match it within 1e-9 relative on every score, energy, and the final rank
order (ties broken deterministically by name).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.generator import generate_fleet
from repro.experiments import PAPER_CONFIG
from repro.fleet import FLEET_BENCHMARKS, FleetColumns, FleetRankingPipeline, evaluate_fleet
from repro.perfmodels import hpl, iozone, stream
from repro.perfmodels.hpl import HPLModel
from repro.perfmodels.iozone import IOzoneModel
from repro.perfmodels.stream import StreamModel
from repro.power import components, node_power, psu
from repro.power.components import NodeUtilization, NodeUtilizationArray
from repro.power.node_power import NodePowerModel

QUICK = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2.0,
    iozone_target_seconds=2.0,
)

_FIELDS = ("performance", "time_s", "power_w", "energy_j", "efficiency")

eras = st.sampled_from(("2008", "2011", "2015", "2021"))


class TestScoreEquivalence:
    @given(era=eras, count=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_scalar(self, era, count, seed):
        fleet = generate_fleet(count, era=era, seed=seed)
        batched = evaluate_fleet(fleet, QUICK)
        scalar = evaluate_fleet(fleet, QUICK, path="reference")
        for b in FLEET_BENCHMARKS:
            for field in _FIELDS:
                got = getattr(batched.scores[b], field)
                want = getattr(scalar.scores[b], field)
                assert np.allclose(got, want, rtol=1e-9, atol=0.0), (b, field)

    @given(era=eras, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_capability_reference_sizing_matches(self, era, seed):
        fleet = generate_fleet(2, era=era, seed=seed)
        batched = evaluate_fleet(fleet, QUICK, reference=True)
        scalar = evaluate_fleet(fleet, QUICK, path="reference", reference=True)
        for b in FLEET_BENCHMARKS:
            assert np.allclose(
                batched.scores[b].efficiency,
                scalar.scores[b].efficiency,
                rtol=1e-9,
                atol=0.0,
            )


fractions = st.floats(0.0, 1.0)


class TestSharedFormulas:
    """One physics: each model function called on packed columns equals
    the scalar model method on that row's spec, bitwise."""

    @given(
        era=eras,
        count=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
        util=st.builds(
            NodeUtilization,
            cpu_active_fraction=fractions,
            cpu_intensity=fractions,
            memory=fractions,
            storage=fractions,
            nic=fractions,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_functions_on_columns_match_scalar_models(self, era, count, seed, util):
        fleet = generate_fleet(count, era=era, seed=seed)
        cols = FleetColumns.pack(fleet)
        k, ranks = cols.node_cores, cols.total_cores
        size = QUICK.hpl_problem_size
        n = np.full(len(cols), float(size))

        flops = hpl.flop_count(n)
        slowdown = hpl.contention_slowdown(
            k, k, HPLModel.contention_threshold, HPLModel.contention_slope
        )
        compute = hpl.compute_time(
            flops, ranks, cols.peak_flops_per_core, HPLModel.dgemm_efficiency, slowdown
        )
        volume, latency = hpl.comm_times(
            n, ranks, cols.nic_bandwidth, cols.nic_latency_s,
            HPLModel.block_size, HPLModel.comm_volume_factor,
        )
        capability = hpl.capability_problem_size(
            0.8, cols.num_nodes, cols.node_memory_bytes, HPLModel.block_size
        )

        memory = (cols.sockets, cols.mem_sustained_bw, cols.mem_cores_to_saturate)
        node_bw = stream.node_bandwidth(k, *memory)
        one_s, _ = stream.triad_run(ranks, k, 1, 20_000_000, *memory)
        iterations = stream.iterations_for_time(QUICK.stream_target_seconds, one_s)
        triad_s, triad_bw = stream.triad_run(ranks, k, iterations, 20_000_000, *memory)

        cache_bw = IOzoneModel.cache_bandwidth
        window = iozone.default_cache_window(cols.node_memory_bytes)
        rate = iozone.device_rate(cols.storage_write_bw, IOzoneModel.filesystem_efficiency)
        file_bytes = iozone.file_size_for_time(
            QUICK.iozone_target_seconds, window, cache_bw, rate
        )
        write_s, per_node, write_bw = iozone.write_run(
            cols.num_nodes, file_bytes, window, cache_bw, rate
        )

        utils = NodeUtilizationArray.from_utilizations([util] * len(cols))
        floor = NodePowerModel.cpu_awake_floor
        cpu_w = components.cpu_package_watts(
            cols.cpu_idle_w, cols.cpu_tdp_w, cols.sockets,
            utils.cpu_active_fraction, utils.cpu_intensity, floor,
        )
        mem_w = components.linear_watts(
            cols.mem_idle_w, cols.mem_active_w, utils.memory, cols.sockets
        )
        storage_w = components.linear_watts(
            cols.storage_idle_w, cols.storage_active_w, utils.storage
        )
        nic_w = components.linear_watts(cols.nic_idle_w, cols.nic_active_w, utils.nic)
        envelope = {name: getattr(cols, name) for name in node_power.power_envelope(fleet[0].node)}
        dc_w = node_power.dc_watts(utils, cpu_awake_floor=floor, **envelope)
        wall_w = psu.wall_watts(dc_w, cols.psu_rated_w, *psu.curve_points(psu.PSUModel.curve))

        for i, spec in enumerate(fleet):
            node = spec.node
            model = HPLModel(cluster=spec)
            pred = model.predict(size, spec.total_cores, ranks_per_node=node.cores)
            assert flops[i] == pred.flops
            assert slowdown[i] == model.contention_factor(node.cores)
            assert compute[i] == pred.compute_time_s
            assert volume[i] == pred.comm_volume_time_s
            assert latency[i] == pred.comm_latency_time_s
            assert capability[i] == model.problem_size_from_memory(memory_fraction=0.8)

            smodel = StreamModel(cluster=spec)
            assert node_bw[i] == smodel.node_bandwidth(node.cores)
            its = smodel.iterations_for_time(
                QUICK.stream_target_seconds, spec.total_cores, ranks_per_node=node.cores
            )
            assert iterations[i] == its
            spred = smodel.predict(spec.total_cores, iterations=its, ranks_per_node=node.cores)
            assert triad_s[i] == spred.time_s
            assert triad_bw[i] == spred.aggregate_bandwidth

            imodel = IOzoneModel(cluster=spec)
            assert file_bytes[i] == imodel.file_size_for_time(QUICK.iozone_target_seconds)
            ipred = imodel.predict(spec.num_nodes, file_bytes=float(file_bytes[i]))
            assert write_s[i] == ipred.time_s
            assert per_node[i] == ipred.per_node_bandwidth
            assert write_bw[i] == ipred.aggregate_bandwidth

            power = NodePowerModel(node=node)
            parts = power.component_breakdown(util)
            assert cpu_w[i] == parts["cpu"]
            assert mem_w[i] == parts["memory"]
            assert storage_w[i] == parts["storage"]
            assert nic_w[i] == parts["nic"]
            assert dc_w[i] == power.dc_power(util)
            assert wall_w[i] == power.wall_power(util)

    def test_comm_times_every_rank_count(self):
        """Array rank counts take ``math.log2`` too: ``np.log2`` differs from
        it in the last bit for some integers (e.g. 1621 on x86-64 glibc)."""
        ranks = np.arange(1, 65_537)
        args = (2240, 1.25e9, 2.5e-6, HPLModel.block_size, 1.0)
        volume, latency = hpl.comm_times(args[0], ranks.astype(float), *args[1:])
        for i, p in enumerate(ranks.tolist()):
            assert (volume[i], latency[i]) == hpl.comm_times(args[0], p, *args[1:]), p

    def test_node_bandwidth_mixed_socket_counts(self):
        """Rows with fewer sockets than the widest row add nothing extra."""
        rng = np.random.default_rng(0)
        sockets = rng.integers(1, 5, 2000)
        k = rng.integers(1, 16 * sockets + 1)
        socket_bw = rng.uniform(1e9, 5e10, 2000)
        saturate = rng.integers(1, 9, 2000)
        got = stream.node_bandwidth(k * 1.0, sockets * 1.0, socket_bw, saturate * 1.0)
        for i in range(2000):
            want = stream.node_bandwidth(
                int(k[i]), int(sockets[i]), float(socket_bw[i]), int(saturate[i])
            )
            assert got[i] == want, i

    @given(era=eras, count=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batched_equals_scalar_bitwise(self, era, count, seed):
        fleet = generate_fleet(count, era=era, seed=seed)
        for reference in (False, True):
            batched = evaluate_fleet(fleet, QUICK, reference=reference)
            scalar = evaluate_fleet(fleet, QUICK, path="reference", reference=reference)
            for b in FLEET_BENCHMARKS:
                for field in _FIELDS:
                    got = getattr(batched.scores[b], field)
                    want = getattr(scalar.scores[b], field)
                    assert np.array_equal(got, want), (b, field, reference)


class TestRankEquivalence:
    @given(era=eras, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_rank_order_identical(self, era, seed):
        """Same fleet, both analytic paths: identical list, 1e-9 TGI."""
        fleet = generate_fleet(8, era=era, seed=seed)
        fast = FleetRankingPipeline(config=QUICK, path="batched").rank(fleet)
        slow = FleetRankingPipeline(config=QUICK, path="reference").rank(fleet)
        assert [r.name for r in fast.rows] == [r.name for r in slow.rows]
        for a, b in zip(fast.rows, slow.rows):
            assert a.tgi == pytest.approx(b.tgi, rel=1e-9)
            assert a.flops_rank == b.flops_rank
            assert a.weakest == b.weakest

    def test_clone_ties_break_by_name(self):
        """Memoized identical systems: deterministic, name-ordered ranks."""
        spec = generate_fleet(1, era="2011", seed=4)[0]
        clones = [
            dataclasses.replace(spec, name=f"clone-{i}", topology=spec.topology)
            for i in (3, 0, 2, 1)
        ]
        ranking = FleetRankingPipeline(config=QUICK).rank(clones)
        assert [r.name for r in ranking.rows] == [
            "clone-0",
            "clone-1",
            "clone-2",
            "clone-3",
        ]
        assert len({r.tgi for r in ranking.rows}) == 1
        assert [r.tgi_rank for r in ranking.rows] == [1, 2, 3, 4]
