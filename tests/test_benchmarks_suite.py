"""BenchmarkSuite / SuiteResult / ScalingSweep tests."""

import sys

import pytest

from repro import telemetry as tele
from repro import validation
from repro.benchmarks import (
    BenchmarkSuite,
    HPLBenchmark,
    IOzoneBenchmark,
    ScalingSweep,
    StreamBenchmark,
)
from repro.cluster import presets
from repro.exceptions import BenchmarkError
from repro.experiments import PAPER_CONFIG, build_suite
from repro.sim import ClusterExecutor, SimulationEngine


class TestBenchmarkSuite:
    def test_names_in_order(self, quick_suite):
        assert quick_suite.names == ["HPL", "STREAM", "IOzone"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(BenchmarkError):
            BenchmarkSuite([StreamBenchmark(), StreamBenchmark()])

    def test_empty_suite_rejected(self):
        with pytest.raises(BenchmarkError):
            BenchmarkSuite([])

    def test_scale_for_iozone_maps_cores_to_nodes(self, quick_suite, executor):
        iozone = quick_suite.benchmarks[2]
        assert quick_suite.scale_for(iozone, 16, executor) == 1
        assert quick_suite.scale_for(iozone, 64, executor) == 4
        assert quick_suite.scale_for(iozone, 128, executor) == 8

    def test_scale_for_others_is_cores(self, quick_suite, executor):
        hpl = quick_suite.benchmarks[0]
        assert quick_suite.scale_for(hpl, 48, executor) == 48

    def test_build_span_per_benchmark_under_its_run(self, quick_suite, executor):
        """Each member's build is a ``benchmark.build`` child of its run."""
        with tele.use() as session:
            quick_suite.run(executor, 32)
        spans = session.spans
        runs = {s.span_id: s for s in spans if s.name == "benchmark.run"}
        builds = [s for s in spans if s.name == "benchmark.build"]
        assert len(builds) == len(runs) == len(quick_suite.benchmarks)
        assert [s.attrs["benchmark"] for s in builds] == quick_suite.names
        for build in builds:
            run = runs[build.parent_id]
            assert build.attrs["benchmark"] == run.attrs["benchmark"]
            assert build.attrs["scale"] == run.attrs["scale"]

    def test_run_produces_all_members(self, quick_suite, executor):
        result = quick_suite.run(executor, 32)
        assert result.names == ["HPL", "STREAM", "IOzone"]
        assert result.cores == 32


class TestSuiteResult:
    @pytest.fixture
    def suite_result(self, quick_suite, executor):
        return quick_suite.run(executor, 32)

    def test_getitem(self, suite_result):
        assert suite_result["STREAM"].benchmark == "STREAM"

    def test_getitem_missing(self, suite_result):
        with pytest.raises(KeyError):
            suite_result["LINPACK"]

    def test_len_and_iter(self, suite_result):
        assert len(suite_result) == 3
        assert len(list(suite_result)) == 3

    def test_convenience_maps_consistent(self, suite_result):
        for r in suite_result:
            name = r.benchmark
            assert suite_result.performances[name] == r.performance
            assert suite_result.powers_w[name] == r.power_w
            assert suite_result.times_s[name] == r.time_s
            assert suite_result.energies_j[name] == r.energy_j
            assert suite_result.efficiencies[name] == r.energy_efficiency

    def test_energy_is_power_times_time(self, suite_result):
        for r in suite_result:
            assert r.energy_j == pytest.approx(r.power_w * r.time_s)

    def test_efficiency_definition(self, suite_result):
        for r in suite_result:
            assert r.energy_efficiency == pytest.approx(r.performance / r.power_w)


class TestScalingSweep:
    def test_sweep_collects_all_points(self, quick_suite, executor):
        sweep = ScalingSweep(quick_suite, [16, 32]).run(executor)
        assert sweep.cores == [16, 32]
        assert len(sweep) == 2

    def test_series_extraction(self, quick_suite, executor):
        sweep = ScalingSweep(quick_suite, [16, 32]).run(executor)
        perf = sweep.series("STREAM", "performance")
        assert perf.shape == (2,)
        assert perf[1] > perf[0]

    def test_efficiency_series(self, quick_suite, executor):
        sweep = ScalingSweep(quick_suite, [16, 32]).run(executor)
        ee = sweep.efficiency_series("IOzone")
        assert (ee > 0).all()

    def test_unsorted_core_counts_rejected(self, quick_suite):
        with pytest.raises(BenchmarkError):
            ScalingSweep(quick_suite, [32, 16])

    def test_duplicate_core_counts_rejected(self, quick_suite):
        with pytest.raises(BenchmarkError):
            ScalingSweep(quick_suite, [16, 16])

    def test_empty_core_counts_rejected(self, quick_suite):
        with pytest.raises(BenchmarkError):
            ScalingSweep(quick_suite, [])


class TestScalingGuards:
    """Work per rank, counted rather than timed, at production sizes."""

    def test_validations_grow_no_faster_than_ranks(self, monkeypatch):
        """``check_fraction`` calls while building the paper suite on SystemG."""
        original = validation.check_fraction
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "check_fraction", None) is original:
                monkeypatch.setattr(module, "check_fraction", counting)

        suite = build_suite(PAPER_CONFIG)
        counts = {}
        for ranks in (1024, 4096):
            executor = ClusterExecutor(presets.system_g(ranks // 8), rng=0)
            assert executor.cluster.total_cores == ranks
            del calls[:]
            for benchmark in suite.benchmarks:
                benchmark.build(executor, suite.scale_for(benchmark, ranks, executor))
            counts[ranks] = len(calls)
        assert counts[1024] > 0
        assert counts[4096] <= 4.1 * counts[1024], counts

    def test_distinct_phases_independent_of_ranks(self):
        """Builders share one phase sequence across ranks, so neither the
        programs' distinct phases nor the engine's phase table grow with
        the rank count."""
        suite = build_suite(PAPER_CONFIG)
        distinct = {}
        table = {}
        for ranks in (1024, 4096):
            executor = ClusterExecutor(presets.system_g(ranks // 8), rng=0)
            assert executor.cluster.total_cores == ranks
            for benchmark in suite.benchmarks:
                scale = suite.scale_for(benchmark, ranks, executor)
                built = benchmark.build(executor, scale)
                distinct[benchmark.name, ranks] = len(
                    {id(phase) for program in built.programs for phase in program.phases}
                )
                table[benchmark.name, ranks] = len(
                    SimulationEngine(built.programs).run_arrays().phases
                )
        for benchmark in suite.benchmarks:
            name = benchmark.name
            assert distinct[name, 1024] == distinct[name, 4096], (name, distinct)
            assert table[name, 1024] == table[name, 4096], (name, table)
