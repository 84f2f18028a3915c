"""Benchmark abstraction and result container.

A :class:`Benchmark` knows how to *build* a run for a given cluster and
scale (compile its performance model into per-rank phase programs) and to
*run* it through a :class:`~repro.sim.executor.ClusterExecutor`.  The
returned :class:`BenchmarkResult` carries everything the TGI pipeline needs:
the benchmark's own performance metric (in its own units — the whole point
of TGI is aggregating across heterogeneous metrics), the measured power
trace, and the derived time/power/energy numbers used by the weighted means.

Every rank of a suite member runs the same phases, so a builder creates its
phase sequence once per :meth:`Benchmark.build` and gives each rank its own
list of those shared, frozen :class:`~repro.sim.workload.Phase` objects.
Appending to one rank's program never changes another's, and the engine's
identity dedupe keeps its phase table at the number of distinct phases.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .. import telemetry as tele
from ..exceptions import BenchmarkError
from ..sim.executor import ClusterExecutor, RunRecord
from ..sim.placement import Placement
from ..sim.workload import RankProgram
from ..units import format_power, format_time

__all__ = ["Benchmark", "BenchmarkResult", "BuiltRun"]


@dataclass(frozen=True)
class BuiltRun:
    """A compiled benchmark run: placement, programs, predicted performance."""

    placement: Placement
    programs: Tuple[RankProgram, ...]
    performance: float  # in the benchmark's base metric units
    details: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkResult:
    """Outcome of one benchmark run on one system at one scale.

    Attributes
    ----------
    benchmark:
        Benchmark name (``"HPL"``, ``"STREAM"``, ``"IOzone"``).
    metric_label:
        Human label of the performance unit (``"FLOP/s"``, ``"B/s"``).
    performance:
        The benchmark's reported number in base units.
    scale:
        The benchmark's scale parameter (MPI ranks for HPL/STREAM, nodes
        for IOzone).
    record:
        Full simulation/measurement record.
    details:
        Model-specific extras (problem size, efficiency, ...).
    """

    benchmark: str
    metric_label: str
    performance: float
    scale: int
    record: RunRecord
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def time_s(self) -> float:
        """Wall-clock seconds of the run (the ``t_i`` of Eq. 10)."""
        return self.record.makespan_s

    @property
    def power_w(self) -> float:
        """Measured mean wall watts (the ``p_i`` of Eq. 12)."""
        return self.record.measured_mean_power_w

    @property
    def energy_j(self) -> float:
        """Measured energy in joules (the ``e_i`` of Eq. 11)."""
        # Mean metered power times wall-clock time: the standard way a
        # wall-plug meter log is turned into per-run energy, robust to the
        # log not covering the first/last fraction of a second.
        return self.power_w * self.time_s

    @property
    def energy_efficiency(self) -> float:
        """EE_i = performance / power (Eq. 2), in metric-units per watt."""
        if self.power_w <= 0:
            raise BenchmarkError("non-positive measured power")
        return self.performance / self.power_w

    def __str__(self) -> str:
        return (
            f"{self.benchmark}@{self.scale}: perf={self.performance:.4g} {self.metric_label}, "
            f"{format_time(self.time_s)}, {format_power(self.power_w)}"
        )


class Benchmark(abc.ABC):
    """One member of the suite (see module docstring)."""

    #: Benchmark name used as the key throughout the TGI pipeline.
    name: str = "benchmark"
    #: Label of the performance unit.
    metric_label: str = ""

    @abc.abstractmethod
    def build(self, executor: ClusterExecutor, scale: int) -> BuiltRun:
        """Compile a run at the given scale for the executor's cluster."""

    def run(self, executor: ClusterExecutor, scale: int) -> BenchmarkResult:
        """Build, simulate, and package one run."""
        cluster = executor.cluster.name
        with tele.span(
            "benchmark.run", benchmark=self.name, scale=scale, cluster=cluster
        ):
            with tele.span("benchmark.build", benchmark=self.name, scale=scale):
                built = self.build(executor, scale)
            record = executor.execute(
                built.placement, built.programs, label=f"{self.name}@{scale}"
            )
        result = BenchmarkResult(
            benchmark=self.name,
            metric_label=self.metric_label,
            performance=built.performance,
            scale=scale,
            record=record,
            details=dict(built.details),
        )
        if tele.active():
            labels = dict(benchmark=self.name, scale=str(scale), cluster=cluster)
            tele.count("tgi_benchmark_runs_total", benchmark=self.name)
            tele.gauge("tgi_benchmark_time_seconds", result.time_s, **labels)
            tele.gauge("tgi_benchmark_energy_joules", result.energy_j, **labels)
            tele.gauge("tgi_benchmark_power_watts", result.power_w, **labels)
        return result
