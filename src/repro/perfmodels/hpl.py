"""HPL (High-Performance LINPACK) performance model.

HPL solves a dense ``N x N`` system by blocked LU factorization with row
partial pivoting on a 2-D block-cyclic process grid.  The model predicts
run time as the sum of three terms:

* **compute** — ``(2/3 N^3 + 2 N^2)`` flops at per-core peak times a DGEMM
  kernel efficiency, degraded by a *packing contention* factor when many
  ranks share a node (shared caches, NUMA links, and memory channels slow
  the update kernel as the node fills up);
* **communication volume** — panel and update broadcasts move
  ``O(N^2 log p / sqrt(p))`` bytes through each process's link (Hockney beta
  term), with a tunable prefactor;
* **communication latency** — ``(N / nb)`` factorization steps each pay
  ``O(log p)`` message latencies (alpha term).

With ``N`` fixed while ``p`` grows (strong scaling, the configuration of the
paper's Figure 2 sweep) the communication terms flatten the speedup and the
packing contention bends it down, producing the characteristic rise /
plateau / rolloff of HPL's energy-efficiency curve.  With ``N`` sized from
memory (the "capability run" configuration) compute dominates and the model
reports the machine's headline GFLOPS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_fraction, check_positive, check_positive_int

__all__ = [
    "HPLModel", "HPLPrediction", "capability_problem_size", "comm_times",
    "compute_time", "contention_slowdown", "flop_count",
]

#: Bytes per double-precision matrix element.
_BYTES_PER_ELEMENT = 8


# Formulas over plain numbers or NumPy arrays (one row per system), with
# the same IEEE operations either way.  HPLModel validates and calls them.

def _log2(x):
    """``math.log2``, elementwise over arrays.

    ``np.log2`` differs from ``math.log2`` in the last bit for some
    integers, so arrays go through ``math.log2`` too.
    """
    if np.ndim(x) == 0:
        return math.log2(x)
    return np.array([math.log2(v) for v in np.asarray(x).tolist()])


def flop_count(n):
    """Official HPL flop count: ``2/3 n^3 + 2 n^2``.

    Products rather than powers: ``n * n`` is exact for any problem size a
    machine can hold, so float arrays round like Python ints do.
    """
    return (2.0 / 3.0) * (n * n * n) + 2.0 * (n * n)


def capability_problem_size(memory_fraction, num_nodes, node_memory_bytes, block_size):
    """Largest multiple of ``block_size`` whose matrix fills the DRAM share."""
    total_bytes = memory_fraction * num_nodes * node_memory_bytes
    n = np.floor(np.sqrt(total_bytes / _BYTES_PER_ELEMENT))
    return n - n % block_size


def contention_slowdown(ranks_per_node, cores, threshold, slope):
    """Compute-kernel slowdown factor (>= 1) of ``ranks_per_node`` packed ranks."""
    return 1.0 + slope * np.maximum(0, ranks_per_node - threshold) / cores


def compute_time(flops, num_ranks, core_peak, dgemm_efficiency, slowdown, accelerator_rate=0.0):
    """Seconds of DGEMM-bound update work on ``num_ranks`` ranks."""
    return flops / (num_ranks * core_peak * dgemm_efficiency / slowdown + accelerator_rate)


def comm_times(n, num_ranks, bandwidth, latency_s, block_size, volume_factor):
    """``(volume, latency)`` communication seconds; both 0 for one rank.

    Broadcast volume through each rank's link: the column of panels and
    the row of U updates sum to ~N^2 elements / sqrt(p) per rank, each
    forwarded ~log p times by tree broadcasts.  Each of the N/nb steps pays
    O(log p) latencies for panel bcast, pivot exchange, and U bcast
    (factor 3).
    """
    log_p = _log2(num_ranks)
    volume_bytes = volume_factor * _BYTES_PER_ELEMENT * (n * n) * log_p / np.sqrt(num_ranks)
    steps = np.maximum(1, n // block_size)
    return volume_bytes / bandwidth, 3.0 * steps * log_p * latency_s


@dataclass(frozen=True)
class HPLPrediction:
    """Predicted timing and performance of one HPL run.

    The fleet ranker fills the fields with arrays (one row per system);
    the properties compute elementwise either way.
    """

    problem_size: int
    num_ranks: int
    flops: float
    compute_time_s: float
    comm_volume_time_s: float
    comm_latency_time_s: float

    @property
    def comm_time_s(self) -> float:
        """Total communication seconds."""
        return self.comm_volume_time_s + self.comm_latency_time_s

    @property
    def total_time_s(self) -> float:
        """Wall-clock seconds of the run."""
        return self.compute_time_s + self.comm_time_s

    @property
    def performance_flops(self) -> float:
        """Reported HPL rate in FLOP/s."""
        return self.flops / self.total_time_s

    @property
    def parallel_efficiency(self) -> float:
        """Fraction of time spent computing."""
        return self.compute_time_s / self.total_time_s


@dataclass(frozen=True)
class HPLModel:
    """HPL time/performance predictor for one cluster.

    Parameters
    ----------
    cluster:
        The machine.
    dgemm_efficiency:
        Fraction of per-core peak the update kernel sustains with the node
        otherwise quiet.
    block_size:
        HPL blocking factor ``NB``.
    comm_volume_factor:
        Prefactor on the broadcast-volume term (absorbs algorithmic
        constants: U broadcasts, row swaps, pivoting traffic).
    contention_threshold:
        Ranks per node beyond which packing contention sets in (typically
        the per-socket core count: one memory domain per rank is free).
    contention_slope:
        Strength of packing contention; the compute kernel slows by
        ``1 + slope * (k - threshold) / cores`` when ``k`` ranks share a
        ``cores``-core node.
    use_accelerators:
        When the node carries accelerators, add their sustained HPL rate
        (CPU+GPU hybrid DGEMM, the Fermi-era HPL-CUDA scheme) to every
        participating node's compute throughput.
    """

    cluster: ClusterSpec
    dgemm_efficiency: float = 0.85
    block_size: int = 224
    comm_volume_factor: float = 1.0
    contention_threshold: int = 8
    contention_slope: float = 1.0
    use_accelerators: bool = True

    def __post_init__(self) -> None:
        check_fraction(self.dgemm_efficiency, "dgemm_efficiency", exc=BenchmarkError)
        if self.dgemm_efficiency == 0:
            raise BenchmarkError("dgemm_efficiency must be > 0")
        check_positive_int(self.block_size, "block_size", exc=BenchmarkError)
        check_positive(self.comm_volume_factor, "comm_volume_factor", exc=BenchmarkError)
        check_positive_int(self.contention_threshold, "contention_threshold", exc=BenchmarkError)
        if self.contention_slope < 0:
            raise BenchmarkError("contention_slope must be >= 0")

    # ------------------------------------------------------------------
    # Problem sizing
    # ------------------------------------------------------------------
    def problem_size_from_memory(self, *, memory_fraction: float = 0.8, nodes: int = 0) -> int:
        """Largest ``N`` whose matrix fills ``memory_fraction`` of DRAM.

        ``nodes=0`` means all nodes.  The result is rounded down to a
        multiple of the block size, as HPL practitioners do.
        """
        check_fraction(memory_fraction, "memory_fraction", exc=BenchmarkError)
        if memory_fraction == 0:
            raise BenchmarkError("memory_fraction must be > 0")
        n_nodes = nodes or self.cluster.num_nodes
        if not 1 <= n_nodes <= self.cluster.num_nodes:
            raise BenchmarkError(f"nodes must be in [1, {self.cluster.num_nodes}]")
        n = int(capability_problem_size(
            memory_fraction, n_nodes, self.cluster.node.memory_bytes, self.block_size
        ))
        if n < self.block_size:
            raise BenchmarkError("memory too small for a single block")
        return n

    @staticmethod
    def flop_count(n: int) -> float:
        """Official HPL flop count: ``2/3 n^3 + 2 n^2``."""
        check_positive_int(n, "n", exc=BenchmarkError)
        return flop_count(n)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def contention_factor(self, ranks_per_node: int) -> float:
        """Compute-kernel slowdown factor (>= 1) for a node with ``k`` ranks."""
        check_positive_int(ranks_per_node, "ranks_per_node", exc=BenchmarkError)
        cores = self.cluster.node.cores
        if ranks_per_node > cores:
            raise BenchmarkError(f"{ranks_per_node} ranks exceed {cores} cores per node")
        return float(contention_slowdown(
            ranks_per_node, cores, self.contention_threshold, self.contention_slope
        ))

    def predict(self, problem_size: int, num_ranks: int, *, ranks_per_node: int = 0) -> HPLPrediction:
        """Predict one run of size ``problem_size`` on ``num_ranks`` ranks.

        ``ranks_per_node`` defaults to the breadth-first value
        ``ceil(num_ranks / num_nodes)``.
        """
        check_positive_int(problem_size, "problem_size", exc=BenchmarkError)
        check_positive_int(num_ranks, "num_ranks", exc=BenchmarkError)
        if num_ranks > self.cluster.total_cores:
            raise BenchmarkError(
                f"{num_ranks} ranks exceed cluster capacity {self.cluster.total_cores}"
            )
        k = ranks_per_node or math.ceil(num_ranks / self.cluster.num_nodes)
        node = self.cluster.node
        flops = self.flop_count(problem_size)
        accelerator_rate = 0.0
        if self.use_accelerators and node.accelerators:
            nodes_used = math.ceil(num_ranks / k)
            accelerator_rate = nodes_used * sum(
                acc.sustained_hpl_flops for acc in node.accelerators
            )
        volume, latency = comm_times(
            problem_size, num_ranks, node.nic.bandwidth, node.nic.latency_s,
            self.block_size, self.comm_volume_factor,
        )
        compute = compute_time(
            flops, num_ranks, node.cpu.peak_flops_per_core, self.dgemm_efficiency,
            self.contention_factor(k), accelerator_rate,
        )
        return HPLPrediction(
            problem_size=problem_size,
            num_ranks=num_ranks,
            flops=flops,
            compute_time_s=compute,
            comm_volume_time_s=float(volume),
            comm_latency_time_s=float(latency),
        )

    def problem_size_for_time(
        self, target_seconds: float, num_ranks: int, *, ranks_per_node: int = 0
    ) -> int:
        """``N`` (multiple of NB) whose predicted runtime is ~``target_seconds``.

        Used to keep suite members' runtimes comparable, mirroring how
        benchmarking campaigns size their runs.  Bisects on ``N``.
        """
        check_positive(target_seconds, "target_seconds", exc=BenchmarkError)
        # exponential search for an upper bound
        lo = hi = self.block_size
        while (
            self.predict(hi, num_ranks, ranks_per_node=ranks_per_node).total_time_s
            < target_seconds
        ):
            hi *= 2
            if hi > 10_000_000:
                raise BenchmarkError("target time unreachably large")
        while hi - lo > self.block_size:
            mid = (lo + hi) // 2
            mid -= mid % self.block_size
            mid = max(mid, self.block_size)
            if mid in (lo, hi):
                break
            t = self.predict(mid, num_ranks, ranks_per_node=ranks_per_node).total_time_s
            if t < target_seconds:
                lo = mid
            else:
                hi = mid
        return max(lo, self.block_size)
