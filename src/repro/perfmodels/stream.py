"""STREAM Triad performance model.

STREAM's Triad kernel (``c = alpha * a + b``) streams three arrays through
DRAM; its sustained rate per socket is capped at the socket's
STREAM-sustainable bandwidth and is reached once
:attr:`~repro.cluster.memory.MemorySpec.cores_to_saturate` cores stream
concurrently.  Below saturation a single core's rate is
``socket_sustained / cores_to_saturate``.

Ranks are assumed spread evenly over a node's sockets (the usual
``--bind-to socket`` round robin), so a node with ``k`` ranks sustains::

    sum over sockets of min(ranks_on_socket * per_core_rate, socket_sustained)

The benchmark's reported number is the aggregate MB/s across all ranks —
this is how multi-node STREAM sweeps are conventionally summed, and it makes
the memory benchmark's performance scale with machine size like HPL's does,
which the TGI normalization (REE) relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_positive, check_positive_int

__all__ = [
    "StreamModel", "StreamPrediction", "iterations_for_time", "node_bandwidth",
    "per_core_bandwidth", "triad_run",
]

#: Triad traffic per element per iteration: read a, read b, write c.
#: (STREAM's official accounting ignores the write-allocate fill.)
_TRIAD_BYTES_PER_ELEMENT = 3 * 8


# Formulas over plain numbers or NumPy arrays (one row per system), with
# the same IEEE operations either way.  StreamModel validates and calls them.

def per_core_bandwidth(socket_bandwidth, cores_to_saturate):
    """Bytes/s a single streaming core sustains."""
    return socket_bandwidth / cores_to_saturate


def node_bandwidth(ranks_on_node, sockets, socket_bandwidth, cores_to_saturate):
    """Sustained Triad bytes/s of a node, ranks spread round robin over sockets.

    Sums socket by socket, in socket order, so every socket count rounds
    exactly as the per-socket loop does; over arrays, sockets a row lacks
    contribute ``0.0``.
    """
    per_core = per_core_bandwidth(socket_bandwidth, cores_to_saturate)
    base, extra = np.divmod(ranks_on_node, sockets)
    total = 0.0
    for socket in range(int(np.max(sockets))):
        on_socket = base + (socket < extra)
        total = total + np.minimum(on_socket * per_core, socket_bandwidth) * (socket < sockets)
    return total


def triad_run(
    num_ranks, ranks_per_node, iterations, array_elements, sockets, socket_bandwidth, cores_to_saturate
):
    """``(seconds, aggregate bytes/s)`` of ``iterations`` Triad sweeps per rank."""
    per_rank = (
        node_bandwidth(ranks_per_node, sockets, socket_bandwidth, cores_to_saturate)
        / ranks_per_node
    )
    time_s = iterations * array_elements * _TRIAD_BYTES_PER_ELEMENT / per_rank
    return time_s, per_rank * num_ranks


def iterations_for_time(target_seconds, one_iteration_s):
    """Iteration count (>= 1, rounded half to even) lasting ~``target_seconds``."""
    return np.maximum(1, np.round(target_seconds / one_iteration_s))


@dataclass(frozen=True)
class StreamPrediction:
    """Predicted timing and bandwidth of one STREAM run (fields may be
    arrays, one row per system, as in :class:`~repro.perfmodels.hpl.HPLPrediction`)."""

    num_ranks: int
    array_elements: int
    iterations: int
    time_s: float
    aggregate_bandwidth: float  # bytes/s summed over ranks

    @property
    def per_rank_bandwidth(self) -> float:
        """Mean bytes/s each rank sustains."""
        return self.aggregate_bandwidth / self.num_ranks


@dataclass(frozen=True)
class StreamModel:
    """STREAM Triad predictor for one cluster."""

    cluster: ClusterSpec

    def per_core_bandwidth(self) -> float:
        """Bytes/s a single streaming core sustains."""
        mem = self.cluster.node.memory
        return per_core_bandwidth(mem.sustained_bandwidth, mem.cores_to_saturate)

    def _check_ranks_on_node(self, ranks_on_node: int) -> None:
        check_positive_int(ranks_on_node, "ranks_on_node", exc=BenchmarkError)
        cores = self.cluster.node.cores
        if ranks_on_node > cores:
            raise BenchmarkError(f"{ranks_on_node} ranks exceed {cores} cores per node")

    def _memory(self):
        node = self.cluster.node
        return node.sockets, node.memory.sustained_bandwidth, node.memory.cores_to_saturate

    def node_bandwidth(self, ranks_on_node: int) -> float:
        """Sustained Triad bytes/s of one node running ``ranks_on_node`` ranks."""
        self._check_ranks_on_node(ranks_on_node)
        return float(node_bandwidth(ranks_on_node, *self._memory()))

    def predict(
        self,
        num_ranks: int,
        *,
        array_elements: int = 20_000_000,
        iterations: int = 100,
        ranks_per_node: int = 0,
    ) -> StreamPrediction:
        """Predict a run of ``iterations`` Triad sweeps per rank.

        ``array_elements`` is the per-rank array length (the STREAM rule of
        "much larger than last-level cache" is the caller's responsibility —
        the model assumes DRAM-resident arrays).  ``ranks_per_node`` defaults
        to the breadth-first value.
        """
        check_positive_int(num_ranks, "num_ranks", exc=BenchmarkError)
        check_positive_int(array_elements, "array_elements", exc=BenchmarkError)
        check_positive_int(iterations, "iterations", exc=BenchmarkError)
        if num_ranks > self.cluster.total_cores:
            raise BenchmarkError(
                f"{num_ranks} ranks exceed cluster capacity {self.cluster.total_cores}"
            )
        k = ranks_per_node or math.ceil(num_ranks / self.cluster.num_nodes)
        k = min(k, num_ranks)
        self._check_ranks_on_node(k)
        time_s, aggregate = triad_run(num_ranks, k, iterations, array_elements, *self._memory())
        return StreamPrediction(
            num_ranks=num_ranks,
            array_elements=array_elements,
            iterations=iterations,
            time_s=float(time_s),
            aggregate_bandwidth=float(aggregate),
        )

    def iterations_for_time(
        self, target_seconds: float, num_ranks: int, *, array_elements: int = 20_000_000,
        ranks_per_node: int = 0,
    ) -> int:
        """Iteration count whose predicted runtime is ~``target_seconds``."""
        check_positive(target_seconds, "target_seconds", exc=BenchmarkError)
        one = self.predict(
            num_ranks,
            array_elements=array_elements,
            iterations=1,
            ranks_per_node=ranks_per_node,
        )
        return int(iterations_for_time(target_seconds, one.time_s))
