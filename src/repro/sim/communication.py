"""Communication cost model: Hockney alpha-beta with standard collectives.

Point-to-point time between nodes ``a`` and ``b`` is
``hops(a, b) * alpha + bytes / beta`` where ``alpha`` is the per-hop latency
and ``beta`` the link bandwidth of the cluster's
:class:`~repro.cluster.nic.InterconnectSpec`.  Intra-node messages cost a
fixed small shared-memory latency plus a copy at (high) memory bandwidth.

Collectives use the classic algorithm costs (Thakur et al., "Optimization of
Collective Communication Operations in MPICH"):

* broadcast (binomial tree):       ``ceil(log2 p) * (alpha' + m/beta)``
* allreduce (recursive doubling /
  Rabenseifner for large m):       ``2 log2(p) alpha' + 2 m (p-1)/(p beta)``
* allgather (ring):                ``(p-1) alpha' + (p-1)/p * M/beta``
* alltoall (pairwise exchange):    ``(p-1) (alpha' + m/beta)``

with ``alpha'`` the mean inter-endpoint latency under the topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import SimulationError
from ..validation import check_non_negative, check_positive_int

__all__ = ["CommunicationModel"]

#: Latency of a shared-memory (intra-node) message.
_INTRA_NODE_LATENCY_S = 0.4e-6
#: Effective bytes/s of an intra-node copy (bounded by memory bandwidth).
_INTRA_NODE_BANDWIDTH = 4e9


@dataclass(frozen=True)
class CommunicationModel:
    """Message costs over a cluster's interconnect."""

    cluster: ClusterSpec

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def p2p_time(self, message_bytes: float, node_a: int, node_b: int) -> float:
        """Seconds to move one message between two ranks' nodes."""
        check_non_negative(message_bytes, "message_bytes", exc=SimulationError)
        if node_a == node_b:
            return _INTRA_NODE_LATENCY_S + message_bytes / _INTRA_NODE_BANDWIDTH
        nic = self.cluster.node.nic
        hops = self.cluster.topology.hops(node_a, node_b)
        return hops * nic.latency_s + message_bytes / nic.bandwidth

    def effective_latency(self) -> float:
        """Mean inter-endpoint latency (used inside collective formulas)."""
        nic = self.cluster.node.nic
        if self.cluster.num_nodes == 1:
            return _INTRA_NODE_LATENCY_S
        return self.cluster.topology.mean_hops() * nic.latency_s

    # ------------------------------------------------------------------
    # Collectives (p = participating ranks, m = bytes per rank)
    # ------------------------------------------------------------------
    def broadcast_time(self, message_bytes: float, num_ranks: int) -> float:
        """Binomial-tree broadcast of ``message_bytes`` to ``num_ranks``."""
        check_non_negative(message_bytes, "message_bytes", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        rounds = math.ceil(math.log2(num_ranks))
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        return rounds * (alpha + message_bytes / beta)

    def allreduce_time(self, message_bytes: float, num_ranks: int) -> float:
        """Rabenseifner-style allreduce of ``message_bytes`` per rank."""
        check_non_negative(message_bytes, "message_bytes", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        p = num_ranks
        return 2 * math.log2(p) * alpha + 2 * message_bytes * (p - 1) / (p * beta)

    def allgather_time(self, message_bytes_per_rank: float, num_ranks: int) -> float:
        """Ring allgather; each rank contributes ``message_bytes_per_rank``."""
        check_non_negative(message_bytes_per_rank, "message_bytes_per_rank", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        p = num_ranks
        total = message_bytes_per_rank * p
        return (p - 1) * alpha + (p - 1) / p * total / beta

    def alltoall_time(self, message_bytes_per_pair: float, num_ranks: int) -> float:
        """Pairwise-exchange all-to-all."""
        check_non_negative(message_bytes_per_pair, "message_bytes_per_pair", exc=SimulationError)
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        return (num_ranks - 1) * (alpha + message_bytes_per_pair / beta)

    # ------------------------------------------------------------------
    # Batch (vectorized) forms — used when compiling programs for
    # thousands of ranks, where per-message Python calls would dominate.
    # Each is elementwise identical to its scalar counterpart.
    # ------------------------------------------------------------------
    #: Collective ops accepted by :meth:`collective_times`.
    COLLECTIVE_OPS = ("broadcast", "allreduce", "allgather", "alltoall")

    def collective_times(self, op: str, message_bytes, num_ranks: int) -> np.ndarray:
        """Vectorized collective cost for an array of message sizes.

        ``collective_times(op, m, p)[i] == <op>_time(m[i], p)`` exactly:
        the same alpha-beta formulas evaluated as array expressions.
        """
        if op not in self.COLLECTIVE_OPS:
            raise SimulationError(
                f"op must be one of {self.COLLECTIVE_OPS}, got {op!r}"
            )
        m = np.asarray(message_bytes, dtype=float)
        if m.size and not (m >= 0).all():
            raise SimulationError("message_bytes must be >= 0")
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return np.zeros(m.shape)
        alpha = self.effective_latency()
        beta = self.cluster.node.nic.bandwidth
        p = num_ranks
        if op == "broadcast":
            return math.ceil(math.log2(p)) * (alpha + m / beta)
        if op == "allreduce":
            return 2 * math.log2(p) * alpha + 2 * m * (p - 1) / (p * beta)
        if op == "allgather":
            return (p - 1) * alpha + (p - 1) / p * (m * p) / beta
        # alltoall
        return (p - 1) * (alpha + m / beta)

    def p2p_times(self, message_bytes, node_a, node_b) -> np.ndarray:
        """Vectorized :meth:`p2p_time` over arrays of messages/endpoints.

        ``message_bytes``, ``node_a`` and ``node_b`` broadcast together;
        hop counts come from one array call to the topology.
        """
        m, a, b = np.broadcast_arrays(
            np.asarray(message_bytes, dtype=float),
            np.asarray(node_a, dtype=np.intp),
            np.asarray(node_b, dtype=np.intp),
        )
        if m.size and not (m >= 0).all():
            raise SimulationError("message_bytes must be >= 0")
        nic = self.cluster.node.nic
        out = np.empty(m.shape)
        intra = a == b
        out[intra] = _INTRA_NODE_LATENCY_S + m[intra] / _INTRA_NODE_BANDWIDTH
        inter = ~intra
        if inter.any():
            hops = self.cluster.topology.hops(a[inter], b[inter])
            out[inter] = hops * nic.latency_s + m[inter] / nic.bandwidth
        return out

    def barrier_time(self, num_ranks: int) -> float:
        """Dissemination barrier: ``ceil(log2 p)`` latency rounds."""
        check_positive_int(num_ranks, "num_ranks", exc=SimulationError)
        if num_ranks == 1:
            return 0.0
        return math.ceil(math.log2(num_ranks)) * self.effective_latency()
