"""Struct-of-arrays packing of cluster fleets (the *system* axis).

The sim engine already went columnar along the *time* axis (interval
arrays feeding the sweep-line integrator).  This module does the same
along the *system* axis: a :class:`FleetColumns` holds one 1-D array per
subsystem parameter — clock, per-socket cores, DRAM bandwidth, storage
rate, NIC alpha/beta, the whole power envelope — with row ``i`` describing
fleet member ``i``.  The perf and power model functions, called on these
columns, then score every system at once (:mod:`repro.fleet.evaluate`)
instead of paying per-system model objects, rank programs, and
process-pool jobs.

Only *batchable* systems pack: homogeneous CPU-only nodes with the default
PSU (exactly what :func:`repro.cluster.generator.generate_cluster`
produces, and what the preset CPU machines are).  Accelerated systems
route to the full simulator via the campaign fallback in
:mod:`repro.fleet.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import FleetError
from ..power.node_power import power_envelope, psu_rated_watts

__all__ = ["FleetColumns", "is_batchable", "require_batchable"]


def is_batchable(spec: ClusterSpec) -> bool:
    """Whether the analytic batched path can score this system.

    The vectorized models cover homogeneous CPU-only nodes (the generator's
    whole output space).  Accelerators change both the HPL compute rate and
    the power stack, so accelerated systems take the simulation fallback.
    """
    return not spec.node.accelerators


def require_batchable(spec: ClusterSpec) -> ClusterSpec:
    """Raise :class:`~repro.exceptions.FleetError` unless batchable."""
    if not is_batchable(spec):
        raise FleetError(
            f"system {spec.name!r} carries accelerators; the batched analytic "
            "path covers CPU-only nodes — route it through the simulation "
            "fallback (FleetRankingPipeline does this automatically)"
        )
    return spec


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality only
class FleetColumns:
    """A fleet as struct-of-arrays: one row per system, one array per knob.

    All arrays are 1-D with length ``len(self)``; integer-valued columns are
    stored as float64 so they compose into NumPy expressions (and into the
    ``np.unique`` content keys of the memoizer) without dtype juggling.
    """

    names: Tuple[str, ...]
    num_nodes: np.ndarray
    sockets: np.ndarray
    cpu_cores: np.ndarray  # physical cores per socket
    clock_hz: np.ndarray
    flops_per_cycle: np.ndarray
    cpu_tdp_w: np.ndarray  # per socket
    cpu_idle_w: np.ndarray
    mem_sustained_bw: np.ndarray  # STREAM-sustainable bytes/s per socket
    mem_cores_to_saturate: np.ndarray
    mem_capacity_bytes: np.ndarray  # per socket
    mem_idle_w: np.ndarray  # all-DIMM idle watts per socket
    mem_active_w: np.ndarray
    storage_write_bw: np.ndarray
    storage_idle_w: np.ndarray
    storage_active_w: np.ndarray
    nic_bandwidth: np.ndarray
    nic_latency_s: np.ndarray
    nic_idle_w: np.ndarray
    nic_active_w: np.ndarray
    base_watts: np.ndarray
    psu_rated_w: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.names)
        for f in fields(self):
            if f.name == "names":
                continue
            arr = getattr(self, f.name)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise FleetError(
                    f"column {f.name!r} must be 1-D with {n} rows, got shape {arr.shape}"
                )

    def __len__(self) -> int:
        return len(self.names)

    # -- derived columns ------------------------------------------------
    @property
    def node_cores(self) -> np.ndarray:
        """Physical cores per node (= ranks per node at full pack)."""
        return self.sockets * self.cpu_cores

    @property
    def total_cores(self) -> np.ndarray:
        """MPI ranks of a full-machine run."""
        return self.num_nodes * self.node_cores

    @property
    def peak_flops_per_core(self) -> np.ndarray:
        """Per-core peak DP FLOP/s."""
        return self.clock_hz * self.flops_per_cycle

    @property
    def node_memory_bytes(self) -> np.ndarray:
        """DRAM per node."""
        return self.sockets * self.mem_capacity_bytes

    @property
    def node_sustained_bw(self) -> np.ndarray:
        """STREAM-sustainable bytes/s per node (all sockets)."""
        return self.sockets * self.mem_sustained_bw

    # -- construction / slicing ----------------------------------------
    @classmethod
    def pack(cls, specs: Sequence[ClusterSpec]) -> "FleetColumns":
        """Pack resolved specs into columns (rejects non-batchable systems)."""
        if not specs:
            raise FleetError("cannot pack an empty fleet")
        for spec in specs:
            require_batchable(spec)
        nodes = [spec.node for spec in specs]

        def col(values: List[float]) -> np.ndarray:
            return np.asarray(values, dtype=float)

        envelopes = [power_envelope(n) for n in nodes]
        return cls(
            names=tuple(spec.name for spec in specs),
            num_nodes=col([spec.num_nodes for spec in specs]),
            cpu_cores=col([n.cpu.cores for n in nodes]),
            clock_hz=col([n.cpu.base_clock_hz for n in nodes]),
            flops_per_cycle=col([n.cpu.flops_per_cycle for n in nodes]),
            mem_sustained_bw=col([n.memory.sustained_bandwidth for n in nodes]),
            mem_cores_to_saturate=col([n.memory.cores_to_saturate for n in nodes]),
            mem_capacity_bytes=col([n.memory.capacity_bytes for n in nodes]),
            storage_write_bw=col([n.storage.seq_write_bandwidth for n in nodes]),
            nic_bandwidth=col([n.nic.bandwidth for n in nodes]),
            nic_latency_s=col([n.nic.latency_s for n in nodes]),
            psu_rated_w=col([psu_rated_watts(n) for n in nodes]),
            # The power envelope, named as repro.power.node_power.dc_watts
            # takes it.
            **{name: col([e[name] for e in envelopes]) for name in envelopes[0]},
        )

    def take(self, start: int, stop: int) -> "FleetColumns":
        """The contiguous row slice ``[start, stop)`` as a new instance."""
        kwargs = {"names": self.names[start:stop]}
        for f in fields(self):
            if f.name != "names":
                kwargs[f.name] = getattr(self, f.name)[start:stop]
        return FleetColumns(**kwargs)

    def chunks(self, chunk_size: int) -> Iterator["FleetColumns"]:
        """Yield row chunks of at most ``chunk_size`` systems."""
        if chunk_size < 1:
            raise FleetError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            yield self.take(start, min(start + chunk_size, len(self)))
