"""IOzone sequential-write performance model.

The paper runs only IOzone's write test, one instance per node, and reports
MB/s.  A write benchmark's measured rate blends two regimes:

* while the file still fits in free page cache, writes complete at memory
  speed (the *absorption window*);
* once the cache is saturated (or when the run ends with a mandated flush),
  writes proceed at the device's sustained sequential rate.

The model exposes the cache window via ``cache_window_bytes`` (default: a
quarter of node DRAM, a typical dirty-page ceiling) and applies a fixed
filesystem efficiency to the device rate.  For the file sizes the
experiments use (several x DRAM) the device rate dominates, as it must for
an I/O benchmark to be meaningful — but the window is modelled so tests can
demonstrate the classic "IOzone lies for small files" artifact.

Aggregate performance over ``k`` nodes is ``k`` times the per-node rate
(node-local disks; no shared filesystem contention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster.cluster import ClusterSpec
from ..exceptions import BenchmarkError
from ..validation import check_fraction, check_positive, check_positive_int

__all__ = [
    "IOzoneModel", "IOzonePrediction", "default_cache_window", "device_rate",
    "file_size_for_time", "write_run",
]


# Formulas over plain numbers or NumPy arrays (one row per system), with
# the same IEEE operations either way.  IOzoneModel validates and calls them.

def default_cache_window(node_memory_bytes):
    """A quarter of node DRAM: a typical dirty-page ceiling."""
    return 0.25 * node_memory_bytes


def device_rate(seq_write_bandwidth, filesystem_efficiency):
    """Sustained filesystem write bytes/s of one node."""
    return seq_write_bandwidth * filesystem_efficiency


def write_run(num_nodes, file_bytes, window_bytes, cache_bandwidth, device_bytes_per_s):
    """``(seconds, per-node bytes/s, aggregate bytes/s)`` of a write run.

    The first ``window_bytes`` land in the page cache at
    ``cache_bandwidth``; the rest go at the device rate.  The blended rate
    is mathematically within [device rate, cache bandwidth], but the float
    division can land a few ulps above the cache ceiling (e.g. when the
    file barely exceeds the absorption window); it is clamped so the model
    honours its own bound exactly.
    """
    window = np.minimum(window_bytes, file_bytes)
    time_s = window / cache_bandwidth + (file_bytes - window) / device_bytes_per_s
    per_node = np.minimum(file_bytes / time_s, cache_bandwidth)
    return time_s, per_node, per_node * num_nodes


def file_size_for_time(target_seconds, window_bytes, cache_bandwidth, device_bytes_per_s):
    """Per-node file size whose write takes ~``target_seconds``."""
    window_time = window_bytes / cache_bandwidth
    return np.where(
        target_seconds <= window_time,
        np.maximum(1.0, target_seconds * cache_bandwidth),
        window_bytes + (target_seconds - window_time) * device_bytes_per_s,
    )


@dataclass(frozen=True)
class IOzonePrediction:
    """Predicted timing and rate of one IOzone write run."""

    num_nodes: int
    file_bytes: float
    time_s: float
    per_node_bandwidth: float  # measured bytes/s on each node
    aggregate_bandwidth: float  # summed over nodes


@dataclass(frozen=True)
class IOzoneModel:
    """IOzone write-test predictor for one cluster.

    Parameters
    ----------
    cluster:
        The machine.
    filesystem_efficiency:
        Fraction of the device's sequential rate the filesystem sustains
        (journaling, metadata, and allocation overhead).
    cache_window_bytes:
        Bytes absorbed at memory speed before the device rate applies;
        ``None`` selects a quarter of node DRAM.
    cache_bandwidth:
        Apparent bytes/s while writes land in the page cache.
    """

    cluster: ClusterSpec
    filesystem_efficiency: float = 0.92
    cache_window_bytes: Optional[float] = None
    cache_bandwidth: float = 2.0e9

    def __post_init__(self) -> None:
        check_fraction(self.filesystem_efficiency, "filesystem_efficiency", exc=BenchmarkError)
        if self.filesystem_efficiency == 0:
            raise BenchmarkError("filesystem_efficiency must be > 0")
        if self.cache_window_bytes is not None:
            check_positive(self.cache_window_bytes, "cache_window_bytes", exc=BenchmarkError)
        check_positive(self.cache_bandwidth, "cache_bandwidth", exc=BenchmarkError)

    def effective_cache_window(self) -> float:
        """The absorption window in bytes."""
        if self.cache_window_bytes is not None:
            return self.cache_window_bytes
        return default_cache_window(self.cluster.node.memory_bytes)

    def device_rate(self) -> float:
        """Sustained filesystem write bytes/s of one node."""
        return device_rate(
            self.cluster.node.storage.seq_write_bandwidth, self.filesystem_efficiency
        )

    def predict(self, num_nodes: int, *, file_bytes: float) -> IOzonePrediction:
        """Predict a write of ``file_bytes`` per node on ``num_nodes`` nodes."""
        check_positive_int(num_nodes, "num_nodes", exc=BenchmarkError)
        if num_nodes > self.cluster.num_nodes:
            raise BenchmarkError(
                f"{num_nodes} nodes exceed cluster size {self.cluster.num_nodes}"
            )
        check_positive(file_bytes, "file_bytes", exc=BenchmarkError)
        time_s, per_node, aggregate = map(float, write_run(
            num_nodes,
            file_bytes,
            self.effective_cache_window(),
            self.cache_bandwidth,
            self.device_rate(),
        ))
        return IOzonePrediction(
            num_nodes=num_nodes,
            file_bytes=file_bytes,
            time_s=time_s,
            per_node_bandwidth=per_node,
            aggregate_bandwidth=aggregate,
        )

    def file_size_for_time(self, target_seconds: float) -> float:
        """Per-node file size whose predicted runtime is ~``target_seconds``."""
        check_positive(target_seconds, "target_seconds", exc=BenchmarkError)
        return float(file_size_for_time(
            target_seconds, self.effective_cache_window(), self.cache_bandwidth, self.device_rate()
        ))
