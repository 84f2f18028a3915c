"""Component-level power models: utilization in, watts out.

Each model maps a component's specification plus an instantaneous
utilization to DC power draw.  The models are deliberately simple
(linear-in-utilization between a measured idle floor and a measured
full-load ceiling, with a CPU refinement described below) because the paper's
metric consumes *whole-system wall power*; what matters for reproducing its
curves is that the floors and ceilings are right and that partially-loaded
nodes land in between monotonically.

CPU refinement: a core that is awake but stalled (e.g. running STREAM,
waiting on DRAM) still burns clock-tree and leakage power.  The model
therefore splits the per-core dynamic range into an *awake floor*
(:attr:`CPUPowerModel.awake_floor`) paid by any busy core, plus an
intensity-proportional remainder — so compute-bound HPL draws close to TDP
while memory-bound STREAM draws noticeably less at the same core count,
matching the power gap the paper observes between its benchmarks.

Scalars or arrays: each formula is written once, as a module-level
function (:func:`cpu_package_watts`, :func:`linear_watts`) over plain
numbers or NumPy arrays.  A model's ``power`` method reads its spec and
calls the function, so ``power`` accepts a :class:`NodeUtilization` or a
:class:`NodeUtilizationArray` (struct-of-arrays: one ndarray per
utilization field, one entry per timeline slice) alike.  Elementwise the
array result is bitwise identical to the scalar one — the sweep-line
integrator in :mod:`repro.sim.executor` relies on this to stay equivalent
to its scalar reference oracle, and the fleet ranker
(:mod:`repro.fleet.evaluate`) calls the same functions over a system axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.accelerator import AcceleratorSpec
from ..cluster.cpu import CPUSpec
from ..cluster.memory import MemorySpec
from ..cluster.nic import InterconnectSpec
from ..cluster.storage import StorageSpec
from ..exceptions import PowerModelError
from ..validation import check_fraction

__all__ = [
    "NodeUtilization", "NodeUtilizationArray", "CPUPowerModel", "MemoryPowerModel",
    "StoragePowerModel", "NICPowerModel", "AcceleratorPowerModel", "cpu_package_watts",
    "linear_watts",
]


@dataclass(frozen=True)
class NodeUtilization:
    """Instantaneous utilization of one node's components.

    All fields are fractions in [0, 1].

    Attributes
    ----------
    cpu_active_fraction:
        Fraction of the node's cores that are busy (running a rank).
    cpu_intensity:
        How power-hungry the busy cores' work is: ~1.0 for dense compute
        (HPL), ~0.6 for bandwidth-bound code (STREAM), ~0.15 for cores
        blocked on I/O or messages.
    memory:
        Fraction of sustained memory bandwidth in use.
    storage:
        Fraction of disk bandwidth in use.
    nic:
        Fraction of link bandwidth in use.
    accelerator:
        Fraction of accelerator throughput in use (extension systems).
    """

    cpu_active_fraction: float = 0.0
    cpu_intensity: float = 0.0
    memory: float = 0.0
    storage: float = 0.0
    nic: float = 0.0
    accelerator: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "cpu_active_fraction",
            "cpu_intensity",
            "memory",
            "storage",
            "nic",
            "accelerator",
        ):
            check_fraction(getattr(self, name), name, exc=PowerModelError)

    @classmethod
    def idle(cls) -> "NodeUtilization":
        """A fully idle node."""
        return cls()


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality only
class NodeUtilizationArray:
    """A whole utilization timeline as struct-of-arrays.

    Field-for-field the batched counterpart of :class:`NodeUtilization`:
    each attribute is a 1-D float array with one entry per timeline slice.
    Instances are produced by trusted code (the sweep-line integrator), so
    construction validates shape agreement but not per-element ranges —
    the producers clamp to [0, 1] themselves.
    """

    cpu_active_fraction: np.ndarray
    cpu_intensity: np.ndarray
    memory: np.ndarray
    storage: np.ndarray
    nic: np.ndarray
    accelerator: np.ndarray

    _FIELDS = (
        "cpu_active_fraction",
        "cpu_intensity",
        "memory",
        "storage",
        "nic",
        "accelerator",
    )

    def __post_init__(self) -> None:
        shapes = {getattr(self, name).shape for name in self._FIELDS}
        if len(shapes) != 1 or next(iter(shapes)) != (len(self),):
            raise PowerModelError(
                f"utilization arrays must share one 1-D shape, got {sorted(shapes)}"
            )

    def __len__(self) -> int:
        return int(np.asarray(self.cpu_active_fraction).shape[0])

    @classmethod
    def idle(cls, n: int) -> "NodeUtilizationArray":
        """``n`` fully idle slices."""
        zeros = np.zeros(n)
        return cls(zeros, zeros, zeros, zeros, zeros, zeros)

    @classmethod
    def from_utilizations(cls, utils: Sequence[NodeUtilization]) -> "NodeUtilizationArray":
        """Pack scalar utilizations into one batch (tests, adapters)."""
        return cls(
            *(
                np.array([getattr(u, name) for u in utils], dtype=float)
                for name in cls._FIELDS
            )
        )

    def at(self, i: int) -> NodeUtilization:
        """The scalar :class:`NodeUtilization` of slice ``i``."""
        return NodeUtilization(
            **{name: float(getattr(self, name)[i]) for name in self._FIELDS}
        )


def linear_watts(idle_w, active_w, util, count=1):
    """``count`` components each linear between idle and active power."""
    return count * (idle_w + (active_w - idle_w) * util)


def cpu_package_watts(idle_w, tdp_w, sockets, active_fraction, intensity, awake_floor):
    """``sockets * (idle + (tdp - idle) * active * (floor + (1 - floor) * intensity))``."""
    per_core_load = awake_floor + (1.0 - awake_floor) * intensity
    return sockets * (idle_w + (tdp_w - idle_w) * active_fraction * per_core_load)


@dataclass(frozen=True)
class CPUPowerModel:
    """Power of all CPU packages in a node.

    ``P = sockets * (idle + (tdp - idle) * active * (floor + (1-floor) * intensity))``

    where ``active`` is the fraction of busy cores and ``floor`` the awake
    floor described in the module docstring.
    """

    spec: CPUSpec
    sockets: int
    awake_floor: float = 0.45

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise PowerModelError(f"sockets must be >= 1, got {self.sockets}")
        check_fraction(self.awake_floor, "awake_floor", exc=PowerModelError)

    def power(self, util):
        """DC watts for a utilization (or per slice of a utilization array)."""
        return cpu_package_watts(
            self.spec.idle_watts, self.spec.tdp_watts, self.sockets,
            util.cpu_active_fraction, util.cpu_intensity, self.awake_floor,
        )


@dataclass(frozen=True)
class MemoryPowerModel:
    """Power of all DIMMs in a node (linear in bandwidth utilization)."""

    spec: MemorySpec
    sockets: int

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise PowerModelError(f"sockets must be >= 1, got {self.sockets}")

    def power(self, util):
        """DC watts for a utilization (or per slice of a utilization array)."""
        return linear_watts(self.spec.idle_watts, self.spec.active_watts, util.memory, self.sockets)


@dataclass(frozen=True)
class StoragePowerModel:
    """Power of the node's local storage device."""

    spec: StorageSpec

    def power(self, util):
        """DC watts for a utilization (or per slice of a utilization array)."""
        return linear_watts(self.spec.idle_watts, self.spec.active_watts, util.storage)


@dataclass(frozen=True)
class NICPowerModel:
    """Power of the node's network adapter."""

    spec: InterconnectSpec

    def power(self, util):
        """DC watts for a utilization (or per slice of a utilization array)."""
        return linear_watts(self.spec.idle_watts, self.spec.active_watts, util.nic)


@dataclass(frozen=True)
class AcceleratorPowerModel:
    """Power of one accelerator card (linear between idle and TDP)."""

    spec: AcceleratorSpec

    def power(self, util):
        """DC watts for a utilization (or per slice of a utilization array)."""
        return linear_watts(self.spec.idle_watts, self.spec.tdp_watts, util.accelerator)
