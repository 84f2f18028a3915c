"""Per-node power aggregation: DC draw and wall draw for one node.

:class:`NodePowerModel` bundles the component models for one
:class:`~repro.cluster.node.NodeSpec` and its PSU.  It is the single place
where "a node at utilization *u* draws *P* watts at the wall" is defined;
everything upstream (the simulator) produces utilizations and everything
downstream (the meter) sums wall watts across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..cluster.node import NodeSpec
from ..exceptions import PowerModelError
from ..validation import check_fraction
from .components import (
    AcceleratorPowerModel,
    NodeUtilization,
    NodeUtilizationArray,
    cpu_package_watts,
    linear_watts,
)
from .psu import PSUModel

__all__ = [
    "NodePowerModel", "component_watts", "dc_watts", "power_envelope", "psu_rated_watts",
]

#: Headroom factor: PSUs are sized above the node's nominal full-load draw.
_PSU_SIZING_FACTOR = 1.25


def psu_rated_watts(node: NodeSpec) -> float:
    """Default PSU rating: 1.25 x the node's nominal full-load DC draw."""
    return _PSU_SIZING_FACTOR * node.nominal_max_watts


def power_envelope(node: NodeSpec) -> Dict[str, float]:
    """The spec numbers :func:`component_watts` reads, keyed by its parameters."""
    return {
        "base_watts": node.base_watts,
        "sockets": node.sockets,
        "cpu_idle_w": node.cpu.idle_watts,
        "cpu_tdp_w": node.cpu.tdp_watts,
        "mem_idle_w": node.memory.idle_watts,
        "mem_active_w": node.memory.active_watts,
        "storage_idle_w": node.storage.idle_watts,
        "storage_active_w": node.storage.active_watts,
        "nic_idle_w": node.nic.idle_watts,
        "nic_active_w": node.nic.active_watts,
    }


def component_watts(
    util, *, base_watts, sockets, cpu_idle_w, cpu_tdp_w, mem_idle_w, mem_active_w,
    storage_idle_w, storage_active_w, nic_idle_w, nic_active_w, cpu_awake_floor,
) -> Dict[str, object]:
    """DC watts of each part of a CPU-only node, in summation order.

    ``util`` is a :class:`~repro.power.components.NodeUtilization` or a
    :class:`~repro.power.components.NodeUtilizationArray`; the envelope
    numbers may be plain numbers or arrays (one row per system).
    """
    return {
        "base": base_watts,
        "cpu": cpu_package_watts(
            cpu_idle_w, cpu_tdp_w, sockets,
            util.cpu_active_fraction, util.cpu_intensity, cpu_awake_floor,
        ),
        "memory": linear_watts(mem_idle_w, mem_active_w, util.memory, sockets),
        "storage": linear_watts(storage_idle_w, storage_active_w, util.storage),
        "nic": linear_watts(nic_idle_w, nic_active_w, util.nic),
    }


def dc_watts(util, **envelope):
    """DC watts of a CPU-only node: its :func:`component_watts`, summed in order."""
    return sum(component_watts(util, **envelope).values())


@dataclass(frozen=True)
class NodePowerModel:
    """Utilization -> watts for one node.

    Every method takes a :class:`~repro.power.components.NodeUtilization`
    (watts as a float) or a
    :class:`~repro.power.components.NodeUtilizationArray` (watts per
    timeline slice, elementwise bitwise equal to the scalar call); the
    ``*_many`` names are aliases kept for the array form.

    Parameters
    ----------
    node:
        The node being modelled.
    psu:
        Power supply; defaults to a :class:`~repro.power.psu.PSUModel` rated
        at 1.25 x the node's nominal full-load DC draw with the default
        efficiency curve.
    cpu_awake_floor:
        Awake floor of the CPU package formula; see
        :class:`~repro.power.components.CPUPowerModel`.
    """

    node: NodeSpec
    psu: Optional[PSUModel] = None
    cpu_awake_floor: float = 0.45

    def __post_init__(self) -> None:
        check_fraction(self.cpu_awake_floor, "cpu_awake_floor", exc=PowerModelError)
        if self.psu is None:
            object.__setattr__(self, "psu", PSUModel(rated_watts=psu_rated_watts(self.node)))
        envelope = dict(power_envelope(self.node), cpu_awake_floor=self.cpu_awake_floor)
        object.__setattr__(self, "_envelope", envelope)
        object.__setattr__(
            self,
            "_accelerators",
            tuple(AcceleratorPowerModel(spec=acc) for acc in self.node.accelerators),
        )

    def dc_power(self, util):
        """DC watts drawn by the node at the given utilization."""
        total = dc_watts(util, **self._envelope)
        for acc in self._accelerators:
            total += acc.power(util)
        return total

    def wall_power(self, util):
        """AC watts drawn from the outlet at the given utilization."""
        return self.psu.wall_watts(self.dc_power(util))

    def idle_wall_power(self) -> float:
        """Wall watts of a fully idle node."""
        return self.wall_power(NodeUtilization.idle())

    def max_wall_power(self) -> float:
        """Wall watts with every component fully loaded."""
        full = NodeUtilization(
            cpu_active_fraction=1.0,
            cpu_intensity=1.0,
            memory=1.0,
            storage=1.0,
            nic=1.0,
            accelerator=1.0,
        )
        return self.wall_power(full)

    def component_breakdown(self, util) -> Dict[str, object]:
        """Per-component DC watts (for reports and debugging)."""
        breakdown = component_watts(util, **self._envelope)
        if isinstance(util, NodeUtilizationArray):
            breakdown["base"] = np.full(len(util), breakdown["base"])
        if self._accelerators:
            breakdown["accelerators"] = sum(acc.power(util) for acc in self._accelerators)
        return breakdown

    dc_power_many = dc_power
    wall_power_many = wall_power
    component_breakdown_many = component_breakdown
