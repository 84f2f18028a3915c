"""Ambient timeline capture: arm/disarm mirroring the journal's emit path.

The executor's hot path never builds a timeline unless someone is
listening.  The contract is the same one :mod:`repro.journal` uses for
events and :mod:`repro.telemetry` uses for spans:

* **Disarmed** (the default): :func:`capturing` is a single read of the
  ``sink`` slot of :mod:`repro.ambient` against ``None`` — the executor
  skips every capture branch.  Nothing is allocated, nothing is copied.
* **Armed** (a sink attached via :func:`attach_sink` or the
  :func:`collecting` context manager): the integrators stash *references*
  to the columnar arrays they already computed into a
  :class:`TimelineCapture`, and :meth:`~repro.sim.executor.ClusterExecutor.execute`
  wraps them into a :class:`~repro.timeline.model.RunTimeline` handed to
  the sink.  All derived analysis (component grids, audits, binning) is
  lazy — it runs when an artifact or dashboard asks, not on the sim path.

Pool safety follows the journal: the sink is per-process state.  Campaign
pool workers start each job with no sink bound, arm their own sink around
the job when the campaign asks for timeline artifacts, and ship those
artifacts via files, never through the binding.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import ambient as _ambient
from ..exceptions import TimelineError

__all__ = [
    "TimelineCapture",
    "MemorySink",
    "attach_sink",
    "detach_sink",
    "ambient_sink",
    "capturing",
    "record",
    "collecting",
]


class TimelineCapture:
    """Raw columnar arrays stashed by one power integration.

    The vectorized integrator fills it with references to arrays it
    already owns (O(1) per field); the reference oracle appends per-slice
    scalars and converts on :meth:`finalize_reference`.  Either way the
    result is one flat slice table — ``(start, end, node_row, wall_w)``
    plus one DC-watts column per component — ordered by node row.
    """

    __slots__ = (
        "makespan",
        "nodes_used",
        "idle_nodes",
        "slice_start",
        "slice_end",
        "slice_node",
        "slice_wall_w",
        "components",
        "_ref_rows",
    )

    def __init__(self) -> None:
        self.makespan: float = 0.0
        self.nodes_used: Tuple[int, ...] = ()
        self.idle_nodes: int = 0
        self.slice_start: Optional[np.ndarray] = None
        self.slice_end: Optional[np.ndarray] = None
        self.slice_node: Optional[np.ndarray] = None
        self.slice_wall_w: Optional[np.ndarray] = None
        self.components: Dict[str, np.ndarray] = {}
        self._ref_rows: List[Tuple[float, float, int, float, Dict[str, float]]] = []

    # -- vectorized fill: reference stashes, no copies ------------------
    def set_slices(
        self,
        *,
        start: np.ndarray,
        end: np.ndarray,
        node_row: np.ndarray,
        wall_w: np.ndarray,
        components: Dict[str, np.ndarray],
    ) -> None:
        self.slice_start = start
        self.slice_end = end
        self.slice_node = node_row
        self.slice_wall_w = wall_w
        self.components = components

    # -- reference fill: one row per slice ------------------------------
    def add_slice(
        self,
        t0: float,
        t1: float,
        node_row: int,
        wall_w: float,
        parts: Dict[str, float],
    ) -> None:
        self._ref_rows.append((t0, t1, node_row, wall_w, dict(parts)))

    def finalize_reference(self) -> None:
        """Convert the oracle's appended rows into the columnar form."""
        if not self._ref_rows:
            raise TimelineError("reference capture saw no slices")
        self.slice_start = np.array([r[0] for r in self._ref_rows])
        self.slice_end = np.array([r[1] for r in self._ref_rows])
        self.slice_node = np.array([r[2] for r in self._ref_rows], dtype=np.intp)
        self.slice_wall_w = np.array([r[3] for r in self._ref_rows])
        names = sorted(self._ref_rows[0][4])
        self.components = {
            name: np.array([r[4][name] for r in self._ref_rows]) for name in names
        }
        self._ref_rows = []

    @property
    def filled(self) -> bool:
        return self.slice_start is not None


class MemorySink:
    """Collects every captured :class:`~repro.timeline.model.RunTimeline`."""

    def __init__(self) -> None:
        self.timelines: List[object] = []

    def add(self, timeline: object) -> None:
        self.timelines.append(timeline)


# The ambient sink is the ``sink`` slot of :mod:`repro.ambient`.  ``None``
# means capture is disarmed — the executor's fast path is one read of it.

def _ensure_disarmed() -> None:
    if _ambient.sink is not None:
        raise TimelineError(
            "a timeline sink is already attached; detach it first "
            "(nested collecting() blocks are not supported)"
        )


def attach_sink(sink: MemorySink) -> None:
    """Arm timeline capture for this process."""
    _ensure_disarmed()
    _ambient.sink = sink


def detach_sink() -> None:
    """Disarm timeline capture (no-op when already disarmed)."""
    _ambient.sink = None


def ambient_sink() -> Optional[MemorySink]:
    """The currently attached sink, or ``None``."""
    return _ambient.sink


def capturing() -> bool:
    """Whether a sink is armed (the executor's single disarmed check)."""
    return _ambient.sink is not None


def record(timeline: object) -> None:
    """Hand a finished run timeline to the ambient sink, if any."""
    sink = _ambient.sink
    if sink is None:
        return
    sink.add(timeline)


@contextmanager
def collecting() -> Iterator[List[object]]:
    """Arm capture for the block; yields the list the timelines land in.

    >>> with collecting() as timelines:
    ...     executor.execute(placement, programs)
    >>> timelines[0].energy_j  # doctest: +SKIP
    """
    sink = MemorySink()
    _ensure_disarmed()
    with _ambient.bound(sink=sink):
        yield sink.timelines
