"""Cross-system batched evaluation of the full-machine benchmark suite.

Two paths produce bitwise-identical numbers:

* :func:`evaluate_system` — the scalar **oracle**: one system at a time,
  through the very model objects the simulator compiles
  (:class:`~repro.perfmodels.hpl.HPLModel`,
  :class:`~repro.perfmodels.stream.StreamModel`,
  :class:`~repro.perfmodels.iozone.IOzoneModel`,
  :class:`~repro.power.node_power.NodePowerModel`);
* :func:`evaluate_fleet` with ``path="batched"`` — the same physics over
  :class:`~repro.fleet.columns.FleetColumns`, one NumPy pass per benchmark
  for the whole fleet.

There is one physics.  Each formula is a module-level function over plain
numbers or arrays, in the module that owns its model
(:mod:`repro.perfmodels.hpl`, :mod:`~repro.perfmodels.stream`,
:mod:`~repro.perfmodels.iozone`, :mod:`repro.power.components`,
:mod:`~repro.power.node_power`, :mod:`~repro.power.psu`).  The model
classes validate and call those functions; the batched path packs columns
and calls them too, with the model and benchmark classes' own defaults.
This module adds only what both of its paths share: the node utilization
of a fully packed run and the time-weighted mean over its phases.

Why an *analytic* path is exact here: a full-machine fleet job packs every
node identically (ranks = total cores, breadth-first), runs rank-uniform
programs, and hits no barrier waits — so each benchmark's node utilization
is piecewise constant and the simulator's ground-truth energy integral
collapses to ``sum(wall_watts(phase) * duration) / makespan`` per node.
Both paths evaluate exactly that, skipping per-rank program objects, the
event sweep, and the metering noise (they report *true* model power; the
campaign path reports *metered* power).

Content-keyed memoization: per benchmark, only the columns that enter its
score form the content key; systems sharing a key (grid sweeps, repeated
presets, duplicated era draws) are computed once and scattered back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..benchmarks.hpl import HPLBenchmark
from ..benchmarks.iozone import IOzoneBenchmark
from ..benchmarks.stream import StreamBenchmark
from ..cluster.cluster import ClusterSpec
from ..exceptions import FleetError
from ..experiments.config import PAPER_CONFIG, ExperimentConfig
from ..perfmodels import hpl, iozone, stream
from ..perfmodels.hpl import HPLModel, HPLPrediction
from ..perfmodels.iozone import IOzoneModel
from ..perfmodels.stream import StreamModel, StreamPrediction
from ..power.components import NodeUtilization, NodeUtilizationArray
from ..power.node_power import NodePowerModel, dc_watts
from ..power.psu import PSUModel, curve_points, wall_watts
from .columns import FleetColumns, require_batchable

__all__ = [
    "FLEET_BENCHMARKS",
    "FleetScores",
    "FleetEvaluation",
    "evaluate_system",
    "evaluate_fleet",
]

#: Suite members the fleet path scores, in suite order.
FLEET_BENCHMARKS: Tuple[str, ...] = ("HPL", "STREAM", "IOzone")

#: Evaluation paths (mirrors the sim layer's engine/integration switches).
_PATHS = ("batched", "reference")

#: FleetColumns fields holding the node power envelope, named as
#: :func:`~repro.power.node_power.dc_watts` takes them.
_ENVELOPE = (
    "base_watts", "sockets", "cpu_idle_w", "cpu_tdp_w", "mem_idle_w", "mem_active_w",
    "storage_idle_w", "storage_active_w", "nic_idle_w", "nic_active_w",
)


@dataclass(frozen=True, eq=False)
class FleetScores:
    """One benchmark's per-system results (arrays over the fleet)."""

    performance: np.ndarray
    time_s: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    efficiency: np.ndarray  # EE = performance / power (Eq. 2)


_FIELDS = tuple(f.name for f in dataclasses.fields(FleetScores))


@dataclass(frozen=True, eq=False)
class FleetEvaluation:
    """Full-suite scores for a fleet, plus memoization accounting.

    ``memo_unique[b]`` is how many distinct content keys benchmark ``b``
    actually computed; ``len(self) - memo_unique[b]`` results were shared.
    """

    names: Tuple[str, ...]
    scores: Dict[str, FleetScores]
    memo_unique: Dict[str, int]
    path: str

    def __len__(self) -> int:
        return len(self.names)

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        return tuple(self.scores)

    def efficiency_matrix(self) -> np.ndarray:
        """``(systems, benchmarks)`` EE matrix in suite order."""
        return np.column_stack([self.scores[b].efficiency for b in self.scores])

    def system(self, i: int) -> Dict[str, Dict[str, float]]:
        """All of system ``i``'s numbers as plain floats (reports, tests)."""
        return {
            b: {field: float(getattr(s, field)[i]) for field in _FIELDS}
            for b, s in self.scores.items()
        }


# ----------------------------------------------------------------------
# Shared by both paths: full-pack node utilizations and phase weighting
# ----------------------------------------------------------------------

def _hpl_phases(k):
    """Node utilization of HPL's compute and comm phases, ``k`` ranks a node."""
    bench = HPLBenchmark
    compute = dict(
        cpu_active_fraction=1.0,
        cpu_intensity=bench.compute_intensity,
        memory=np.minimum(1.0, k * bench.memory_per_rank),
    )
    comm = dict(
        cpu_active_fraction=1.0,
        cpu_intensity=bench.comm_intensity,
        nic=np.minimum(1.0, k * bench.nic_utilization),
    )
    return compute, comm


def _stream_phase(k, prediction, node_sustained_bw, intensity):
    """Node utilization of ``k`` Triad ranks (the benchmark's memory share)."""
    share = np.minimum(1.0, prediction.per_rank_bandwidth / node_sustained_bw)
    return dict(
        cpu_active_fraction=1.0, cpu_intensity=intensity, memory=np.minimum(1.0, k * share)
    )


def _iozone_phase(k):
    """Node utilization of one IOzone writer on a ``k``-core node."""
    return dict(
        cpu_active_fraction=np.minimum(1.0, 1.0 / k),
        cpu_intensity=IOzoneBenchmark.cpu_intensity,
        memory=IOzoneBenchmark.memory_share,
        storage=1.0,
    )


def _hpl_node_watts(w_compute, w_comm, prediction):
    """Time-weighted node watts over an HPL run's compute and comm phases."""
    return (
        w_compute * prediction.compute_time_s + w_comm * prediction.comm_time_s
    ) / prediction.total_time_s


def _scores(performance, time_s, node_watts, num_nodes) -> Dict[str, object]:
    power_w = num_nodes * node_watts
    return dict(
        performance=performance,
        time_s=time_s,
        power_w=power_w,
        energy_j=power_w * time_s,
        efficiency=performance / power_w,
    )


def _hpl_knobs(config: ExperimentConfig, reference: bool) -> Dict[str, float]:
    """HPLModel knobs: defaults for reference runs, else the config's."""
    if reference:
        # build_suite(reference=True): capability sizing, default model knobs.
        return dict(
            comm_volume_factor=HPLModel.comm_volume_factor,
            contention_threshold=HPLModel.contention_threshold,
            contention_slope=HPLModel.contention_slope,
        )
    return dict(
        comm_volume_factor=config.hpl_comm_volume_factor,
        contention_threshold=config.hpl_contention_threshold,
        contention_slope=config.hpl_contention_slope,
    )


def _check_problem_size(config: ExperimentConfig) -> None:
    if config.hpl_problem_size < HPLModel.block_size:
        raise FleetError(
            f"hpl_problem_size {config.hpl_problem_size} below block size "
            f"{HPLModel.block_size}"
        )


# ----------------------------------------------------------------------
# Scalar oracle
# ----------------------------------------------------------------------

def evaluate_system(
    spec: ClusterSpec,
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    reference: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Score one system's full-machine suite through the scalar models.

    This is the equivalence oracle for the batched path; it is also
    value-identical (to float associativity) to the *true* — unmetered —
    numbers of a full simulation job on the same spec, because a
    fully-packed uniform run has piecewise-constant utilization (see
    module docstring).

    ``reference=True`` selects the capability-sized HPL used for
    reference-system runs (``build_suite(reference=True)`` semantics).
    """
    require_batchable(spec)
    node = spec.node
    power = NodePowerModel(node=node)
    k = node.cores  # ranks per node at full pack
    ranks = spec.total_cores

    def watts(phase) -> float:
        return power.wall_power(NodeUtilization(**phase))

    # --- HPL ----------------------------------------------------------
    model = HPLModel(cluster=spec, **_hpl_knobs(config, reference))
    if reference:
        n = model.problem_size_from_memory(
            memory_fraction=config.hpl_reference_memory_fraction
        )
    else:
        _check_problem_size(config)
        n = config.hpl_problem_size
    pred = model.predict(n, ranks, ranks_per_node=k)
    compute, comm = _hpl_phases(k)
    node_watts = _hpl_node_watts(watts(compute), watts(comm), pred)
    hpl_scores = _scores(pred.performance_flops, pred.total_time_s, node_watts, spec.num_nodes)

    # --- STREAM -------------------------------------------------------
    stream_model = StreamModel(cluster=spec)
    elements = StreamBenchmark.array_elements
    iterations = stream_model.iterations_for_time(
        config.stream_target_seconds, ranks, array_elements=elements, ranks_per_node=k
    )
    spred = stream_model.predict(
        ranks, array_elements=elements, iterations=iterations, ranks_per_node=k
    )
    phase = _stream_phase(k, spred, node.sustained_memory_bandwidth, config.stream_intensity)
    stream_scores = _scores(spred.aggregate_bandwidth, spred.time_s, watts(phase), spec.num_nodes)

    # --- IOzone (one writer per node, all nodes) ----------------------
    iozone_model = IOzoneModel(cluster=spec)
    file_bytes = iozone_model.file_size_for_time(config.iozone_target_seconds)
    ipred = iozone_model.predict(spec.num_nodes, file_bytes=file_bytes)
    iozone_scores = _scores(
        ipred.aggregate_bandwidth, ipred.time_s, watts(_iozone_phase(k)), spec.num_nodes
    )

    return {"HPL": hpl_scores, "STREAM": stream_scores, "IOzone": iozone_scores}


# ----------------------------------------------------------------------
# Batched path: packing plus calls into the model functions
# ----------------------------------------------------------------------

def _node_watts(cols: FleetColumns, idx: np.ndarray, phase) -> np.ndarray:
    """NodePowerModel.wall_power of rows ``idx`` at a full-pack utilization."""
    util = dataclasses.replace(
        NodeUtilizationArray.idle(idx.size),
        **{name: np.broadcast_to(value, idx.shape) for name, value in phase.items()},
    )
    dc = dc_watts(
        util,
        cpu_awake_floor=NodePowerModel.cpu_awake_floor,
        **{name: getattr(cols, name)[idx] for name in _ENVELOPE},
    )
    return wall_watts(dc, cols.psu_rated_w[idx], *curve_points(PSUModel.curve))


def _memoized(
    key_columns: Sequence[np.ndarray],
    compute: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]],
    n: int,
    memoize: bool,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """Run ``compute`` once per distinct content key, scatter to all rows.

    ``key_columns`` are the spec columns a benchmark's score depends on;
    ``compute(idx)`` evaluates representative rows ``idx`` and returns
    ``(performance, time_s, node_watts)`` arrays aligned with ``idx``.
    """
    everyone = np.arange(n)
    if not memoize:
        return compute(everyone), n
    key = np.column_stack(key_columns)
    _, representatives, inverse = np.unique(
        key, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)  # numpy 2.x returns the keyed shape
    if representatives.size == n:
        return compute(everyone), n
    results = compute(representatives)
    return tuple(r[inverse] for r in results), int(representatives.size)


def _power_key(cols: FleetColumns) -> List[np.ndarray]:
    """Columns every benchmark's power depends on."""
    return [getattr(cols, name) for name in _ENVELOPE] + [cols.psu_rated_w]


def _hpl_batched(cols: FleetColumns, config: ExperimentConfig, reference: bool, memoize: bool):
    key = _power_key(cols) + [
        cols.num_nodes, cols.cpu_cores, cols.clock_hz, cols.flops_per_cycle,
        cols.nic_bandwidth, cols.nic_latency_s,
    ]
    if reference:
        key.append(cols.mem_capacity_bytes)
    else:
        _check_problem_size(config)
    knobs = _hpl_knobs(config, reference)
    block = HPLModel.block_size

    def compute(idx: np.ndarray):
        k = cols.node_cores[idx]
        ranks = cols.total_cores[idx]
        if reference:
            n = hpl.capability_problem_size(
                config.hpl_reference_memory_fraction,
                cols.num_nodes[idx],
                cols.node_memory_bytes[idx],
                block,
            )
            if np.any(n < block):
                raise FleetError("memory too small for a single HPL block")
        else:
            n = np.full(idx.size, float(config.hpl_problem_size))
        flops = hpl.flop_count(n)
        slowdown = hpl.contention_slowdown(
            k, k, knobs["contention_threshold"], knobs["contention_slope"]
        )
        volume, latency = hpl.comm_times(
            n, ranks, cols.nic_bandwidth[idx], cols.nic_latency_s[idx], block,
            knobs["comm_volume_factor"],
        )
        pred = HPLPrediction(
            problem_size=n,
            num_ranks=ranks,
            flops=flops,
            compute_time_s=hpl.compute_time(
                flops, ranks, cols.peak_flops_per_core[idx], HPLModel.dgemm_efficiency, slowdown
            ),
            comm_volume_time_s=volume,
            comm_latency_time_s=latency,
        )
        compute_phase, comm_phase = _hpl_phases(k)
        node_watts = _hpl_node_watts(
            _node_watts(cols, idx, compute_phase), _node_watts(cols, idx, comm_phase), pred
        )
        return pred.performance_flops, pred.total_time_s, node_watts

    return _memoized(key, compute, len(cols), memoize)


def _stream_batched(cols: FleetColumns, config: ExperimentConfig, memoize: bool):
    key = _power_key(cols) + [
        cols.num_nodes, cols.cpu_cores, cols.mem_sustained_bw, cols.mem_cores_to_saturate,
    ]

    def compute(idx: np.ndarray):
        k = cols.node_cores[idx]
        ranks = cols.total_cores[idx]
        elements = StreamBenchmark.array_elements
        memory = (cols.sockets[idx], cols.mem_sustained_bw[idx], cols.mem_cores_to_saturate[idx])
        one_iteration_s, _ = stream.triad_run(ranks, k, 1, elements, *memory)
        iterations = stream.iterations_for_time(config.stream_target_seconds, one_iteration_s)
        time_s, aggregate = stream.triad_run(ranks, k, iterations, elements, *memory)
        pred = StreamPrediction(
            num_ranks=ranks,
            array_elements=elements,
            iterations=iterations,
            time_s=time_s,
            aggregate_bandwidth=aggregate,
        )
        phase = _stream_phase(k, pred, cols.node_sustained_bw[idx], config.stream_intensity)
        return aggregate, time_s, _node_watts(cols, idx, phase)

    return _memoized(key, compute, len(cols), memoize)


def _iozone_batched(cols: FleetColumns, config: ExperimentConfig, memoize: bool):
    key = _power_key(cols) + [
        cols.num_nodes, cols.cpu_cores, cols.mem_capacity_bytes, cols.storage_write_bw,
    ]

    def compute(idx: np.ndarray):
        cache_bw = IOzoneModel.cache_bandwidth
        window = iozone.default_cache_window(cols.node_memory_bytes[idx])
        rate = iozone.device_rate(cols.storage_write_bw[idx], IOzoneModel.filesystem_efficiency)
        file_bytes = iozone.file_size_for_time(config.iozone_target_seconds, window, cache_bw, rate)
        time_s, _, aggregate = iozone.write_run(
            cols.num_nodes[idx], file_bytes, window, cache_bw, rate
        )
        return aggregate, time_s, _node_watts(cols, idx, _iozone_phase(cols.node_cores[idx]))

    return _memoized(key, compute, len(cols), memoize)


def evaluate_fleet(
    fleet,
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    path: str = "batched",
    reference: bool = False,
    memoize: bool = True,
) -> FleetEvaluation:
    """Score every system's full-machine suite in one pass.

    Parameters
    ----------
    fleet:
        A sequence of :class:`~repro.cluster.cluster.ClusterSpec` or an
        already-packed :class:`~repro.fleet.columns.FleetColumns`.
    path:
        ``"batched"`` (vectorized over the system axis) or ``"reference"``
        (the scalar oracle applied per system — slow, definitional).
    reference:
        Capability-sized HPL (reference-system semantics) for *every*
        member; used when scoring reference machines.
    memoize:
        Content-keyed sub-result sharing: systems with identical
        benchmark-relevant spec columns compute once.
    """
    if path not in _PATHS:
        raise FleetError(f"path must be one of {_PATHS}, got {path!r}")
    if isinstance(fleet, FleetColumns):
        if path == "reference":
            raise FleetError(
                "the reference path scores ClusterSpec sequences, not pre-packed columns"
            )
        cols, specs = fleet, None
    else:
        specs = list(fleet)
        if not specs:
            raise FleetError("cannot evaluate an empty fleet")

    if path == "reference":
        rows = [evaluate_system(spec, config, reference=reference) for spec in specs]
        scores = {
            b: FleetScores(
                **{field: np.array([row[b][field] for row in rows]) for field in _FIELDS}
            )
            for b in FLEET_BENCHMARKS
        }
        return FleetEvaluation(
            names=tuple(spec.name for spec in specs),
            scores=scores,
            memo_unique={b: len(rows) for b in FLEET_BENCHMARKS},
            path=path,
        )

    if specs is not None:
        cols = FleetColumns.pack(specs)
    results = {
        "HPL": _hpl_batched(cols, config, reference, memoize),
        "STREAM": _stream_batched(cols, config, memoize),
        "IOzone": _iozone_batched(cols, config, memoize),
    }
    return FleetEvaluation(
        names=cols.names,
        scores={
            b: FleetScores(**_scores(*results[b][0], cols.num_nodes)) for b in FLEET_BENCHMARKS
        },
        memo_unique={b: results[b][1] for b in FLEET_BENCHMARKS},
        path=path,
    )
