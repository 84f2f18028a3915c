"""In-memory layer tracer for the benchmark's traced run.

The tracer times each layer of ``repro`` from the outside: it replaces a
layer's public entry points with timing wrappers, patched where their
callers look them up, and restores the originals on :meth:`Tracer.uninstall`.
Nothing under ``src/`` changes.

Each span records its name, start, end, parent and the op it belongs to.
A span's *self time* is its duration minus the durations of its direct
children, so within one op the self times of all spans, the op's root span
included, add up to the op's wall time exactly.  The root span's self time
is the op's untraced time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = "op"

#: A parent whose untraced share of its own duration exceeds this is flagged.
UNTRACED_FLAG_SHARE = 0.10


def _count_phases(counts, args, kwargs, built):
    counts["benchmarks.builds"] += 1
    counts["benchmarks.phases"] += sum(len(p.phases) for p in built.programs)


def _count_intervals(counts, args, kwargs, intervals):
    counts["sim.intervals"] += len(intervals)


def _count_segments(counts, args, kwargs, result):
    counts["sim.segments_out"] += result[2]["segments_out"]


def _count_samples(counts, args, kwargs, trace):
    counts["power.samples"] += len(trace)


def _count_specs(counts, args, kwargs, result):
    counts["cluster.specs"] += 1


def _count_tgi(counts, args, kwargs, result):
    counts["core.tgi_calls"] += 1


def _count_bootstrap(counts, args, kwargs, result):
    counts["analysis.bootstrap_calls"] += 1


def _count_memo(counts, args, kwargs, evaluation):
    if kwargs.get("memoize", True):
        counts["fleet.memo_unique"] += sum(evaluation.memo_unique.values())
        counts["fleet.memo_rows"] += len(evaluation) * len(evaluation.memo_unique)


def _count_campaign(counts, args, kwargs, result):
    stats = result.cache_stats
    counts["campaign.hits"] += stats["hits"]
    counts["campaign.attempts"] += stats["attempts"]
    counts["campaign.retries"] += sum(outcome.retries for outcome in result)


#: (module, class or None, attribute, span name or None, counter).
#: A ``None`` span name wraps for counting only.  Names are patched in the
#: namespace their callers read them from, e.g. ``evaluate_fleet`` in
#: ``repro.fleet.pipeline`` rather than where it is defined.
ENTRY_POINTS = [
    # cluster: spec materialization and interconnect topology
    ("repro.campaign.jobs", "ClusterRef", "resolve", "cluster.spec", None),
    ("repro.campaign.jobs", None, "generate_cluster", "cluster.spec", None),
    ("repro.cluster.generator", None, "generate_cluster", "cluster.spec", None),
    ("repro.cluster.presets", None, "fire", "cluster.spec", None),
    ("repro.cluster.presets", None, "system_g", "cluster.spec", None),
    ("repro.cluster.cluster", None, "star_topology", "cluster.topology", None),
    ("repro.cluster.presets", None, "fat_tree_topology", "cluster.topology", None),
    ("repro.cluster.cluster", "ClusterSpec", "__post_init__", None, _count_specs),
    # benchmarks: workload build and the suite/sweep drivers around it
    ("repro.benchmarks.hpl", "HPLBenchmark", "build", "benchmarks.build", _count_phases),
    ("repro.benchmarks.stream", "StreamBenchmark", "build", "benchmarks.build", _count_phases),
    ("repro.benchmarks.iozone", "IOzoneBenchmark", "build", "benchmarks.build", _count_phases),
    ("repro.benchmarks.base", "Benchmark", "run", "benchmarks.run", None),
    ("repro.benchmarks.suite", "BenchmarkSuite", "run", "benchmarks.suite", None),
    ("repro.benchmarks.runner", "ScalingSweep", "run", "benchmarks.sweep", None),
    # sim: executor, engine sweep, power integration
    ("repro.sim.executor", "ClusterExecutor", "execute", "sim.execute", None),
    ("repro.sim.engine", "SimulationEngine", "run_arrays", "sim.engine", _count_intervals),
    ("repro.sim.executor", "ClusterExecutor", "integrate_power", "sim.integrate", _count_segments),
    # power: metering
    ("repro.power.meter", "WallPlugMeter", "measure", "power.meter", _count_samples),
    # core: TGI arithmetic
    ("repro.core.tgi", "TGICalculator", "compute", "core.tgi", _count_tgi),
    ("repro.core.tgi", "TGICalculator", "compute_series", "core.tgi", None),
    # analysis: resampled confidence intervals and correlations
    ("repro.experiments.uncertainty", None, "bootstrap_pearson_ci", "analysis.bootstrap", _count_bootstrap),
    ("repro.experiments.uncertainty", None, "jackknife_pearson", "analysis.bootstrap", None),
    ("repro.fleet.pipeline", None, "bootstrap_pearson_ci", "analysis.bootstrap", _count_bootstrap),
    ("repro.fleet.pipeline", None, "bootstrap_mean_ci", "analysis.bootstrap", _count_bootstrap),
    ("repro.experiments.tables", None, "pearson", "analysis.correlation", None),
    ("repro.fleet.pipeline", None, "pearson", "analysis.correlation", None),
    ("repro.fleet.pipeline", None, "spearman", "analysis.correlation", None),
    # experiments: the run-everything driver and the shared context
    ("repro.experiments", None, "run_all", "experiments.run_all", None),
    ("repro.experiments.runner", "SharedContext", "reference", "experiments.context", None),
    ("repro.experiments.runner", "SharedContext", "sweep", "experiments.context", None),
    # fleet: batched ranking
    ("repro.fleet.pipeline", "FleetRankingPipeline", "rank", "fleet.rank", None),
    ("repro.fleet.pipeline", None, "evaluate_fleet", "fleet.evaluate", _count_memo),
    ("repro.fleet.columns", "FleetColumns", "pack", "fleet.pack", None),
    # campaign: runner and result cache
    ("repro.campaign.runner", "CampaignRunner", "run", "campaign.run", _count_campaign),
    ("repro.campaign.cache", "ResultCache", "get", "campaign.cache_get", None),
    ("repro.campaign.cache", "ResultCache", "put", "campaign.cache_put", None),
    # journal: parent-side appends (pool workers write their own handles)
    ("repro.journal.writer", "JournalWriter", "emit", "journal.emit", None),
    ("repro.journal.writer", "JournalWriter", "finalize", "journal.emit", None),
]

#: Layer metric that each span's self time is charged to.
LAYER_OF_SPAN = {
    "cluster.spec": "cluster.spec_s",
    "cluster.topology": "cluster.topology_s",
    "benchmarks.build": "benchmarks.build_s",
    "benchmarks.run": "benchmarks.self_s",
    "benchmarks.suite": "benchmarks.self_s",
    "benchmarks.sweep": "benchmarks.self_s",
    "sim.execute": "sim.execute_self_s",
    "sim.engine": "sim.engine_s",
    "sim.integrate": "sim.integrate_s",
    "power.meter": "power.meter_s",
    "core.tgi": "core.tgi_s",
    "analysis.bootstrap": "analysis.bootstrap_s",
    "analysis.correlation": "analysis.correlation_s",
    "experiments.run_all": "experiments.self_s",
    "experiments.context": "experiments.self_s",
    "experiments.driver": "experiments.self_s",
    "fleet.rank": "fleet.self_s",
    "fleet.evaluate": "fleet.evaluate_s",
    "fleet.pack": "fleet.pack_s",
    "campaign.run": "campaign.run_s",
    "campaign.cache_get": "campaign.cache_get_s",
    "campaign.cache_put": "campaign.cache_put_s",
    "journal.emit": "journal.emit_s",
    ROOT: "trace.untraced_s",
}

LAYER_METRICS = sorted(set(LAYER_OF_SPAN.values()))


class Tracer:
    """Collects spans and counts in memory; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, op]
        self.counts: Dict[object, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: List[str] = []
        self.op: object = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op):
        """The root span of one op; every span opened inside shares ``op``."""
        self.op = op
        index = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(index)
            self.op = None

    # -- patching --------------------------------------------------------
    def _wrap(self, func: Callable, name: Optional[str], counter) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
            else:
                index = tracer._enter(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._exit(index)
            if counter is not None:
                counter(tracer.counts[tracer.op], args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: Optional[str], counter=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper (methods, class and
        static methods, properties and module functions alike)."""
        raw = vars(owner)[attr]
        if isinstance(raw, property):
            new = property(self._wrap(raw.fget, name, counter), raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, name, counter))
        else:
            new = self._wrap(raw, name, counter)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def install(self) -> "Tracer":
        """Patch every entry point in :data:`ENTRY_POINTS` that exists.

        An entry point the program no longer has is recorded in
        :attr:`missing` instead of failing the run, so the traced run
        survives a refactor and says which layer it lost.
        """
        for module_name, class_name, attr, name, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            if attr not in vars(owner):
                self.missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
                continue
            self.patch(owner, attr, name, counter)
        self._patch_experiment_drivers()
        return self

    def _patch_experiment_drivers(self) -> None:
        # Registry entries are frozen dataclasses in a dict: swap in copies
        # whose ``run`` is wrapped, and put the originals back on uninstall.
        from repro.experiments import registry

        originals = dict(registry.EXPERIMENTS)
        for exp_id, entry in originals.items():
            registry.EXPERIMENTS[exp_id] = dataclasses.replace(
                entry, run=self._wrap(entry.run, "experiments.driver", None)
            )
        self._patches.append((registry.EXPERIMENTS, None, originals))

    def uninstall(self) -> None:
        """Restore every original, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if attr is None:
                owner.clear()
                owner.update(raw)
            else:
                setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------
    def op_tree(self, op) -> Dict[str, object]:
        """Self time per span name and per layer metric for one op.

        ``flagged`` lists the span names whose summed self time is more
        than :data:`UNTRACED_FLAG_SHARE` of their summed duration while
        they have children, i.e. parents with a large untraced remainder.
        """
        indices = [i for i, span in enumerate(self.spans) if span[4] == op]
        child_time: Dict[int, float] = defaultdict(float)
        has_children = set()
        for i in indices:
            _, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child_time[parent] += end - start
                has_children.add(parent)
        by_span: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        parent_names = set()
        wall = 0.0
        for i in indices:
            name, start, end, _, _ = self.spans[i]
            entry = by_span[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
            if name == ROOT:
                wall += end - start
            if i in has_children:
                parent_names.add(name)
        layers = {metric: 0.0 for metric in LAYER_METRICS}
        for name, entry in by_span.items():
            layers[LAYER_OF_SPAN[name]] += entry["self_s"]
        flagged = sorted(
            name
            for name in parent_names
            if by_span[name]["self_s"] > UNTRACED_FLAG_SHARE * by_span[name]["total_s"]
        )
        return {
            "wall_s": wall,
            "layers": layers,
            "spans": {name: dict(entry) for name, entry in sorted(by_span.items())},
            "flagged": flagged,
        }

    def span_dicts(self) -> List[Dict[str, object]]:
        """Every span as a plain dict (the trace file's raw record)."""
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]


#: Every per-layer metric of a traced run, with its unit.
LAYER_UNITS = {
    **{metric: "s" for metric in LAYER_METRICS},
    "import.cold_s": "s",
    "cluster.specs": "count",
    "benchmarks.builds": "count",
    "benchmarks.phases": "count",
    "sim.intervals": "count",
    "sim.segments_out": "count",
    "sim.phases_per_s": "1/s",
    "power.samples": "count",
    "core.tgi_calls": "count",
    "analysis.bootstrap_calls": "count",
    "fleet.memo_unique_ratio": "ratio",
    "campaign.job_wall_sum_s": "s",
    "campaign.parallel_efficiency": "ratio",
    "campaign.hit_ratio": "ratio",
    "campaign.retries": "count",
    "journal.events": "count",
    "journal.bytes": "B",
    "trace.untraced_share": "ratio",
    "trace.flagged_parents": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tree: Dict, counts: Dict[str, float], summary: Dict) -> Dict[str, float]:
    """One traced op's per-layer metrics from its tree, counts and summary.

    Layers an op does not reach read 0.  ``summary`` supplies what only
    the op's own artifacts hold: the campaign journal, written partly by
    pool workers whose spans stay in their processes.
    """
    metrics = dict(tree["layers"])
    for name in (
        "cluster.specs", "benchmarks.builds", "benchmarks.phases", "sim.intervals",
        "sim.segments_out", "power.samples", "core.tgi_calls", "analysis.bootstrap_calls",
        "campaign.retries",
    ):
        metrics[name] = counts.get(name, 0.0)
    metrics["sim.phases_per_s"] = _ratio(counts.get("benchmarks.phases", 0.0), metrics["sim.engine_s"])
    metrics["fleet.memo_unique_ratio"] = _ratio(
        counts.get("fleet.memo_unique", 0.0), counts.get("fleet.memo_rows", 0.0)
    )
    metrics["campaign.hit_ratio"] = _ratio(
        counts.get("campaign.hits", 0.0), counts.get("campaign.attempts", 0.0)
    )
    job_wall = summary.get("job_wall_sum_s", 0.0)
    run_wall = tree["spans"].get("campaign.run", {}).get("total_s", 0.0)
    metrics["campaign.job_wall_sum_s"] = job_wall
    metrics["campaign.parallel_efficiency"] = _ratio(job_wall, summary.get("workers", 0) * run_wall)
    metrics["journal.events"] = summary.get("journal_events", 0)
    metrics["journal.bytes"] = summary.get("journal_bytes", 0)
    metrics["trace.untraced_share"] = _ratio(metrics["trace.untraced_s"], tree["wall_s"])
    metrics["trace.flagged_parents"] = len(tree["flagged"])
    return metrics
