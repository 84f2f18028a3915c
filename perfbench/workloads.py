"""The benchmark's four workloads and the checks on their outputs.

Every workload runs ``repro`` through its public API, one op at a time:

* ``inputs(index)`` builds op ``index``'s inputs (untimed);
* ``op(inputs)`` is the timed work;
* ``summarize(index, output)`` reduces the output to what the checks and
  the traced run need (untimed, right after the op, so large outputs are
  freed before the next op);
* ``check(index, summary)`` returns the problems found in one op;
* ``final_ops()`` runs the extra untimed ops that pin outputs to recorded
  values, each yielding ``(label, problems)``.

Per-op inputs are derived from the run seed and the op index only
(:func:`derive`), so the same seed gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

import repro.experiments as experiments
from repro.campaign import CampaignRunner, ResultCache
from repro.campaign.jobs import fleet_jobs
from repro.campaign.manifest import manifest_fingerprint
from repro.benchmarks.suite import SuiteResult
from repro.cluster import presets
from repro.cluster.generator import ERAS
from repro.core.ree import ReferenceSet
from repro.core.tgi import TGICalculator
from repro.core.weights import ArithmeticMeanWeights, EnergyWeights, PowerWeights, TimeWeights
from repro.experiments import PAPER_CONFIG, build_reference, build_suite
from repro.experiments.runner import SharedContext
from repro.experiments.tables import run_table2_pcc
from repro.fleet import FleetRankingPipeline, generated_fleet_members
from repro.fleet.evaluate import FLEET_BENCHMARKS, evaluate_system
from repro.journal import JournalWriter, read_events, validate_events
from repro.sim.executor import ClusterExecutor

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: Relative tolerance for outputs pinned to recorded values.
RTOL = 1e-9

#: The paper's arithmetic-mean Table II PCCs (Section IV-B prose).
PAPER_PCC = {"IOzone": 0.99, "STREAM": 0.96, "HPL": 0.58}

WEIGHTINGS = {
    "arithmetic-mean": ArithmeticMeanWeights,
    "time": TimeWeights,
    "energy": EnergyWeights,
    "power": PowerWeights,
}


def derive(*key: int, n: int = 1) -> List[int]:
    """``n`` 31-bit integers determined by ``key``: the run seed, then the op
    (or job) index."""
    state = np.random.SeedSequence(list(key)).generate_state(n)
    return [int(x) >> 1 for x in state]


def agree(a: float, b: float) -> bool:
    """``a`` equals ``b`` within :data:`RTOL` relative."""
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def compare(values: Dict[str, float], golden: Dict[str, float], what: str) -> List[str]:
    """Problems where ``values`` differ from ``golden`` beyond :data:`RTOL`."""
    problems = [f"{what}: missing {key}" for key in sorted(set(golden) - set(values))]
    problems += [f"{what}: unexpected {key}" for key in sorted(set(values) - set(golden))]
    for key in sorted(set(values) & set(golden)):
        if not agree(values[key], golden[key]):
            problems.append(f"{what}: {key} = {values[key]!r}, recorded {golden[key]!r}")
    return problems


def load_golden() -> Dict[str, Dict[str, float]]:
    return json.loads(GOLDEN_PATH.read_text())


def flatten(obj, prefix: str = "") -> Dict[str, float]:
    """Every number in an experiment result, keyed by its path.

    Suite results contribute their per-benchmark performance, time, power
    and energy rather than their raw power logs.
    """
    if isinstance(obj, SuiteResult):
        obj = {
            "performance": obj.performances,
            "time_s": obj.times_s,
            "power_w": obj.powers_w,
            "energy_j": obj.energies_j,
        }
    if isinstance(obj, bool) or isinstance(obj, str) or obj is None:
        return {}
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return {prefix: float(obj)}
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = enumerate(obj)
    else:
        return {}
    out: Dict[str, float] = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def pcc_abs_err(table2) -> float:
    """max |reproduced arithmetic-mean Table II PCC - paper value|."""
    return max(
        abs(table2.pcc(name, "arithmetic-mean") - value) for name, value in PAPER_PCC.items()
    )


def paper_config(seed: int, index: int):
    fire_seed, reference_seed = derive(seed, index, n=2)
    return dataclasses.replace(PAPER_CONFIG, fire_seed=fire_seed, reference_seed=reference_seed)


def reproduction_pcc_abs_err(seed: int) -> float:
    """:func:`pcc_abs_err` of the paper reproduction at the run seed's meter seeds."""
    return pcc_abs_err(run_table2_pcc(SharedContext(paper_config(seed, 0))))


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path = None):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Fixtures shared by every op (part of ``setup_s``)."""

    def inputs(self, index: int):
        raise NotImplementedError

    def op(self, inputs):
        raise NotImplementedError

    def summarize(self, index: int, output) -> Dict:
        raise NotImplementedError

    def check(self, index: int, summary: Dict) -> List[str]:
        raise NotImplementedError

    def final_ops(self) -> Iterator[Tuple[str, List[str]]]:
        return iter(())

    def pcc_abs_err(self, summaries: List[Dict]) -> float:
        return reproduction_pcc_abs_err(self.seed)

    def close(self) -> None:
        """Release what :meth:`setup` created."""


class Paper(Workload):
    """``tgi run all``: the reference, the Fire sweep, all figures and tables."""

    name = "paper"

    def inputs(self, index: int):
        return paper_config(self.seed, index)

    def op(self, config):
        # Looked up on the package at call time, where the traced run wraps it.
        return experiments.run_all(config)

    @staticmethod
    def summarize(index: int, results) -> Dict:
        suite = results["table1"].suite_result
        reference = ReferenceSet.from_suite_result(suite, system_name=results["table1"].system_name)
        am = {name: results["table2"].pcc(name, "arithmetic-mean") for name in PAPER_PCC}
        return {
            "values": flatten(results),
            "reference_tgi": {
                name: TGICalculator(reference, weighting=weighting()).compute(suite).value
                for name, weighting in WEIGHTINGS.items()
            },
            "am_pcc": am,
            "pcc_abs_err": pcc_abs_err(results["table2"]),
        }

    @staticmethod
    def check(index: int, summary: Dict) -> List[str]:
        problems = [
            f"reference TGI under {name} weights is {value!r}, not 1"
            for name, value in summary["reference_tgi"].items()
            if not agree(value, 1.0)
        ]
        am = summary["am_pcc"]
        for name in ("IOzone", "STREAM"):
            if not am[name] > am["HPL"]:
                problems.append(f"Table II AM ordering: {name} {am[name]:.4f} <= HPL {am['HPL']:.4f}")
        return problems

    def final_ops(self):
        summary = self.summarize(-1, self.op(PAPER_CONFIG))
        yield "paper default seeds", self.check(-1, summary) + compare(
            summary["values"], load_golden()["paper"], "paper"
        )

    def pcc_abs_err(self, summaries):
        return float(np.median([s["pcc_abs_err"] for s in summaries]))


class Scale(Workload):
    """One reference-sized suite plus TGI on an 8,192-core SystemG."""

    name = "scale"
    NODES = 1024

    def setup(self) -> None:
        self.spec = presets.system_g(self.NODES)
        self.reference = build_reference(PAPER_CONFIG)[0]

    def inputs(self, index: int):
        return derive(self.seed, index)[0]

    def op(self, meter_seed: int):
        executor = ClusterExecutor(self.spec, rng=meter_seed)
        suite = build_suite(PAPER_CONFIG, reference=True).run(executor, self.spec.total_cores)
        return suite, TGICalculator(self.reference).compute(suite), executor.meter.spec

    @staticmethod
    def summarize(index: int, output) -> Dict:
        suite, tgi, meter = output
        values = {"tgi": tgi.value}
        energies = {}
        for result in suite:
            record = result.record
            values[f"{result.benchmark}.makespan_s"] = record.makespan_s
            values[f"{result.benchmark}.energy_j"] = result.energy_j
            values[f"{result.benchmark}.true_energy_j"] = record.true_energy_j
            # Gain error plus one display count of rounding and the noise
            # amplitude, relative to the true mean power.
            allowance = meter.gain_error_fraction + (
                (meter.noise_counts + 1) * meter.resolution_watts / record.true_mean_power_w
            )
            energies[result.benchmark] = (result.energy_j, record.true_energy_j, allowance)
        return {"values": values, "energies": energies}

    @staticmethod
    def check(index: int, summary: Dict) -> List[str]:
        problems = []
        for name, (metered, truth, allowance) in summary["energies"].items():
            error = abs(metered - truth) / truth
            if not error <= allowance:
                problems.append(f"{name} metered energy off truth by {error:.4%} > {allowance:.4%}")
        return problems

    def final_ops(self):
        summary = self.summarize(-1, self.op(PAPER_CONFIG.reference_seed))
        yield "scale default seed", self.check(-1, summary) + compare(
            summary["values"], load_golden()["scale"], "scale"
        )


class Fleet(Workload):
    """``tgi fleet rank`` over a fresh 1,000-system fleet, 250 per era."""

    name = "fleet"
    PER_ERA = 250
    SAMPLED_ROWS = 4

    def inputs(self, index: int):
        fleet_seed = derive(self.seed, index)[0]
        return [
            member
            for era in ERAS
            for member in generated_fleet_members(self.PER_ERA, era=era, fleet_seed=fleet_seed)
        ]

    def op(self, members):
        return members, FleetRankingPipeline(config=PAPER_CONFIG).rank(members)

    def summarize(self, index: int, output) -> Dict:
        members, ranking = output
        refs = {member.name: member.cluster for member in members}
        picks = np.random.default_rng(derive(self.seed, index, n=2)).choice(
            len(ranking.rows), size=min(self.SAMPLED_ROWS, len(ranking.rows)), replace=False
        )
        return {
            "systems": len(members),
            "ranks": [row.tgi_rank for row in ranking.rows],
            "tgi": [row.tgi for row in ranking.rows],
            "reference": dict(ranking.reference_efficiencies),
            "weights": dict(ranking.weights),
            "sampled": [
                (refs[row.name], row.tgi, row.efficiencies, row.performances, row.powers_w)
                for row in (ranking.rows[int(i)] for i in picks)
            ],
        }

    @staticmethod
    def check(index: int, summary: Dict) -> List[str]:
        problems = []
        ranks, tgi = summary["ranks"], summary["tgi"]
        if sorted(ranks) != list(range(1, summary["systems"] + 1)):
            problems.append("TGI ranks are not a permutation of 1..n")
        if ranks != sorted(ranks) or any(a < b for a, b in zip(tgi, tgi[1:])):
            problems.append("rows are not in TGI rank order")
        reference, weights = summary["reference"], summary["weights"]
        for cluster, row_tgi, efficiencies, performances, powers in summary["sampled"]:
            oracle = evaluate_system(cluster.resolve(), PAPER_CONFIG)
            for b in FLEET_BENCHMARKS:
                for what, value, expected in (
                    ("efficiency", efficiencies[b], oracle[b]["efficiency"]),
                    ("performance", performances[b], oracle[b]["performance"]),
                    ("power_w", powers[b], oracle[b]["power_w"]),
                ):
                    if not agree(value, expected):
                        problems.append(f"{cluster.name} {b} {what} {value!r} != oracle {expected!r}")
            expected_tgi = sum(
                weights[b] * oracle[b]["efficiency"] / reference[b] for b in FLEET_BENCHMARKS
            )
            if not agree(row_tgi, expected_tgi):
                problems.append(f"{cluster.name} TGI {row_tgi!r} != oracle {expected_tgi!r}")
        return problems


class Campaign(Workload):
    """``tgi campaign --fleet --cache-dir --journal`` over sliding windows.

    Window ``k`` holds jobs ``4k .. 4k+7`` of the 2011-era fleet, so every
    op after the warm-up reads 4 results from the cache and computes 4.
    The fleet is the CLI's default one and the seed sets each job's meter
    seed: generated machines differ several-fold in size, so a per-seed
    fleet would move the op time between runs more than the code does.
    """

    name = "campaign"
    WORKERS = 2
    WINDOW = 8
    STRIDE = 4

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.dir = None
        self.jobs = []
        self.manifests: Dict[int, Dict] = {}

    def setup(self) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.scratch))
        self.cache = ResultCache(self.dir / "cache")

    def inputs(self, index: int):
        end = self.STRIDE * index + self.WINDOW
        if end > len(self.jobs):
            # Job j depends on j alone, so a longer list keeps its prefix.
            count = 2 * end
            self.jobs = fleet_jobs(
                count, era="2011", executor_seeds=[derive(self.seed, j)[0] for j in range(count)]
            )
        return index, self.jobs[end - self.WINDOW : end]

    def journal_path(self, index: int) -> Path:
        return self.dir / f"window-{index}.jsonl"

    def op(self, window):
        index, jobs = window
        writer = JournalWriter(self.journal_path(index), label=f"window-{index}")
        try:
            runner = CampaignRunner(workers=self.WORKERS, cache=self.cache, journal=writer)
            result = runner.run(jobs, label=f"window-{index}")
            writer.finalize(status="ok" if result.ok else "failed")
        finally:
            writer.close()
        return result

    def summarize(self, index: int, result) -> Dict:
        self.manifests[index] = result.manifest
        events = read_events(self.journal_path(index), strict=True)
        return {
            "cache": dict(result.cache_stats),
            "ok": result.ok,
            "journal_problems": validate_events(events),
            "journal_events": len(events),
            "journal_bytes": self.journal_path(index).stat().st_size,
            "job_wall_sum_s": sum(e["wall_s"] for e in events if e["event"] == "job.completed"),
            "workers": self.WORKERS,
        }

    def check(self, index: int, summary: Dict) -> List[str]:
        stats = summary["cache"]
        problems = [f"journal: {p}" for p in summary["journal_problems"]]
        if not summary["ok"]:
            problems.append("a job failed")
        if stats["hits"] + stats["misses"] != stats["attempts"]:
            problems.append(f"hits + misses != attempts: {stats}")
        expected_hits = 0 if index == 0 else self.WINDOW - self.STRIDE
        if stats["hits"] != expected_hits:
            problems.append(f"{stats['hits']} cache hits, expected {expected_hits}")
        return problems

    def final_ops(self):
        serial = CampaignRunner(workers=1).run(self.inputs(0)[1], label="window-0")
        yield "campaign serial uncached window 0", self.check_fingerprint(
            self.manifests[0], serial.manifest
        )

    @staticmethod
    def check_fingerprint(manifest: Dict, serial_manifest: Dict) -> List[str]:
        got, expected = manifest_fingerprint(manifest), manifest_fingerprint(serial_manifest)
        return [] if got == expected else [f"manifest fingerprint {got} != serial {expected}"]

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Paper, Scale, Fleet, Campaign)}


def record_golden() -> None:
    """Rewrite :data:`GOLDEN_PATH` from the default-seed outputs of this commit."""
    scale = Scale(0)
    scale.setup()
    golden = {
        "paper": Paper.summarize(-1, Paper(0).op(PAPER_CONFIG))["values"],
        "scale": scale.summarize(-1, scale.op(PAPER_CONFIG.reference_seed))["values"],
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/workloads.py
    record_golden()
