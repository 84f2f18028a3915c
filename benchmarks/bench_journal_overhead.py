"""Journal overhead bench: the flight recorder must not slow the flight.

Two claims pinned here:

1. With no writer attached, the ambient ``jrnl.emit`` call sites the
   campaign leaves behind are a single global ``None`` check — nanoseconds.
2. With the recorder armed, the cost is (events the campaign emits) x
   (measured per-emit cost: validate + serialize + one ``O_APPEND``
   ``os.write``), and that product stays **< 2%** of the campaign's wall
   time.  Measured as a product, not a diff, for the same reason the
   telemetry bench does it: on deliberately tiny jobs a wall-clock diff
   is noise, while the product is a stable upper bound.

The budget check measures the per-emit cost and the campaign wall time
interleaved, in pairs, and asserts on the median of the per-pair ratios.
A burst of host load then slows both halves of the pair it lands in, and
one disturbed pair cannot move the median, so the check does not fail by
chance when the overhead sits near the budget.

The campaign is 50 genuinely executed single-point jobs on a one-node
Fire preset with a small HPL — the same denominator the telemetry
overhead bench uses, so the two budgets are comparable.
"""

import dataclasses
import statistics
import tempfile
import time
from pathlib import Path
from typing import List

from repro import journal as jrnl
from repro.campaign import CampaignRunner
from repro.campaign.jobs import CampaignJob, ClusterRef
from repro.experiments import PAPER_CONFIG
from repro.perfwatch import MetricSpec, scenario

JOB_COUNT = 50
REPEATS = 3
PAIRS = 7

QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2,
    iozone_target_seconds=2,
)


def _jobs():
    return [
        CampaignJob(
            job_id=f"journal-{i:02d}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=1),
            core_counts=(8,),
            seed=i,
            config=QUICK_CONFIG,
        )
        for i in range(JOB_COUNT)
    ]


def _campaign_seconds(repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of the unjournaled campaign (serial)."""
    best = float("inf")
    for _ in range(repeats):
        runner = CampaignRunner(workers=1)
        jobs = _jobs()
        t0 = time.perf_counter()
        runner.run(jobs, label="journal-overhead")
        best = min(best, time.perf_counter() - t0)
    return best


def _census_events() -> int:
    """Events one journaled run of this campaign actually appends."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "census.jsonl"
        CampaignRunner(workers=1, journal=path).run(_jobs(), label="census")
        return len(jrnl.read_events(path))


def _measured_emit_cost_s(samples: int = 20_000) -> float:
    """Per-event cost of one armed emit: validate + serialize + append."""
    with tempfile.TemporaryDirectory() as tmp:
        writer = jrnl.JournalWriter(Path(tmp) / "emit.jsonl", label="bench")
        t0 = time.perf_counter()
        for i in range(samples):
            writer.emit("job.started", job="bench", attempt=0)
        elapsed = time.perf_counter() - t0
        writer.close()
    return elapsed / samples


def _paired_overhead_ratios(events: int, pairs: int = PAIRS) -> List[float]:
    """Per-pair ``events x per-emit cost / campaign wall``, measured back to back."""
    ratios = []
    for _ in range(pairs):
        per_emit_s = _measured_emit_cost_s(samples=2_000)
        plain_s = _campaign_seconds(repeats=1)
        ratios.append(events * per_emit_s / plain_s)
    return ratios


def _measured_null_emit_cost_s(samples: int = 200_000) -> float:
    """Per-call cost of an ambient emit with no writer attached."""
    jrnl.detach()
    t0 = time.perf_counter()
    for _ in range(samples):
        jrnl.emit("job.started", job="bench", attempt=0)
    return (time.perf_counter() - t0) / samples


@scenario(
    "campaign.journal_overhead",
    description="flight-recorder cost, absolute and relative to a 50-config campaign",
    tier="quick",
    repeats=2,
    metrics=(
        MetricSpec(
            "emit_cost_us",
            unit="us",
            direction="lower",
            help="per-event cost of one armed emit (validate + serialize + O_APPEND write)",
        ),
        MetricSpec(
            "null_emit_ns",
            unit="ns",
            direction="lower",
            help="per-call cost of an ambient emit with no writer attached",
        ),
        MetricSpec(
            "campaign_overhead_fraction",
            direction="lower",
            help="(events emitted x per-emit cost) / campaign wall time; budget is 0.02",
        ),
    ),
)
def journal_overhead_scenario():
    events = _census_events()
    per_emit_s = _measured_emit_cost_s()
    plain_s = _campaign_seconds()
    return {
        "emit_cost_us": per_emit_s * 1e6,
        "null_emit_ns": _measured_null_emit_cost_s(samples=100_000) * 1e9,
        "campaign_overhead_fraction": events * per_emit_s / plain_s,
    }


def test_null_emit_is_a_single_none_check(benchmark):
    """The disarmed hot path: no validation, no serialization, no write."""
    jrnl.detach()

    def disarmed_call_site():
        jrnl.emit("job.started", job="bench", attempt=0)

    benchmark(disarmed_call_site)
    assert jrnl.ambient() is None  # nothing got attached along the way


def test_journal_overhead_under_2_percent_on_50_config_campaign():
    events = _census_events()
    ratios = _paired_overhead_ratios(events)
    overhead = statistics.median(ratios)
    print(
        f"\n50-config campaign: {events} journal events; per-pair overhead "
        f"{', '.join(f'{100 * r:.3f}%' for r in ratios)} -> median "
        f"{100 * overhead:.3f}%"
    )
    assert overhead < 0.02, (
        f"journal overhead {100 * overhead:.2f}% exceeds the 2% budget"
    )


def test_journal_does_not_change_results():
    """The invariance half of the budget: identical fingerprints on or off."""
    jobs = _jobs()[:3]
    with tempfile.TemporaryDirectory() as tmp:
        journaled = CampaignRunner(
            workers=1, journal=Path(tmp) / "run.jsonl"
        ).run(jobs, label="x")
    bare = CampaignRunner(workers=1).run(jobs, label="x")
    assert journaled.manifest["fingerprint"] == bare.manifest["fingerprint"]
