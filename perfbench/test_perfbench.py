"""Tests of the benchmark itself: ops pass their checks, the checks reject
perturbed outputs, the traced run accounts for every second of an op, and
``run.py`` keeps its output format.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_op(workload, index=1):
    output = workload.op(workload.inputs(index))
    summary = workload.summarize(index, output)
    return summary, workload.check(index, summary)


@pytest.fixture(scope="module")
def paper_summary():
    summary, problems = one_op(workloads.Paper(5))
    assert problems == []
    return summary


@pytest.fixture(scope="module")
def fleet_summary():
    summary, problems = one_op(workloads.Fleet(5))
    assert problems == []
    return summary


@pytest.fixture()
def campaign(tmp_path):
    workload = workloads.Campaign(5, tmp_path)
    workload.setup()
    yield workload
    workload.close()


def test_paper_op_passes_its_checks(paper_summary):
    assert set(paper_summary["reference_tgi"]) == set(workloads.WEIGHTINGS)
    assert paper_summary["pcc_abs_err"] > 0


def test_paper_check_rejects_a_reference_tgi_off_by_one_ppm(paper_summary):
    bad = copy.deepcopy(paper_summary)
    bad["reference_tgi"]["energy"] *= 1 + 1e-6
    assert workloads.Paper.check(1, bad)


def test_paper_check_rejects_hpl_above_stream(paper_summary):
    bad = copy.deepcopy(paper_summary)
    bad["am_pcc"]["HPL"] = bad["am_pcc"]["STREAM"] + 0.01
    assert workloads.Paper.check(1, bad)


@pytest.mark.parametrize("workload", ["paper", "scale"])
def test_golden_compare_rejects_a_tgi_off_by_one_ppm(workload):
    golden = workloads.load_golden()[workload]
    assert workloads.compare(dict(golden), golden, workload) == []
    key = "tgi" if workload == "scale" else "fig5.series.results.0.value"
    bad = dict(golden, **{key: golden[key] * (1 + 1e-6)})
    assert workloads.compare(bad, golden, workload)


def test_scale_op_passes_its_checks_and_rejects_a_meter_outside_its_accuracy():
    workload = workloads.Scale(5)
    workload.setup()
    summary, problems = one_op(workload)
    assert problems == []
    bad = copy.deepcopy(summary)
    metered, truth, allowance = bad["energies"]["HPL"]
    bad["energies"]["HPL"] = (truth * (1 + 1.01 * allowance), truth, allowance)
    assert workloads.Scale.check(1, bad)


def test_fleet_check_rejects_two_swapped_rows(fleet_summary):
    bad = copy.deepcopy(fleet_summary)
    for column in ("ranks", "tgi"):
        bad[column][3], bad[column][7] = bad[column][7], bad[column][3]
    assert workloads.Fleet.check(1, bad)


def test_fleet_check_rejects_a_row_that_differs_from_the_oracle(fleet_summary):
    bad = copy.deepcopy(fleet_summary)
    cluster, tgi, *rest = bad["sampled"][0]
    bad["sampled"][0] = (cluster, tgi * (1 + 1e-6), *rest)
    assert workloads.Fleet.check(1, bad)


def test_campaign_ops_pass_their_checks_and_a_fingerprint_change_is_caught(campaign):
    for index in range(4):  # op 3 outgrows the first job list
        summary, problems = one_op(campaign, index)
        assert problems == []
    assert summary["cache"]["hits"] == 4
    (label, problems), = campaign.final_ops()
    assert problems == []
    altered = copy.deepcopy(campaign.manifests[0])
    altered["jobs"][0]["key"] = "0" * 64
    assert workloads.Campaign.check_fingerprint(altered, campaign.manifests[0])


def test_campaign_check_rejects_a_missing_cache_hit(campaign):
    summary, _ = one_op(campaign, 0)
    summary, _ = one_op(campaign, 1)
    bad = copy.deepcopy(summary)
    bad["cache"].update(hits=3, misses=5)
    assert workloads.Campaign.check(campaign, 1, bad)


def test_traced_op_self_times_sum_to_its_wall_time_and_patches_are_undone():
    import repro.fleet.pipeline as pipeline

    original = pipeline.evaluate_fleet
    tracer = tracing.Tracer().install()
    try:
        with tracer.op_span(1):
            workload = workloads.Paper(5)
            workload.op(workload.inputs(1))
    finally:
        tracer.uninstall()
    assert pipeline.evaluate_fleet is original
    assert tracer.missing == []
    tree = tracer.op_tree(1)
    assert sum(tree["layers"].values()) == pytest.approx(tree["wall_s"], rel=1e-9)
    assert all(value >= 0 for value in tree["layers"].values())
    assert tree["layers"]["benchmarks.build_s"] > 0
    assert tree["layers"]["analysis.bootstrap_s"] > 0


def run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    done = run_benchmark(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(tmp_path, 0)
    assert done.returncode != 0
    assert done.stdout == ""
