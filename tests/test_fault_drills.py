"""Fault-injection drills: retries, keep-going and contained benchmark crashes
through the CLI, runnable with ``pytest -m drill``.

Each drill drives :func:`repro.cli.main` exactly as an operator would and
checks the manifest or console output it leaves behind.
"""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.drill


def test_transient_fault_healed_by_retries_manifest_records_it(tmp_path):
    """``--retries 2`` heals one transient fault; the manifest counts it."""
    manifest = tmp_path / "retry-manifest.json"
    assert main([
        "campaign", "--workers", "2", "--retries", "2",
        "--inject", "reference:transient:1", "--manifest", str(manifest),
    ]) == 0
    failures = json.load(open(manifest))["failures"]
    assert failures["jobs_retried"] == 1, failures
    assert failures["retries_total"] == 1, failures
    assert failures["jobs_failed"] == 0, failures


def test_permanent_fault_under_keep_going_exits_3_survivors_land(tmp_path):
    """A permanently flaky job under ``--keep-going``: exit 3, survivors land."""
    path = tmp_path / "keepgoing-manifest.json"
    assert main([
        "campaign", "--workers", "2", "--retries", "1", "--keep-going",
        "--inject", "fire-sweep:flaky:1.0", "--manifest", str(path),
    ]) == 3
    manifest = json.load(open(path))
    statuses = {j["job_id"]: j["status"] for j in manifest["jobs"]}
    assert statuses == {"reference": "ok", "fire-sweep": "failed"}, statuses
    assert manifest["failures"]["jobs_failed"] == 1


def test_benchmark_contained_crashes_yield_coverage_annotated_tgi(capsys):
    """Benchmark-contained node crashes degrade the suite, not the run."""
    assert main([
        "campaign", "--keep-going",
        "--inject", "fire-sweep:benchmark-crash:0.2", "--fault-seed", "42",
    ]) == 0
    captured = capsys.readouterr()
    assert "degraded" in captured.err
    assert "coverage" in captured.out
