"""Campaign drills: end-to-end CLI round trips, runnable with ``pytest -m drill``.

Each drill drives :func:`repro.cli.main` exactly as an operator would and
checks the artifacts it leaves behind.
"""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.drill


def test_sharded_campaign_then_resume_same_fingerprint(tmp_path):
    """``tgi campaign --shards``, then ``--resume``: same fingerprint."""
    cache = tmp_path / "cli-cache"
    journal = tmp_path / "cli.jsonl"
    sharded_path = tmp_path / "cli-sharded.json"
    resumed_path = tmp_path / "cli-resumed.json"
    assert main([
        "campaign", "--workers", "2", "--shards", "4",
        "--cache-dir", str(cache), "--journal", str(journal),
        "--manifest", str(sharded_path),
    ]) == 0
    assert main([
        "campaign", "--resume", str(journal),
        "--cache-dir", str(cache),
        "--manifest", str(resumed_path),
    ]) == 0

    sharded = json.loads(sharded_path.read_text())
    resumed = json.loads(resumed_path.read_text())
    assert sharded["fingerprint"] == resumed["fingerprint"]
    assert resumed["sharding"]["resumed"] is True
    assert resumed["sharding"]["jobs_recovered"] == len(resumed["jobs"])
