"""Fleet-ranking drills: a 1,000-system rank and the CLI round trip,
runnable with ``pytest -m drill``.

Each drill drives the public API or :func:`repro.cli.main` exactly as an
operator would and checks what it leaves behind.
"""

import dataclasses
import json
import time

import pytest

from repro.cli import main
from repro.experiments import PAPER_CONFIG
from repro.fleet import (
    FLEET_BENCHMARKS,
    FleetRankingPipeline,
    evaluate_system,
    generated_fleet_members,
)

pytestmark = pytest.mark.drill


def test_rank_1000_systems_spot_checked_against_scalar_oracle(tmp_path):
    """Rank 1,000 systems, spot-check rows, validate the journal."""
    journal = tmp_path / "fleet-rank.jsonl"
    quick = dataclasses.replace(
        PAPER_CONFIG,
        hpl_problem_size=2240,
        hpl_rounds=1,
        stream_target_seconds=2,
        iozone_target_seconds=2,
    )
    members = generated_fleet_members(1000, era="2011", fleet_seed=20110615)
    t0 = time.perf_counter()
    ranking = FleetRankingPipeline(
        config=quick, journal=str(journal)
    ).rank(members, label="fleet-rank-drill")
    wall = time.perf_counter() - t0
    assert len(ranking) == 1000
    assert ranking.stats["batched"] == 1000
    assert ranking.stats["simulated"] == 0
    assert [r.tgi_rank for r in ranking.rows] == list(range(1, 1001))
    # Spot-check a sample of rows against the scalar per-system oracle.
    for member in members[::197]:
        row = ranking.row(member.name)
        oracle = evaluate_system(member.cluster.resolve(), quick)
        for b in FLEET_BENCHMARKS:
            got, want = row.efficiencies[b], oracle[b]["efficiency"]
            assert abs(got - want) <= 1e-9 * abs(want), (member.name, b)
    print(f"drill ok: 1000 systems ranked in {wall:.2f}s, "
          f"{ranking.stats['memo_unique']} unique subsystem configs")

    assert main(["journal", "validate", str(journal)]) == 0


def test_fleet_rank_cli_table_and_json_round_trip(capsys):
    """``tgi fleet rank`` as a table, then weighted as JSON."""
    assert main(["fleet", "rank", "--count", "50", "--top", "10"]) == 0
    table = capsys.readouterr().out
    assert main([
        "fleet", "rank", "--count", "50", "--weights", "HPL=2,STREAM=1,IOzone=1",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)

    assert len(payload["rows"]) == 50
    assert payload["rows"][0]["tgi_rank"] == 1
    assert payload["weights"]["HPL"] == 0.5
    assert payload["stats"]["batched"] == 50
    assert "TGI rank" in table and "MFLOPS/W" in table
