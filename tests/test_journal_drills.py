"""Flight-recorder drills: a fault-injected campaign with the journal armed,
then every journal and trace verb on what it wrote, runnable with
``pytest -m drill``.

Each drill drives :func:`repro.cli.main` exactly as an operator would and
checks the artifacts it leaves behind.
"""

import json

import pytest

from repro import journal as jrnl
from repro.cli import main

pytestmark = pytest.mark.drill


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A fault-injected, retried campaign with the recorder armed."""
    out = tmp_path_factory.mktemp("journal-drill")
    assert main([
        "campaign", "--workers", "2", "--retries", "2",
        "--inject", "reference:transient:1",
        "--journal", str(out / "run.jsonl"),
        "--manifest", str(out / "manifest.json"),
    ]) == 0
    return out


def test_journal_validate_summary_report(artifacts, capsys):
    """Every journal event validates; summary and JSON report render."""
    run = str(artifacts / "run.jsonl")
    assert main(["journal", "validate", run]) == 0
    assert main(["journal", "summary", run]) == 0
    capsys.readouterr()
    assert main(["journal", "report", run, "--json"]) == 0
    (artifacts / "report.json").write_text(capsys.readouterr().out)


def test_replayed_attempts_match_manifest_row_for_row(artifacts):
    """Replayed attempt state must match the manifest row-for-row."""
    run = str(artifacts / "run.jsonl")
    manifest = json.loads((artifacts / "manifest.json").read_text())
    state = jrnl.replay_journal(run)
    assert state.complete and state.stop_status == "ok", state.stop_status
    table = jrnl.attempt_table(state)
    for row in manifest["jobs"]:
        replayed = table[row["job_id"]]
        for field in ("status", "attempts", "cache_status"):
            assert replayed[field] == row[field], (row["job_id"], field)
    block = manifest["journal"]
    assert block["sha256"] == jrnl.journal_digest(run)
    assert state.faults, "injected fault never journaled"


def test_perfetto_trace_export_validates(artifacts):
    """``tgi trace export`` writes a Perfetto trace that validates."""
    trace_path = artifacts / "trace.json"
    assert main([
        "trace", "export", "--journal", str(artifacts / "run.jsonl"),
        "-o", str(trace_path),
    ]) == 0
    trace = json.loads(trace_path.read_text())
    problems = jrnl.validate_trace(trace)
    assert not problems, problems
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
