"""The one ambient observability store and who binds it.

:mod:`repro.ambient` holds the process's telemetry session, journal writer
and timeline sink.  These tests pin the binding rules that matter across
process boundaries:

* a campaign with its own journal receives *all* of its events, fault
  injections included, whatever writer the caller had bound — and the
  caller's binding is back in place afterwards;
* pool workers start each job unbound, so nothing a worker builds lands in
  a fork-inherited copy of the parent's sink or session;
* importing the science core loads none of the observability or campaign
  packages behind the bindings.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ambient
from repro import journal as jrnl
from repro import telemetry as tele
from repro import timeline as tline
from repro.campaign import CampaignJob, CampaignRunner, ClusterRef
from repro.experiments import PAPER_CONFIG
from repro.faults import FaultPlan

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2,
    iozone_target_seconds=2,
)


def _jobs(n, *, faulty=()):
    return [
        CampaignJob(
            job_id=f"j{i}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=2),
            core_counts=(16,),
            seed=i,
            config=QUICK_CONFIG,
            faults=FaultPlan(transient_failures=1) if f"j{i}" in faulty else None,
        )
        for i in range(n)
    ]


class TestBound:
    def test_sets_and_restores_named_slots_only(self):
        outer = object()
        with ambient.bound(journal=outer):
            with ambient.bound(session="s", journal=None):
                assert (ambient.session, ambient.journal) == ("s", None)
            assert ambient.journal is outer and ambient.session is None
        assert ambient.journal is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with ambient.bound(sink="armed"):
                raise RuntimeError("boom")
        assert ambient.sink is None

    def test_unknown_slot_is_rejected(self):
        with pytest.raises(TypeError, match="unknown ambient slot"):
            with ambient.bound(tracer=None):
                pass

    def test_public_helpers_read_the_one_store(self, tmp_path):
        writer = jrnl.JournalWriter(tmp_path / "a.jsonl")
        with tele.use() as session, jrnl.use_writer(writer), tline.collecting():
            assert ambient.session is session and tele.current() is session
            assert ambient.journal is writer and jrnl.ambient() is writer
            assert ambient.sink is tline.ambient_sink() is not None
        assert (ambient.session, ambient.journal, ambient.sink) == (None, None, None)
        writer.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_fault_events_land_in_the_campaigns_own_journal(tmp_path, workers):
    outer = jrnl.JournalWriter(tmp_path / "outer.jsonl", label="outer")
    inner = tmp_path / "campaign.jsonl"
    with jrnl.use_writer(outer):
        CampaignRunner(workers=workers, retries=1, journal=inner).run(
            _jobs(2, faulty=("j0",)), label="faulty"
        )
        assert jrnl.ambient() is outer
    outer.close()

    events = [
        e["event"]
        for e in jrnl.read_events(inner)
        if e.get("job", e.get("scope")) == "j0"
    ]
    assert "fault.injected" in events and "job.retried" in events
    assert events.index("fault.injected") < events.index("job.retried")
    assert jrnl.read_events(tmp_path / "outer.jsonl") == []


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_workers_start_unbound(workers):
    with tele.use() as session, tline.collecting() as timelines:
        CampaignRunner(workers=workers).run(_jobs(4), label="unbound")
    runs = session.metrics.counter("tgi_timeline_runs_total").value()
    assert runs == len(timelines)


def test_science_core_imports_no_observability_or_campaign_code():
    probe = """
import json, sys
import repro.experiments
loaded = sorted(sys.modules)
import repro
unresolved = [n for n in repro.__all__ if getattr(repro, n, None) is None]
print(json.dumps({"loaded": loaded, "unresolved": unresolved}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout
    report = json.loads(out)
    forbidden = (
        "repro.campaign",
        "repro.journal",
        "repro.timeline",
        "repro.fleet",
        "repro.perfwatch",
        "multiprocessing",
    )
    leaked = [
        m
        for m in report["loaded"]
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    ]
    assert leaked == []
    assert report["unresolved"] == []
