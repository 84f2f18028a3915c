"""Sharded-scheduler tests: planning, stealing, parity, crash resume.

The contracts pinned here:

* shard assignment is a pure function of the cache key — every run (and
  host) that agrees on the jobs agrees on the plan, and the plan is a
  partition: every pending job lands in exactly one shard;
* scheduler manifests are fingerprint-identical to plain
  :class:`CampaignRunner` manifests for the same jobs — inline, pooled,
  resumed, or fault-injected, "how it ran" never leaks into "what it
  computed";
* work stealing drains skewed shards: a single worker slot with several
  planned shards finishes everything and journals each steal;
* failure policy matches the runner: fail-fast raises
  :class:`CampaignExecutionError`, keep-going records the damage;
* each cache lookup is counted once: the executing process's re-check
  of a job the scheduler already probed adds no second miss;
* resume demands its inputs (journal + cache), rejects journals from a
  different campaign, and rejects jobs whose definition changed since the
  crash (key mismatch);
* the crash drill: killing the run after *every* journal event, then
  resuming, always reconverges to the uninterrupted fingerprint, never
  re-executes a job whose result was durably published (``job.stored``),
  and extends the same journal under the original run id.
"""

import dataclasses

import pytest

from repro import journal as jrnl
from repro import telemetry as tele
from repro.campaign import (
    CampaignJob,
    CampaignRunner,
    ClusterRef,
    InlineTransport,
    ResultCache,
    ShardedCampaignScheduler,
    cache_key,
    plan_shards,
    shard_of,
)
from repro.exceptions import CampaignExecutionError, ReproError
from repro.faults import FaultPlan
from repro.experiments import PAPER_CONFIG

QUICK_CONFIG = dataclasses.replace(
    PAPER_CONFIG,
    core_counts=(16,),
    hpl_problem_size=2240,
    hpl_rounds=1,
    stream_target_seconds=2,
    iozone_target_seconds=2,
)


LABEL = "campaign"


def _jobs(n=3, *, faulty=(), transient_failures=1, seed=7):
    """n quick jobs; ids listed in ``faulty`` get a transient-fault plan."""
    return [
        CampaignJob(
            job_id=f"j{i}",
            cluster=ClusterRef(kind="preset", name="fire", num_nodes=2),
            core_counts=(16,),
            seed=i,
            config=QUICK_CONFIG,
            faults=FaultPlan(transient_failures=transient_failures, seed=seed)
            if f"j{i}" in faulty
            else None,
        )
        for i in range(n)
    ]


@pytest.fixture(autouse=True)
def _no_leaked_ambient():
    jrnl.detach()
    yield
    assert jrnl.ambient() is None, "test leaked an ambient journal writer"
    jrnl.detach()


@pytest.fixture(scope="module")
def reference_fingerprint():
    """The plain-runner fingerprint every scheduler variant must match."""
    result = CampaignRunner(workers=1).run(_jobs(3), label=LABEL)
    return result.manifest["fingerprint"]


# ---------------------------------------------------------------------------
# Planning


class TestShardPlanning:
    def test_shard_of_is_deterministic_and_in_range(self):
        keys = [cache_key(job) for job in _jobs(6)]
        for key in keys:
            for n in (1, 2, 3, 7):
                shard = shard_of(key, n)
                assert 0 <= shard < n
                assert shard == shard_of(key, n)  # pure

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ReproError):
            shard_of("ab" * 32, 0)

    def test_plan_is_a_partition(self):
        keys = [cache_key(job) for job in _jobs(8)]
        plan = plan_shards(keys, 3)
        seen = sorted(p for members in plan.assignments for p in members)
        assert seen == list(range(len(keys)))  # every position exactly once
        assert plan.jobs == len(keys)
        assert plan.num_shards == 3

    def test_plan_is_stable_across_calls_and_job_order(self):
        keys = [cache_key(job) for job in _jobs(8)]
        plan = plan_shards(keys, 4)
        assert plan == plan_shards(keys, 4)
        # shard membership is per-key, not per-position
        by_key = {key: shard_of(key, 4) for key in keys}
        for shard, members in enumerate(plan.assignments):
            for position in members:
                assert by_key[keys[position]] == shard

    def test_empty_shards_are_allowed(self):
        plan = plan_shards([cache_key(_jobs(1)[0])], 5)
        assert sum(plan.sizes) == 1
        assert plan.sizes.count(0) == 4


# ---------------------------------------------------------------------------
# Parity with the runner


class TestSchedulerParity:
    def test_inline_fingerprint_matches_runner(self, reference_fingerprint):
        result = ShardedCampaignScheduler(workers=1, shards=2).run(
            _jobs(3), label=LABEL
        )
        assert result.manifest["fingerprint"] == reference_fingerprint
        assert result.manifest["sharding"]["shards"] == 2
        assert result.manifest["sharding"]["transport"] == "inline"
        assert result.manifest["sharding"]["resumed"] is False

    def test_pool_fingerprint_matches_runner(self, reference_fingerprint, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = ShardedCampaignScheduler(workers=2, cache=cache).run(
            _jobs(3), label=LABEL
        )
        assert result.manifest["fingerprint"] == reference_fingerprint
        assert result.manifest["sharding"]["transport"] == "process-pool"
        # every computed payload was published worker-side
        assert len(cache) == 3

    def test_plan_block_covers_every_pending_job(self, tmp_path):
        result = ShardedCampaignScheduler(workers=1, shards=3).run(
            _jobs(4), label="plan"
        )
        planned = sorted(
            job_id for shard in result.manifest["sharding"]["plan"] for job_id in shard
        )
        assert planned == [f"j{i}" for i in range(4)]

    def test_failfast_raises_like_runner(self):
        jobs = _jobs(3, faulty=("j1",), transient_failures=99)
        with pytest.raises(CampaignExecutionError) as excinfo:
            ShardedCampaignScheduler(workers=1).run(jobs, label="boom")
        assert excinfo.value.failures[0]["job_id"] == "j1"

    def test_keep_going_records_failures(self):
        jobs = _jobs(3, faulty=("j1",), transient_failures=99)
        result = ShardedCampaignScheduler(workers=1, keep_going=True).run(
            jobs, label="limp"
        )
        assert [o.job.job_id for o in result.failed] == ["j1"]
        assert result.manifest["failures"]["jobs_failed"] == 1

    def test_retry_parity_with_faults(self):
        # Fault plans are part of the job definition (and so the key), so
        # the reference here is the plain runner on the SAME faulty jobs.
        jobs = _jobs(3, faulty=("j2",), transient_failures=1)
        reference = CampaignRunner(workers=1, retries=1).run(jobs, label=LABEL)
        result = ShardedCampaignScheduler(workers=1, retries=1).run(
            jobs, label=LABEL
        )
        assert result.manifest["fingerprint"] == reference.manifest["fingerprint"]
        assert result.outcomes[2].attempts == 2

    def test_explicit_transport_is_used(self):
        transport = InlineTransport()
        result = ShardedCampaignScheduler(
            workers=4, shards=2, transport=transport
        ).run(_jobs(2), label="custom")
        assert result.manifest["sharding"]["transport"] == "inline"

    def test_constructor_validation(self):
        with pytest.raises(ReproError):
            ShardedCampaignScheduler(workers=0)
        with pytest.raises(ReproError):
            ShardedCampaignScheduler(shards=-1)
        with pytest.raises(ReproError):
            ShardedCampaignScheduler(retries=-1)


# ---------------------------------------------------------------------------
# Cache accounting


class TestCacheAccounting:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_lookup_counts_once(self, workers, tmp_path):
        jobs = _jobs(2)
        cold_cache = ResultCache(tmp_path / "cache")
        session = tele.TelemetrySession()
        with tele.use(session):
            cold = ShardedCampaignScheduler(workers=workers, cache=cold_cache).run(
                jobs, label=LABEL
            )
        assert cold_cache.stats.misses == len(jobs)
        assert cold_cache.stats.puts == len(jobs)
        assert cold.manifest["cache"]["misses"] == len(jobs)
        lookups = session.metrics.as_dict()["tgi_cache_lookups_total"]["samples"]
        assert sum(
            s["value"] for s in lookups if s["labels"]["result"] == "miss"
        ) == len(jobs)

        warm_cache = ResultCache(tmp_path / "cache")
        ShardedCampaignScheduler(workers=workers, cache=warm_cache).run(
            jobs, label=LABEL
        )
        assert warm_cache.stats.hits == len(jobs)
        assert warm_cache.stats.misses == 0


# ---------------------------------------------------------------------------
# Work stealing


class TestWorkStealing:
    def test_single_slot_steals_across_shards(self, tmp_path):
        """One worker slot, several shards: it drains its home, then steals."""
        path = tmp_path / "steal.jsonl"
        result = ShardedCampaignScheduler(workers=1, shards=3, journal=path).run(
            _jobs(5), label="steal"
        )
        sharding = result.manifest["sharding"]
        occupied = sum(1 for shard in sharding["plan"] if shard)
        assert sharding["stolen"] >= occupied - 1  # every non-home shard is robbed
        events = jrnl.read_events(path)
        steals = [e for e in events if e["event"] == "job.stolen"]
        assert len(steals) == sharding["stolen"]
        for steal in steals:
            assert steal["from_shard"] != steal["by_shard"]
        assert jrnl.validate_events(events) == []

    def test_no_steals_needed_with_one_shard(self, tmp_path):
        result = ShardedCampaignScheduler(workers=1, shards=1).run(
            _jobs(3), label="home"
        )
        assert result.manifest["sharding"]["stolen"] == 0


# ---------------------------------------------------------------------------
# Resume: input validation


class TestResumeValidation:
    def test_resume_needs_a_journal(self, tmp_path):
        scheduler = ShardedCampaignScheduler(cache=ResultCache(tmp_path / "c"))
        with pytest.raises(ReproError, match="needs a journal"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_needs_the_cache(self, tmp_path):
        scheduler = ShardedCampaignScheduler(journal=tmp_path / "r.jsonl")
        with pytest.raises(ReproError, match="cache"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_needs_an_existing_journal_file(self, tmp_path):
        scheduler = ShardedCampaignScheduler(
            cache=ResultCache(tmp_path / "c"), journal=tmp_path / "missing.jsonl"
        )
        with pytest.raises(ReproError, match="does not exist"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_rejects_foreign_journal(self, tmp_path):
        path = tmp_path / "other.jsonl"
        writer = jrnl.JournalWriter(path, label="other")
        writer.emit("run.start", label="other", jobs=1, workers=1,
                    retries_allowed=0, keep_going=False, cache_enabled=True)
        writer.emit("job.scheduled", job="stranger", key="ab" * 32, index=0)
        writer.close()
        scheduler = ShardedCampaignScheduler(
            cache=ResultCache(tmp_path / "c"), journal=path
        )
        with pytest.raises(ReproError, match="stranger"):
            scheduler.run(_jobs(2), resume=True)

    def test_resume_rejects_changed_job_definition(self, tmp_path):
        """Same id, different key: the job changed since the crash."""
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        ShardedCampaignScheduler(cache=cache, journal=path).run(
            _jobs(2), label="orig"
        )
        changed = [
            dataclasses.replace(job, seed=job.seed + 100) for job in _jobs(2)
        ]
        scheduler = ShardedCampaignScheduler(cache=cache, journal=path)
        with pytest.raises(ReproError, match="definition changed"):
            scheduler.run(changed, resume=True)

    def test_resume_rejects_empty_journal(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        scheduler = ShardedCampaignScheduler(
            cache=ResultCache(tmp_path / "c"), journal=path
        )
        with pytest.raises(ReproError, match="no run.start"):
            scheduler.run(_jobs(2), resume=True)


# ---------------------------------------------------------------------------
# Resume: behavior


class TestResume:
    def test_resume_of_completed_run_recovers_everything(
        self, reference_fingerprint, tmp_path
    ):
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        first = ShardedCampaignScheduler(cache=cache, journal=path).run(
            _jobs(3), label=LABEL
        )
        second = ShardedCampaignScheduler(cache=cache, journal=path).run(
            _jobs(3), label=LABEL, resume=True
        )
        assert second.manifest["fingerprint"] == reference_fingerprint
        sharding = second.manifest["sharding"]
        assert sharding["resumed"] is True
        assert sharding["jobs_recovered"] == 3
        assert all(o.cache_status == "hit" for o in second.outcomes)
        state = jrnl.replay(jrnl.read_events(path))
        assert state.resumes == 1
        assert state.run_id == first.manifest["journal"]["run_id"]

    def test_crash_then_resume_reconverges(self, reference_fingerprint, tmp_path):
        """Kill the run mid-flight; resume finishes it, same fingerprint."""
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        crasher = jrnl.CrashingJournalWriter(path, crash_after=8, label=LABEL)
        with pytest.raises(jrnl.SimulatedCrash):
            ShardedCampaignScheduler(cache=cache, journal=crasher).run(
                _jobs(3), label=LABEL
            )
        # the torn run has no run.stop: the crash detector's signal
        state = jrnl.replay(jrnl.read_events(path))
        assert state.started and not state.stopped
        result = ShardedCampaignScheduler(cache=cache, journal=path).run(
            _jobs(3), label=LABEL, resume=True
        )
        assert result.manifest["fingerprint"] == reference_fingerprint
        final = jrnl.replay(jrnl.read_events(path))
        assert final.stopped and final.stop_status == "ok"
        assert final.resumes == 1
        assert final.run_id == state.run_id  # same run, extended journal

    def test_kill_at_every_journal_event_then_resume(self, tmp_path):
        """The resume drill, exhaustively: crash after every single event.

        The byte-offset truncation test proves any torn journal *parses*;
        this proves any torn journal *resumes* — for every possible
        crash point k, the resumed run reconverges to the uninterrupted
        fingerprint, keeps the original run id, and never re-executes a
        job whose ``job.stored`` event (durable publication) predates the
        crash.
        """
        jobs = _jobs(2)
        # Size the drill (and take the reference fingerprint) from a clean
        # uninterrupted run, anchored to the plain runner first.
        probe_path = tmp_path / "probe.jsonl"
        probe = ShardedCampaignScheduler(
            cache=ResultCache(tmp_path / "probe-cache"), journal=probe_path
        ).run(jobs, label=LABEL)
        reference_fingerprint = probe.manifest["fingerprint"]
        runner_result = CampaignRunner(workers=1).run(jobs, label=LABEL)
        assert reference_fingerprint == runner_result.manifest["fingerprint"]
        total_events = len(jrnl.read_events(probe_path))
        assert total_events >= 8

        for crash_after in range(1, total_events):
            root = tmp_path / f"k{crash_after}"
            root.mkdir()
            cache = ResultCache(root / "cache")
            path = root / "r.jsonl"
            crasher = jrnl.CrashingJournalWriter(
                path, crash_after=crash_after, label=LABEL
            )
            with pytest.raises(jrnl.SimulatedCrash):
                ShardedCampaignScheduler(cache=cache, journal=crasher).run(
                    jobs, label=LABEL
                )
            torn = jrnl.read_events(path)
            assert len(torn) == crash_after
            stored_before_crash = {
                e["job"] for e in torn if e["event"] == "job.stored"
            }
            result = ShardedCampaignScheduler(cache=cache, journal=path).run(
                jobs, label=LABEL, resume=True
            )
            assert result.manifest["fingerprint"] == reference_fingerprint, (
                f"fingerprint diverged at crash_after={crash_after}"
            )
            events = jrnl.read_events(path)
            assert jrnl.validate_events(events) == []
            state = jrnl.replay(events)
            assert state.stopped and state.stop_status == "ok"
            assert state.resumes == 1
            assert len({e["run_id"] for e in events}) == 1
            for job_id in stored_before_crash:
                starts = [
                    e
                    for e in events
                    if e["event"] == "job.started" and e["job"] == job_id
                ]
                assert len(starts) == 1, (
                    f"{job_id} re-executed despite durable publication "
                    f"(crash_after={crash_after})"
                )

    def test_resume_under_fault_injection(self, tmp_path):
        """Node-crash-style transient faults + a mid-run kill still reconverge."""
        jobs = _jobs(3, faulty=("j0", "j2"), transient_failures=1)
        reference = CampaignRunner(workers=1, retries=1).run(jobs, label=LABEL)
        cache = ResultCache(tmp_path / "c")
        path = tmp_path / "r.jsonl"
        crasher = jrnl.CrashingJournalWriter(path, crash_after=10, label=LABEL)
        with pytest.raises(jrnl.SimulatedCrash):
            ShardedCampaignScheduler(cache=cache, journal=crasher, retries=1).run(
                jobs, label=LABEL
            )
        result = ShardedCampaignScheduler(cache=cache, journal=path, retries=1).run(
            jobs, label=LABEL, resume=True
        )
        assert result.manifest["fingerprint"] == reference.manifest["fingerprint"]
        events = jrnl.read_events(path)
        assert jrnl.validate_events(events) == []
        assert any(e["event"] == "fault.injected" for e in events)
