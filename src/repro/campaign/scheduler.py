"""The campaign executor: sharded, work-stealing, crash-resumable.

:class:`ShardedCampaignScheduler` — also exported as
:class:`~repro.campaign.runner.CampaignRunner` — is the one executor every
campaign runs on.  It takes a list of :class:`~repro.campaign.jobs.CampaignJob`
and produces a :class:`~repro.campaign.runner.CampaignResult`:

1. every job is keyed by the SHA-256 of its canonical serialization;
2. keyed jobs are probed against the (optional) shared on-disk
   :class:`~repro.campaign.cache.ResultCache` — hits skip execution;
3. the remaining jobs are sharded, ordered, and handed to a
   :class:`~repro.campaign.runner.WorkerTransport` — inline for
   ``workers == 1`` (and automatically when the platform cannot spawn a
   pool), a process pool otherwise;
4. each outcome records wall time and cache status, and the whole run is
   summarized in a machine-readable manifest (see
   :mod:`repro.campaign.manifest`).

On top of that loop it adds three things:

**Deterministic sharding.**  Each pending job is assigned to a shard by
:func:`shard_of` — a pure function of the job's content-addressed cache
key — so shard membership is stable across runs, resumes, and hosts; no
coordinator state needs to survive a crash for the plan to be
reconstructible.  Shards are a *locality* hint, not a partition wall.
The default is one shard per worker.

**Work stealing.**  Job durations are skewed (a 4096-rank HPL sweep and a
small STREAM job can live in the same campaign), so worker slots keep a
home-shard affinity and, once their home runs dry, steal from the deepest
remaining backlog (``job.stolen`` journal events record each steal).  The
scheduler stays busy until the global queue drains, not until the
unluckiest shard finishes.

**Crash resume.**  ``run(jobs, resume=True)`` replays the existing
journal into per-job attempt state (:func:`repro.journal.replay`), skips
every job that is terminal in the replayed state *and* recoverable from
the shared result cache, re-schedules only the remainder, and extends the
*same* journal file under the original run id (``run.resumed`` event).
The resumed manifest is row-for-row equivalent to an uninterrupted run —
same fingerprint — because recovery is just a cache hit and
``cache_status``/``attempts`` are volatile manifest fields by design.
A job that crashed *between* its ``job.completed`` event and its cache
publication (``job.stored``) is simply re-executed: the journal is the
witness, the cache is the payload store, and resume trusts payloads only
from the cache.

The execution mechanics — work items, the per-job attempt loop, the
transports and their one pool-worker shim — live in
:mod:`repro.campaign.runner`.  See ``docs/distributed_campaigns.md`` for
the operational story.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import BrokenExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from .. import ambient
from .. import journal as jrnl
from .. import telemetry as tele
from .. import timeline as tline
from ..exceptions import CampaignExecutionError, ReproError
from .cache import ResultCache, cache_key
from .jobs import CampaignJob
from .runner import (
    CampaignResult,
    InlineTransport,
    JobOutcome,
    ProcessPoolTransport,
    WorkerTransport,
    WorkItem,
    WorkResult,
    build_manifest,
    check_jobs,
)

__all__ = [
    "shard_of",
    "ShardPlan",
    "plan_shards",
    "ShardedCampaignScheduler",
]


def shard_of(key: str, num_shards: int) -> int:
    """The shard a cache key belongs to (pure, content-driven).

    Uses the key's leading 64 bits, so shard membership depends only on
    the job's canonical serialization — every run, resume, or host that
    agrees on the job agrees on its shard without shared state.
    """
    if num_shards < 1:
        raise ReproError(f"num_shards must be >= 1, got {num_shards}")
    return int(key[:16], 16) % num_shards


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of job positions into shards.

    ``assignments[s]`` holds the positions (into the planned key list)
    that landed in shard ``s``, in submission order.  Shards may be empty
    — content-driven assignment balances only in expectation; skew is
    what work stealing absorbs at run time.
    """

    num_shards: int
    assignments: Tuple[Tuple[int, ...], ...]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(shard) for shard in self.assignments)

    @property
    def jobs(self) -> int:
        return sum(self.sizes)


def plan_shards(keys: Sequence[str], num_shards: int) -> ShardPlan:
    """Partition keyed jobs into ``num_shards`` deterministic shards."""
    if num_shards < 1:
        raise ReproError(f"num_shards must be >= 1, got {num_shards}")
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    for position, key in enumerate(keys):
        buckets[shard_of(key, num_shards)].append(position)
    return ShardPlan(
        num_shards=num_shards,
        assignments=tuple(tuple(bucket) for bucket in buckets),
    )


def _dispatch_order(
    items: Sequence[WorkItem], slots: int
) -> List[Tuple[WorkItem, Optional[int]]]:
    """The order items go out in: home-shard affinity, then stealing.

    Slots take turns.  Each starts on its own home shard and refills from
    the shard of the item it took last; once that shard runs dry it
    steals from the deepest remaining backlog (ties: lowest shard id),
    taking from the tail so the victim's head stays local.  Returns
    ``(item, thief)`` pairs, where ``thief`` is the stealing slot's home
    shard, or ``None`` for a local take.
    """
    backlog: Dict[int, Deque[WorkItem]] = {}
    for item in items:
        backlog.setdefault(item.shard, deque()).append(item)
    homes = sorted(backlog)
    slot_homes = [homes[s % len(homes)] for s in range(min(max(1, slots), len(items)))]
    order: List[Tuple[WorkItem, Optional[int]]] = []
    while len(order) < len(items):
        for slot, home in enumerate(slot_homes):
            if backlog[home]:
                item, thief = backlog[home].popleft(), None
            else:
                donors = [shard for shard, queue in backlog.items() if queue]
                if not donors:
                    break
                donor = max(donors, key=lambda shard: (len(backlog[shard]), -shard))
                item, thief = backlog[donor].pop(), home
            order.append((item, thief))
            slot_homes[slot] = item.shard
    return order


class ShardedCampaignScheduler:
    """Executes campaigns of independent jobs: sharded, stealing, resumable.

    Also exported as :class:`~repro.campaign.runner.CampaignRunner`.

    Parameters
    ----------
    workers:
        Worker-slot count.  ``1`` (default) runs inline; more uses a
        process pool (or the supplied ``transport``).  Pools that fail to
        start (restricted platforms) or die mid-campaign degrade to inline
        execution, which is result-identical by construction and only
        re-executes jobs whose results were not already collected.
    shards:
        Shard count for the deterministic plan; ``0`` (default) means one
        shard per worker slot.
    cache:
        The shared :class:`ResultCache`, or ``None`` to always execute.
        *Required* for resume — the journal records what finished, the
        cache holds the payloads.
    retries:
        Extra executions granted to a failing job (0 = one attempt only).
        Backed off exponentially from ``backoff_s`` with seeded jitter.
    keep_going:
        Failure policy once retries are exhausted: ``False`` (default)
        raises :class:`~repro.exceptions.CampaignExecutionError`;
        ``True`` records the failure and finishes the surviving jobs.
    backoff_s:
        Base backoff delay in seconds (0 disables sleeping — the right
        setting for simulated faults and tests).
    backoff_seed:
        Seed for the backoff jitter stream.
    journal:
        Flight-recorder target: a path (the scheduler creates, finalizes,
        and digests the journal) or an existing
        :class:`~repro.journal.JournalWriter` (the caller keeps ownership
        and finalization).  ``None`` (default) records nothing.  Required
        for resume.
    timeline:
        Directory for per-job power-timeline artifacts
        (:mod:`repro.timeline`).  When set, every executed job arms the
        ambient timeline sink and its captured run timelines land as
        ``<dir>/<job_id>.timeline.json`` — the input of ``tgi dashboard``.
        ``None`` (default) captures nothing; cached jobs never re-capture.
    transport:
        A :class:`~repro.campaign.runner.WorkerTransport` to execute on,
        overriding the inline/process-pool choice (the multi-host hook).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        shards: int = 0,
        cache: Optional[ResultCache] = None,
        retries: int = 0,
        keep_going: bool = False,
        backoff_s: float = 0.0,
        backoff_seed: int = 0,
        journal: Optional[Union[str, Path, jrnl.JournalWriter]] = None,
        timeline: Optional[Union[str, Path]] = None,
        transport: Optional[WorkerTransport] = None,
    ):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if shards < 0:
            raise ReproError(f"shards must be >= 0 (0 = one per worker), got {shards}")
        if retries < 0:
            raise ReproError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ReproError(f"backoff_s must be >= 0, got {backoff_s}")
        self.workers = workers
        self.shards = shards
        self.cache = cache
        self.retries = retries
        self.keep_going = keep_going
        self.backoff_s = backoff_s
        self.backoff_seed = backoff_seed
        self.journal = journal
        self.timeline = Path(timeline) if timeline is not None else None
        self.transport = transport

    # ------------------------------------------------------------------
    def _resume_state(
        self, jobs: Sequence[CampaignJob], keys: Sequence[str]
    ) -> jrnl.RunState:
        """Replay the journal being resumed, guarding campaign identity."""
        if self.journal is None:
            raise ReproError(
                "resume needs a journal: pass journal=<path of the run to resume>"
            )
        if self.cache is None:
            raise ReproError(
                "resume needs the shared result cache: the journal records what "
                "finished; the cache holds the payloads"
            )
        if isinstance(self.journal, jrnl.JournalWriter):
            path = self.journal.path
        else:
            path = Path(self.journal)
        if not path.exists():
            raise ReproError(f"cannot resume: journal {path} does not exist")
        state = jrnl.replay(jrnl.read_events(path))
        if not state.started:
            raise ReproError(
                f"cannot resume: journal {path} has no run.start event"
            )
        by_id = {job.job_id: key for job, key in zip(jobs, keys)}
        for job_id, job_state in state.jobs.items():
            if job_id not in by_id:
                raise ReproError(
                    f"cannot resume: journal {path} schedules job {job_id!r}, "
                    "which is not in this campaign's job list"
                )
            if job_state.key and job_state.key != by_id[job_id]:
                raise ReproError(
                    f"cannot resume: job {job_id!r} is keyed "
                    f"{job_state.key[:12]}... in the journal but "
                    f"{by_id[job_id][:12]}... now — the job definition changed "
                    "between the crashed run and this one"
                )
        return state

    def _num_shards(self) -> int:
        return self.shards if self.shards else max(1, self.workers)

    def _make_transport(self, pending: int) -> WorkerTransport:
        if self.transport is not None:
            return self.transport
        if self.workers > 1 and pending > 1:
            return ProcessPoolTransport(min(self.workers, pending))
        return InlineTransport(cache=self.cache)

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[CampaignJob],
        *,
        label: str = "campaign",
        resume: bool = False,
    ) -> CampaignResult:
        """Execute (or resume) the campaign; returns outcomes plus manifest.

        Raises :class:`~repro.exceptions.CampaignExecutionError` when a
        job exhausts its retries under the fail-fast policy (the default);
        with ``keep_going`` the error surfaces in the outcome/manifest and
        the method still returns.  A fail-fast abort still finalizes a
        scheduler-owned journal (``run.stop`` with ``status="aborted"``) —
        the flight recorder's whole point is surviving the crash.

        With ``resume=True`` the journal must already exist: its events
        are replayed first, recovered jobs are served from the shared
        cache without re-execution, and the remainder is re-sharded and
        re-dispatched while the same journal file grows under the
        original run id.
        """
        jobs = check_jobs(jobs)
        if self.timeline is not None:
            self.timeline.mkdir(parents=True, exist_ok=True)

        with tele.span("campaign.run", label=label, jobs=len(jobs)):
            keys: List[str] = []
            for job in jobs:
                with tele.span("job.serialize", job=job.job_id):
                    keys.append(cache_key(job))

            prior = self._resume_state(jobs, keys) if resume else None
            prior_terminal = set()
            if prior is not None:
                prior_terminal = {
                    job_id
                    for job_id, job_state in prior.jobs.items()
                    if job_state.status in ("completed", "cached")
                }

            writer, owns_writer = jrnl.open_journal(
                self.journal,
                label=label,
                run_id=prior.run_id if prior is not None else None,
            )
            num_shards = self._num_shards()
            t_start = time.perf_counter()
            invalidations_before = self.cache.stats.invalidations if self.cache is not None else 0
            stolen = 0
            recovered = 0
            workers_used = 1
            transport_name = "inline"
            # Inline attempt and fault events go through the ambient binding
            # (pool workers bind their own handle); a journal-less run
            # leaves whatever the caller bound in place.
            with ambient.bound(journal=writer) if writer is not None else nullcontext():
                try:
                    if writer is not None and prior is None:
                        writer.emit(
                            "run.start",
                            label=label,
                            jobs=len(jobs),
                            workers=self.workers,
                            retries_allowed=self.retries,
                            keep_going=self.keep_going,
                            cache_enabled=self.cache is not None,
                            shards=num_shards,
                        )
                    if writer is not None:
                        for index, (job, key) in enumerate(zip(jobs, keys)):
                            writer.emit(
                                "job.scheduled", job=job.job_id, key=key, index=index
                            )

                    payloads: Dict[int, Dict] = {}
                    statuses: Dict[int, str] = {}
                    walls: Dict[int, float] = {}
                    errors: Dict[int, Dict] = {}
                    attempts: Dict[int, int] = {}

                    pending: List[int] = []
                    for index, key in enumerate(keys):
                        job_id = jobs[index].job_id
                        with tele.span(
                            "job.cache_probe", job=job_id, skipped=self.cache is None
                        ):
                            if self.cache is not None:
                                t0 = time.perf_counter()
                                cached = self.cache.get(key)
                                if cached is not None:
                                    payloads[index] = cached
                                    statuses[index] = "hit"
                                    walls[index] = time.perf_counter() - t0
                                    attempts[index] = 0
                                    if job_id in prior_terminal:
                                        recovered += 1
                                    if writer is not None:
                                        writer.emit(
                                            "job.cache_hit",
                                            job=job_id,
                                            key=key,
                                            attempt=0,
                                        )
                                    continue
                        pending.append(index)

                    if writer is not None and prior is not None:
                        writer.emit(
                            "run.resumed",
                            jobs_recovered=recovered,
                            jobs_pending=len(pending),
                            shards=num_shards,
                        )

                    plan = plan_shards([keys[i] for i in pending], num_shards)
                    if writer is not None:
                        for shard, members in enumerate(plan.assignments):
                            writer.emit("shard.planned", shard=shard, jobs=len(members))

                    if pending:
                        items = self._work_items(jobs, keys, pending, plan, writer)
                        results, stolen, workers_used, transport_name = self._dispatch(
                            items, writer
                        )
                        for result in results.values():
                            index = result.index
                            walls[index] = result.wall_s
                            attempts[index] = result.attempts
                            statuses[index] = result.cache_status
                            if result.error is not None:
                                errors[index] = result.error
                            else:
                                payloads[index] = result.payload
                            if result.cache_status == "uncached":
                                # Traced parent-side so that pool workers ship
                                # back only their job.execute roots.
                                with tele.span(
                                    "job.store", job=jobs[index].job_id, skipped=True
                                ):
                                    pass
                            if result.cache_stats and self.cache is not None:
                                # Worker-side cache objects saw the traffic;
                                # fold their deltas into the parent's books.
                                self.cache.stats.hits += result.cache_stats["hits"]
                                self.cache.stats.misses += result.cache_stats["misses"]
                                self.cache.stats.invalidations += result.cache_stats[
                                    "invalidations"
                                ]
                                self.cache.stats.puts += result.cache_stats["puts"]

                    failed = [i for i in pending if i in errors]
                    # Jobs the fail-fast stop never dispatched: no payload, no
                    # error, zero attempts.
                    for index in pending:
                        if index not in statuses:
                            statuses[index] = "failed" if index in errors else "uncached"
                            if index not in attempts:
                                attempts[index] = 0
                            if index not in walls:
                                walls[index] = 0.0
                    if failed and not self.keep_going:
                        failures = [
                            {"job_id": jobs[i].job_id, "error": errors[i]} for i in failed
                        ]
                        first = failures[0]
                        raise CampaignExecutionError(
                            f"{len(failed)} of {len(jobs)} campaign job(s) failed "
                            f"(first: {first['job_id']} — {first['error']['type']}: "
                            f"{first['error']['message']}); rerun with keep_going=True "
                            "to collect the surviving jobs",
                            failures=failures,
                        )

                    if tele.active():
                        for index in range(len(jobs)):
                            tele.count("tgi_campaign_jobs_total", status=statuses[index])
                        retries_total = sum(
                            max(0, attempts.get(i, 1) - 1) for i in pending
                        )
                        if failed:
                            tele.count("tgi_campaign_jobs_failed_total", len(failed))
                        if retries_total:
                            tele.count("tgi_campaign_jobs_retried_total", retries_total)
                        if stolen:
                            tele.count("tgi_campaign_jobs_stolen_total", stolen)
                except CampaignExecutionError as exc:
                    if writer is not None and owns_writer:
                        writer.finalize(
                            status="aborted",
                            jobs_failed=len(exc.failures),
                            total_wall_s=time.perf_counter() - t_start,
                        )
                    raise

        total_wall = time.perf_counter() - t_start
        outcomes = [
            JobOutcome(
                job=jobs[i],
                key=keys[i],
                payload=payloads.get(i),
                cache_status=statuses[i],
                wall_s=walls.get(i, 0.0),
                status="failed" if i in errors else "ok",
                error=errors.get(i),
                attempts=attempts.get(i, 1),
            )
            for i in range(len(jobs))
        ]
        invalidations = (
            self.cache.stats.invalidations - invalidations_before if self.cache is not None else 0
        )
        journal_info = None
        if writer is not None:
            jobs_failed_total = sum(1 for o in outcomes if not o.ok)
            journal_info = {
                "path": str(writer.path),
                "run_id": writer.run_id,
                "events": writer.events_written,
                "sha256": None,
            }
            if owns_writer:
                summary = writer.finalize(
                    status="ok" if not jobs_failed_total else "failed",
                    jobs_failed=jobs_failed_total,
                    total_wall_s=total_wall,
                )
                journal_info["events"] = summary["events"]
                journal_info["sha256"] = summary["sha256"]
        timeline_info = None
        if self.timeline is not None:
            artifacts = sorted(self.timeline.glob("*.timeline.json"))
            timeline_info = {
                "dir": str(self.timeline),
                "artifacts": len(artifacts),
                "version": tline.TIMELINE_SCHEMA_VERSION,
            }
        manifest = build_manifest(
            label=label,
            outcomes=outcomes,
            total_wall=total_wall,
            workers_requested=self.workers,
            workers_used=workers_used,
            cache=self.cache,
            retries_allowed=self.retries,
            keep_going=self.keep_going,
            invalidations=invalidations,
            journal_info=journal_info,
            timeline_info=timeline_info,
            extra={
                "sharding": {
                    "shards": num_shards,
                    "plan": [
                        [jobs[pending[p]].job_id for p in members]
                        for members in plan.assignments
                    ],
                    "transport": transport_name,
                    "stolen": stolen,
                    "resumed": prior is not None,
                    "jobs_recovered": recovered,
                }
            },
        )
        return CampaignResult(outcomes, manifest)

    # ------------------------------------------------------------------
    def _work_items(
        self,
        jobs: Sequence[CampaignJob],
        keys: Sequence[str],
        pending: Sequence[int],
        plan: ShardPlan,
        writer: Optional[jrnl.JournalWriter],
    ) -> List[WorkItem]:
        """Materialize work items for the pending jobs, shard-annotated."""
        shard_by_position = {}
        for shard, members in enumerate(plan.assignments):
            for position in members:
                shard_by_position[position] = shard
        return [
            WorkItem(
                index=index,
                shard=shard_by_position[position],
                job=jobs[index],
                key=keys[index],
                retries=self.retries,
                backoff_s=self.backoff_s,
                backoff_seed=self.backoff_seed,
                with_telemetry=tele.current() is not None,
                journal_path=str(writer.path) if writer is not None else None,
                run_id=writer.run_id if writer is not None else None,
                timeline_dir=str(self.timeline) if self.timeline else None,
                cache_dir=str(self.cache.directory) if self.cache is not None else None,
                code_version=self.cache.code_version if self.cache is not None else None,
            )
            for position, index in enumerate(pending)
        ]

    def _dispatch(
        self, items: List[WorkItem], writer: Optional[jrnl.JournalWriter]
    ) -> Tuple[Dict[int, WorkResult], int, int, str]:
        """Drive the transport until every item has a result.

        Returns ``(results by job index, steals, workers used, transport
        name)``.  Items go out in :func:`_dispatch_order`; each steal is
        journaled (``job.stolen``) as the stolen item is dispatched.
        Fail-fast stops collecting at the first exhausted job and cancels
        queued work.  A pool that cannot start (or dies mid-run) degrades
        to inline execution for the uncollected remainder — result-
        identical, re-executing only what never came back.
        """
        session = tele.current()
        transport = self._make_transport(len(items))
        workers_used = min(transport.slots, len(items))
        transport_name = transport.name
        results: Dict[int, WorkResult] = {}
        stolen = 0

        def feed():
            nonlocal stolen
            for item, thief in _dispatch_order(items, transport.slots):
                if thief is not None:
                    stolen += 1
                    if writer is not None:
                        writer.emit(
                            "job.stolen",
                            job=item.job.job_id,
                            from_shard=item.shard,
                            by_shard=thief,
                        )
                yield item

        def collect(stream) -> bool:
            """Record results as they arrive; True once fail-fast trips."""
            for result in stream:
                results[result.index] = result
                if session is not None and result.spans:
                    session.tracer.absorb(
                        result.spans,
                        parent_id=pool_span.span_id,
                        offset_s=pool_span.t_start,
                    )
                if session is not None and result.metrics:
                    session.metrics.merge(result.metrics)
                if result.error is not None and not self.keep_going:
                    return True
            return False

        with tele.span(
            "campaign.pool",
            transport=transport_name,
            workers=workers_used,
            jobs=len(items),
        ) as pool_span:
            # Anything that escapes collection cancels the queued work.
            stop, broken = True, False
            try:
                stop = collect(transport.map(feed()))
            except (OSError, ImportError, BrokenExecutor):
                if isinstance(transport, InlineTransport):
                    raise
                broken = True
            finally:
                transport.close(cancel=stop)
            if broken:
                leftovers = [item for item in items if item.index not in results]
                if not results:
                    # The pool never delivered: the whole run was inline.
                    workers_used, transport_name = 1, InlineTransport.name
                elif tele.active():
                    tele.count(
                        "tgi_campaign_pool_fallback_total",
                        resumed_jobs=len(leftovers),
                    )
                inline = InlineTransport(cache=self.cache)
                collect(inline.map(leftovers))
        return results, stolen, workers_used, transport_name
