"""Campaign execution mechanics: keyed jobs in, contained results out.

The campaign executor is :class:`~repro.campaign.scheduler.ShardedCampaignScheduler`,
also exported from this module as :class:`CampaignRunner`.  It decides
*what* runs *when*: keying, cache probes, sharding, work stealing, crash
resume and failure policy.  This module holds what it shares with every
process that executes a job:

1. :func:`_attempt_job` — one job under a containment boundary, with
   seeded-backoff retries, journaling and timeline capture;
2. :class:`WorkItem` and :func:`execute_work_item` — a self-contained
   keyed job and the probe → attempt → publish path it takes in whichever
   process runs it;
3. the :class:`WorkerTransport` implementations — :class:`InlineTransport`
   and :class:`ProcessPoolTransport`, whose one worker shim binds the
   journal, telemetry and timeline slots of :mod:`repro.ambient` in each
   pool process;
4. :class:`JobOutcome`, :class:`CampaignResult` and :func:`build_manifest`
   — a run's outcomes, in submission order, and its machine-readable
   manifest (see :mod:`repro.campaign.manifest`).

Ordering is part of the contract: outcomes and manifest rows follow job
submission order, never completion order, so parallel runs are manifest-
identical to serial runs modulo the volatile timing fields.

Failure containment
-------------------
Each job attempt executes under a try/except boundary in every process
that runs it: an exception fails *that job*, never the campaign.  A
failed job's outcome carries ``status="failed"`` and a structured ``error``
(exception type, message, truncated traceback).  ``retries`` re-attempts a
failed job with seeded exponential backoff; a success on retry yields the
same payload a clean run would (each attempt executes with a freshly
seeded executor), so caching stays sound.  The failure *policy* is the
executor's: ``keep_going=False`` (default) raises
:class:`~repro.exceptions.CampaignExecutionError` once a job exhausts its
retries; ``keep_going=True`` finishes the surviving jobs and returns a
result whose manifest records the damage — the input to the partial-TGI
path (see :mod:`repro.core.tgi`).

When a telemetry session is active (:mod:`repro.telemetry`) each job's
lifecycle is traced — ``job.serialize`` → ``job.cache_probe`` →
``job.execute`` (one span per attempt) → ``job.store`` — and jobs,
failures, retries, and cache behaviour are counted into the metrics
registry.  Pool workers collect spans and metrics in their own process and
ship them back beside the payload; the parent absorbs worker spans under
its ``campaign.pool`` span and merges worker metric state.  Telemetry never
touches payloads, cache keys, or manifest fingerprints: runs are
byte-identical with telemetry on or off.

Flight recorder
---------------
``journal=`` arms the append-only run journal (:mod:`repro.journal`): the
parent records the run lifecycle, schedule, and cache hits; whichever
process executes a job appends its attempt-level events (start, contained
failure, retry, completion with ``getrusage`` CPU/RSS accounting) and the
fault injector's ``fault.injected`` events to the *same* file via atomic
``O_APPEND`` line writes, so ``tgi watch`` can follow an in-flight
campaign from another process.  The journal reaches that code one way
only: as the ambient binding (:mod:`repro.ambient`), which the scheduler
sets for the run and each pool worker sets for its job.  The manifest
records the journal's path, run id, and content digest as a volatile
block — like telemetry, journaling never changes payloads or
fingerprints.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import ambient
from .. import journal as jrnl
from .. import telemetry as tele
from .. import timeline as tline
from ..benchmarks.runner import SweepResult
from ..benchmarks.suite import SuiteResult
from ..exceptions import ReproError
from ..rng import child_rng
from .cache import ResultCache, cache_key
from .jobs import CampaignJob, execute_job, job_to_dict, payload_sweep
from .manifest import MANIFEST_VERSION, manifest_fingerprint, write_manifest

__all__ = [
    "JobOutcome",
    "CampaignResult",
    "CampaignRunner",
    "run_cache_stats",
    "check_jobs",
    "build_manifest",
    "WorkItem",
    "WorkResult",
    "execute_work_item",
    "WorkerTransport",
    "InlineTransport",
    "ProcessPoolTransport",
    "TRACEBACK_LIMIT_CHARS",
]


def __getattr__(name: str):
    # ``CampaignRunner`` is the scheduler class.  The scheduler module
    # imports this one, so the alias resolves on first access instead of
    # at import time.
    if name == "CampaignRunner":
        from .scheduler import ShardedCampaignScheduler

        return ShardedCampaignScheduler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Cache statuses a job outcome can carry.
CACHE_STATUSES = ("hit", "computed", "uncached", "failed")

#: Structured-error tracebacks are tail-truncated to this many characters
#: (the tail names the raising frame; the head is usually pool plumbing).
TRACEBACK_LIMIT_CHARS = 4000


def _error_info(exc: BaseException) -> Dict[str, str]:
    """Structured record of a contained job failure."""
    tb = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )
    if len(tb) > TRACEBACK_LIMIT_CHARS:
        tb = "...(truncated)...\n" + tb[-TRACEBACK_LIMIT_CHARS:]
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": tb,
    }


def _retry_delay(base_s: float, attempt: int, seed: int, scope: str) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of one job.

    Seeded exponential backoff with jitter: ``base * 2**(attempt-1)``
    scaled by a uniform factor in ``[0.5, 1.5)`` drawn from a named stream,
    so a retrying fleet does not thunder in lockstep yet tests can pin the
    exact delays.  A non-positive base disables waiting entirely.
    """
    if base_s <= 0.0:
        return 0.0
    jitter = float(child_rng(seed, f"retry:{scope}:{attempt}").uniform(0.5, 1.5))
    return base_s * (2.0 ** (attempt - 1)) * jitter


#: Journal error messages are clipped to this length (tracebacks live in
#: the outcome's structured error, not in the event stream).
_JOURNAL_MESSAGE_LIMIT = 500


def check_jobs(jobs: Sequence[CampaignJob]) -> List[CampaignJob]:
    """Validate a campaign's job list (non-empty, unique ids); returns it."""
    jobs = list(jobs)
    if not jobs:
        raise ReproError("campaign needs at least one job")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ReproError(f"duplicate job ids in campaign: {dupes}")
    return jobs


def _attempt_job(
    job: CampaignJob,
    *,
    retries: int = 0,
    backoff_s: float = 0.0,
    backoff_seed: int = 0,
    timeline_dir: Optional[Path] = None,
) -> Tuple[Optional[Dict], Optional[Dict], int, float]:
    """Run one job with containment and retries.

    Returns ``(payload, error, attempts, wall_s)`` — exactly one of
    ``payload``/``error`` is non-``None``.  ``wall_s`` sums the execution
    time of every attempt and excludes backoff sleeps, so it reflects work
    done, not policy.  ``KeyboardInterrupt`` (and other non-``Exception``
    escapes) propagate: containment is for job failures, not for the
    operator's ctrl-C.

    When a journal writer is bound (:mod:`repro.ambient`), every attempt's
    lifecycle lands in it — start, contained failure, retry decision (with
    the chosen backoff), and the terminal completed/failed event carrying
    the ``getrusage`` CPU/RSS accounting of the executing process.

    With ``timeline_dir`` set, each attempt arms the ambient power-
    timeline sink (:mod:`repro.timeline`) around the execution; the
    *successful* attempt's captured run timelines are summarized into
    ``<timeline_dir>/<job_id>.timeline.json`` (atomic write), and a
    ``timeline.captured`` pointer event lands in the journal.  Failed
    attempts discard their partial captures.
    """
    error: Optional[Dict] = None
    wall = 0.0
    ru_start = jrnl.rusage_fields() if jrnl.journaling() else None
    for attempt in range(retries + 1):
        if attempt:
            delay = _retry_delay(backoff_s, attempt, backoff_seed, job.job_id)
            jrnl.emit("job.retried", job=job.job_id, attempt=attempt, delay_s=delay)
            if delay > 0.0:
                time.sleep(delay)
        jrnl.emit("job.started", job=job.job_id, attempt=attempt)
        t0 = time.perf_counter()
        try:
            with tele.span("job.execute", job=job.job_id, attempt=attempt):
                if timeline_dir is not None:
                    with tline.collecting() as captured:
                        payload = execute_job(job, attempt=attempt)
                else:
                    captured = []
                    payload = execute_job(job, attempt=attempt)
            wall += time.perf_counter() - t0
            if timeline_dir is not None and captured:
                artifact = tline.write_job_artifact(
                    timeline_dir, job_id=job.job_id, timelines=captured
                )
                jrnl.emit(
                    "timeline.captured",
                    job=job.job_id,
                    path=str(artifact),
                    runs=len(captured),
                    energy_j=float(sum(tl.true_energy_j for tl in captured)),
                )
            if jrnl.journaling():
                jrnl.emit(
                    "job.completed",
                    job=job.job_id,
                    attempts=attempt + 1,
                    wall_s=wall,
                    **jrnl.rusage_delta(ru_start),
                )
            return payload, None, attempt + 1, wall
        except Exception as exc:  # containment boundary — one job, not the run
            attempt_wall = time.perf_counter() - t0
            wall += attempt_wall
            error = _error_info(exc)
            jrnl.emit(
                "job.attempt_failed",
                job=job.job_id,
                attempt=attempt,
                error_type=error["type"],
                error_message=error["message"][:_JOURNAL_MESSAGE_LIMIT],
                wall_s=attempt_wall,
            )
    jrnl.emit(
        "job.failed",
        job=job.job_id,
        attempts=retries + 1,
        error_type=error["type"],
        error_message=error["message"][:_JOURNAL_MESSAGE_LIMIT],
    )
    return None, error, retries + 1, wall


def run_cache_stats(
    statuses: Sequence[str],
    *,
    executions: Optional[Sequence[int]] = None,
    invalidations: int = 0,
) -> Dict[str, float]:
    """Run-level cache accounting from per-job cache statuses.

    The single source for ``CampaignResult.cache_stats``, the manifest's
    ``cache_run`` block, and the CLI summary.  Accounting is per
    *attempt*, not per job: ``hits`` are probe hits, ``misses`` are
    executed attempts (a job that succeeded on its third attempt was three
    misses of work, not one), so ``hits + misses == attempts`` holds by
    construction.  ``executions`` carries the per-job execution counts
    aligned with ``statuses``; omitted, every non-hit job is assumed to
    have executed exactly once (the retry-free behaviour).
    """
    jobs = len(statuses)
    hits = sum(1 for s in statuses if s == "hit")
    if executions is None:
        misses = jobs - hits
    else:
        if len(executions) != jobs:
            raise ReproError(
                f"executions has {len(executions)} entries for {jobs} statuses"
            )
        misses = int(sum(executions))
    attempts = hits + misses
    return {
        "jobs": jobs,
        "attempts": attempts,
        "hits": hits,
        "misses": misses,
        "invalidations": invalidations,
        "hit_rate": hits / attempts if attempts else 0.0,
    }


@dataclass(frozen=True)
class JobOutcome:
    """One job's result plus its execution record.

    ``status`` is ``"ok"`` or ``"failed"``; a failed outcome has
    ``payload=None`` and a structured ``error`` dict (``type``,
    ``message``, ``traceback``).  ``attempts`` counts executions of the
    job this run (0 for a cache hit — nothing executed).
    """

    job: CampaignJob
    key: str
    payload: Optional[Dict]
    cache_status: str  # one of CACHE_STATUSES
    wall_s: float
    status: str = "ok"
    error: Optional[Dict] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether the job produced a payload."""
        return self.status == "ok"

    @property
    def retries(self) -> int:
        """Executions beyond the first (0 when the job ran once or was cached)."""
        return max(0, self.attempts - 1)

    @property
    def sweep(self) -> SweepResult:
        """The job's results as a live sweep object."""
        if self.payload is None:
            error = self.error or {}
            raise ReproError(
                f"job {self.job.job_id!r} failed after {self.attempts} attempt(s) "
                f"({error.get('type', 'unknown')}: {error.get('message', '')}); "
                "no sweep to rebuild"
            )
        return payload_sweep(self.payload)


class CampaignResult:
    """All outcomes of one campaign run, in submission order."""

    def __init__(self, outcomes: Sequence[JobOutcome], manifest: Dict):
        self.outcomes: List[JobOutcome] = list(outcomes)
        self.manifest = manifest
        self._by_id = {o.job.job_id: o for o in self.outcomes}

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, job_id: str) -> JobOutcome:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise KeyError(
                f"no job {job_id!r} in campaign; ran {sorted(self._by_id)}"
            ) from None

    def sweep(self, job_id: str) -> SweepResult:
        """One job's results as a sweep."""
        return self[job_id].sweep

    def suite(self, job_id: str) -> SuiteResult:
        """A single-point job's suite result."""
        sweep = self.sweep(job_id)
        if len(sweep) != 1:
            raise ReproError(
                f"job {job_id!r} has {len(sweep)} scale points; use sweep()"
            )
        return sweep.suites[0]

    @property
    def succeeded(self) -> List[JobOutcome]:
        """Outcomes that produced payloads, in submission order."""
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[JobOutcome]:
        """Outcomes that exhausted their retries, in submission order."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        """Whether every job produced a payload."""
        return not self.failed

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Run-level cache accounting (jobs/attempts/hits/misses/...).

        Enforces the accounting invariant: probe hits plus executed
        attempts account for every attempt — a books-must-balance check
        on the retry/cache interplay.
        """
        stats = dict(self.manifest["cache_run"])
        assert stats["hits"] + stats["misses"] == stats["attempts"], (
            f"cache accounting out of balance: {stats['hits']} hits + "
            f"{stats['misses']} misses != {stats['attempts']} attempts"
        )
        return stats

    @property
    def cache_hits(self) -> int:
        """Jobs satisfied from the cache."""
        return int(self.cache_stats["hits"])

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs satisfied from the cache."""
        return float(self.cache_stats["hit_rate"])

    def write_manifest(self, path) -> None:
        """Persist the manifest as JSON."""
        write_manifest(self.manifest, path)


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit: a keyed job plus everything a worker needs.

    Self-contained and picklable by design — a transport may hand it to
    another process (or, later, another host), so it carries *paths* to
    the shared journal and cache, never live handles.
    """

    index: int  # position in the campaign's job list (ordering contract)
    shard: int  # shard the plan assigned it to (pre-steal)
    job: CampaignJob
    key: str
    retries: int = 0
    backoff_s: float = 0.0
    backoff_seed: int = 0
    with_telemetry: bool = False
    journal_path: Optional[str] = None
    run_id: Optional[str] = None
    timeline_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    code_version: Optional[str] = None


@dataclass
class WorkResult:
    """What came back for one :class:`WorkItem`."""

    index: int
    shard: int
    payload: Optional[Dict]
    error: Optional[Dict]
    attempts: int
    wall_s: float
    cache_status: str  # "hit" / "computed" / "uncached" / "failed"
    spans: Optional[List[Dict]] = None
    metrics: Optional[Dict] = None
    cache_stats: Optional[Dict] = None  # per-item deltas from a worker-side cache


def execute_work_item(
    item: WorkItem, *, cache: Optional[ResultCache] = None
) -> WorkResult:
    """Probe → execute (contained, with retries) → publish, for one item.

    The single execution path every transport funnels through.  The
    scheduler's pre-dispatch probe already counted this key's lookup, so
    the executing process re-checks the shared cache with the uncounted
    :meth:`~repro.campaign.cache.ResultCache.peek` — another worker,
    shard, or concurrent campaign may have published the key since.  On
    success the payload is published to the shared cache *from the
    executing process* (atomic rename; unique staging name), and only then
    does the ``job.stored`` event land — so a journal that contains
    ``job.stored`` implies a durable cache entry, which is exactly the
    order crash resume relies on.  Events go to the ambient journal writer
    (:mod:`repro.ambient`), which the executing process has bound.
    """
    t0 = time.perf_counter()
    if cache is not None:
        cached = cache.peek(item.key)
        if cached is not None:
            jrnl.emit("job.cache_hit", job=item.job.job_id, key=item.key, attempt=0)
            return WorkResult(
                index=item.index,
                shard=item.shard,
                payload=cached,
                error=None,
                attempts=0,
                wall_s=time.perf_counter() - t0,
                cache_status="hit",
            )
    timeline_dir = Path(item.timeline_dir) if item.timeline_dir is not None else None
    payload, error, attempts, wall = _attempt_job(
        item.job,
        retries=item.retries,
        backoff_s=item.backoff_s,
        backoff_seed=item.backoff_seed,
        timeline_dir=timeline_dir,
    )
    if error is not None:
        return WorkResult(
            index=item.index,
            shard=item.shard,
            payload=None,
            error=error,
            attempts=attempts,
            wall_s=wall,
            cache_status="failed",
        )
    status = "uncached"
    if cache is not None:
        with tele.span("job.store", job=item.job.job_id, skipped=False):
            cache.put(item.key, payload)
        jrnl.emit("job.stored", job=item.job.job_id, key=item.key)
        status = "computed"
    return WorkResult(
        index=item.index,
        shard=item.shard,
        payload=payload,
        error=None,
        attempts=attempts,
        wall_s=wall,
        cache_status=status,
    )


#: Jobs this worker process has finished — heartbeat payload (survives
#: across items into one reused pool worker).
_WORKER_JOBS_DONE = 0


def _pool_worker(item: WorkItem) -> WorkResult:
    """Pool-side shim: rebuild per-process handles, run one item.

    The one place a pool worker binds observability, in one
    :func:`repro.ambient.bound` call that replaces whatever the fork
    inherited: its *own* ``O_APPEND`` handle on the shared journal (same
    run id), a fresh telemetry session when the parent collects one, and
    no timeline sink (per-job timeline artifacts arm their own).  It also
    opens its own view of the shared cache directory, emits a pickup
    heartbeat, and ships finished telemetry spans/metric state plus its
    cache-stat deltas back with the result.  Journal events do *not* ship
    back: appending directly is what makes ``tgi watch`` live rather than
    end-of-run.
    """
    global _WORKER_JOBS_DONE
    journal = None
    if item.journal_path is not None:
        journal = jrnl.JournalWriter(
            item.journal_path, run_id=item.run_id, process=f"worker-{os.getpid()}"
        )
        journal.emit(
            "worker.heartbeat", jobs_done=_WORKER_JOBS_DONE, **jrnl.rusage_fields()
        )
    session = None
    if item.with_telemetry:
        session = tele.TelemetrySession(
            label=f"worker:{item.job.job_id}", process=f"worker-{os.getpid()}"
        )
    cache = None
    if item.cache_dir is not None:
        cache = ResultCache(item.cache_dir, code_version=item.code_version)
    try:
        with ambient.bound(session=session, journal=journal, sink=None):
            result = execute_work_item(item, cache=cache)
        if session is not None:
            result.spans = session.tracer.as_dicts()
            result.metrics = session.metrics.state()
        if cache is not None:
            result.cache_stats = {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "invalidations": cache.stats.invalidations,
                "puts": cache.stats.puts,
            }
        return result
    finally:
        if journal is not None:
            _WORKER_JOBS_DONE += 1
            journal.close()


class WorkerTransport:
    """Where work items execute: the multi-host seam.

    A transport owns ``slots`` worker slots and turns a stream of
    :class:`WorkItem`\\ s into a stream of :class:`WorkResult`\\ s with
    :meth:`map`.  The scheduler decides the order items go out in (shard
    affinity, stealing) and the policy (fail-fast, fallback), so a
    transport implements mechanics only.  Implementations today run
    inline or on a local process pool; a multi-host transport needs
    nothing beyond this interface because items carry paths (shared
    journal, shared cache), never live handles.
    """

    name = "abstract"
    slots = 1

    def map(self, items: Iterable[WorkItem]) -> Iterator[WorkResult]:
        """Execute ``items``, yielding one result per item, in any order.

        Raising an ``OSError``, ``ImportError`` or ``BrokenExecutor``
        (other than from :class:`InlineTransport`) makes the scheduler
        finish the uncollected items inline.
        """
        raise NotImplementedError

    def close(self, *, cancel: bool = False) -> None:
        """Release resources; ``cancel`` abandons queued work (fail-fast)."""


class InlineTransport(WorkerTransport):
    """Executes items one at a time in the scheduling process.

    Used for ``workers=1``, single-job campaigns, and as the degradation
    target when a process pool cannot start or dies mid-run (result-
    identical by construction).  Items run lazily, one per result the
    scheduler pulls, so fail-fast dispatches nothing past the first
    exhausted job.  They run against the *live* cache and the scheduling
    process's ambient bindings, so journal events, telemetry spans and
    timelines land directly where the scheduler bound them and cache
    stats accrue in place — no shipping needed.
    """

    name = "inline"
    slots = 1

    def __init__(self, *, cache: Optional[ResultCache] = None):
        self.cache = cache

    def map(self, items: Iterable[WorkItem]) -> Iterator[WorkResult]:
        for item in items:
            yield execute_work_item(item, cache=self.cache)


class ProcessPoolTransport(WorkerTransport):
    """Executes items on a local ``ProcessPoolExecutor``.

    ``map`` queues every item at once and yields results in queue order;
    the pool's shared queue hands each free worker the next item, which
    absorbs skewed job durations.  Pool-level failures (a pool that cannot
    start, ``BrokenExecutor`` mid-run) propagate to the scheduler, which
    re-runs the uncollected items inline.
    """

    name = "process-pool"

    def __init__(self, workers: int):
        if workers < 1:
            raise ReproError(f"transport workers must be >= 1, got {workers}")
        self.workers = workers
        self.slots = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def map(self, items: Iterable[WorkItem]) -> Iterator[WorkResult]:
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool.map(_pool_worker, items)

    def close(self, *, cancel: bool = False) -> None:
        if self._pool is not None:
            # Waits for in-flight items, so no worker appends to the
            # journal after the run has been finalized.
            self._pool.shutdown(cancel_futures=cancel)
            self._pool = None


def build_manifest(
    *,
    label: str,
    outcomes: Sequence[JobOutcome],
    total_wall: float,
    workers_requested: int,
    workers_used: int,
    cache: Optional[ResultCache],
    retries_allowed: int,
    keep_going: bool,
    invalidations: int,
    journal_info: Optional[Dict] = None,
    timeline_info: Optional[Dict] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """Assemble (and fingerprint) the run manifest from job outcomes.

    ``extra`` merges additional top-level blocks (e.g. the scheduler's
    ``sharding`` block); every extra key must be listed in
    :data:`repro.campaign.manifest.VOLATILE_CAMPAIGN_FIELDS`, keeping
    fingerprints invariant across how a campaign was sharded, resumed or
    dispatched.
    """
    from .. import __version__
    from .manifest import VOLATILE_CAMPAIGN_FIELDS

    session = tele.current()
    jobs_failed = sum(1 for o in outcomes if not o.ok)
    retries_total = sum(o.retries for o in outcomes)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "label": label,
        "code_version": cache.code_version if cache is not None else __version__,
        "created_unix": time.time(),
        "total_wall_s": total_wall,
        "workers_requested": workers_requested,
        "workers_used": workers_used,
        "cache_enabled": cache is not None,
        "cache": cache.cache_stats if cache is not None else None,
        "cache_run": run_cache_stats(
            [o.cache_status for o in outcomes],
            executions=[o.attempts for o in outcomes],
            invalidations=invalidations,
        ),
        # Failure accounting; volatile because a warm cache changes how
        # many executions (and hence retries) actually happened.
        "failures": {
            "jobs_failed": jobs_failed,
            "jobs_retried": sum(1 for o in outcomes if o.retries),
            "retries_total": retries_total,
            "retries_allowed": retries_allowed,
            "keep_going": keep_going,
        },
        # Volatile flight-recorder block: where the journal landed,
        # how many events it holds, and its content digest.  Excluded
        # from the fingerprint — journaled and bare runs of the same
        # jobs are fingerprint-identical.
        "journal": journal_info,
        # Volatile power-timeline block: where per-job artifacts
        # landed and how many.  Excluded from the fingerprint — runs
        # with and without timeline capture are fingerprint-identical.
        "timeline": timeline_info,
        # Volatile observability summary; the full export is written by
        # the CLI beside the manifest.  Excluded from the fingerprint.
        "telemetry": None
        if session is None
        else {
            "session": session.label,
            "span_count": len(session.tracer.spans),
            "span_names": sorted({s.name for s in session.tracer.spans}),
            "metric_names": sorted(session.metrics.as_dict()),
        },
        "jobs": [
            {
                "job_id": o.job.job_id,
                "key": o.key,
                "status": o.status,
                "payload_sha256": cache_key(o.payload) if o.ok else None,
                "cluster_name": o.payload["cluster_name"] if o.ok else None,
                "core_counts": list(o.job.core_counts),
                "spec": job_to_dict(o.job),
                "cache_status": o.cache_status,
                "wall_s": o.wall_s,
                "attempts": o.attempts,
                "error": o.error,
            }
            for o in outcomes
        ],
    }
    if extra:
        rogue = sorted(set(extra) - set(VOLATILE_CAMPAIGN_FIELDS))
        if rogue:
            raise ReproError(
                f"extra manifest block(s) {rogue} are not fingerprint-volatile; "
                "add them to VOLATILE_CAMPAIGN_FIELDS or drop them"
            )
        manifest.update(extra)
    manifest["fingerprint"] = manifest_fingerprint(manifest)
    return manifest
