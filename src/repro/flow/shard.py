"""Sharded map-reduce sweeps: the parallel path of the batch layer.

Following the map-reduce decomposition of parallel controller synthesis
(Alimguzhin et al., arXiv:1210.2276), a sweep here is three explicit
stages, with exactly one map path and one reduce path:

**plan**
    :class:`ShardPlanner` partitions the suite into shards
    *deterministically by content fingerprint*: a job's shard depends
    only on what the job computes (design, architecture, engine, knobs),
    never on its position in the suite or the worker count of the run.
    Every shard records the fingerprints of its members, so the reduce
    stage can verify that what came back is what was planned.

**map**
    Each shard runs in a worker process of a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  A job crosses
    the boundary as submitted: a :class:`JobPayload` is the
    :class:`~repro.flow.batch.FlowJob` itself plus its suite index,
    compact when the design is a :class:`~repro.workloads.WorkloadSpec`
    whose graph is built in-worker.  Each worker process owns one
    :class:`~repro.flow.pipeline.StageCache`, initialized once and
    reused across every shard it executes.  With ``store_path=`` that
    cache becomes the L1 tier over a shared persistent store
    (:mod:`repro.store`), so workers warm-start from previous runs and
    share stage results with each other through the disk.  Jobs run
    through the same code path as the serial backend; workers return
    one :class:`JobSummary` per job (a
    :class:`~repro.flow.batch.DesignPoint` or an error, plus the job's
    seconds) and the shard's cache window, never fat flow artifacts.

**reduce**
    Per-shard outcomes are verified against the plan (tampered, stale
    or incomplete shard results raise :class:`ShardError`), reassembled
    into suite order, and their stage-cache windows and timings are
    merged into one sweep-wide view.  The result is bit-identical to
    the ``"serial"`` backend -- same outcomes, same Pareto front, same
    ranking order -- for any shard count and any order in which the
    shards complete.

Entry points: ``BatchRunner(backend="shard", shards=...)`` for the
streaming job API, :func:`map_reduce_sweep` for the one-call sweep that
returns a :class:`SweepResult`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..fingerprint import content_hash
from ..obs import Tracer, activate, current_tracer
from ..obs import span as obs_span
from ..store import ArtifactStore, PersistentCache, TieredCache
from .batch import (DesignPoint, ExplorationResult, FlowJob, JobOutcome,
                    ProgressCallback, _check_sweep_args, _guarded,
                    _run_outcome, design_point_of, payload_check)
from .pipeline import CacheTier, StageCache

__all__ = ["ShardError", "JobPayload", "JobSummary", "Shard",
           "ShardPlanner", "ShardOutcome", "ShardSweepStats", "SweepResult",
           "run_shard", "reduce_shards", "sharded_sweep", "map_reduce_sweep",
           "DEFAULT_WORKER_CACHE_ENTRIES"]

#: Capacity of the per-worker-process stage cache (entries, not bytes).
DEFAULT_WORKER_CACHE_ENTRIES = 2048


class ShardError(RuntimeError):
    """Raised when shard results cannot be soundly reduced: a shard
    outcome that does not match the plan (tampered/stale), covers the
    wrong jobs, or arrives for a shard that was never planned."""


# ----------------------------------------------------------------------
# payloads: what crosses the process boundary on the way in
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobPayload:
    """One sweep job as it crosses the process boundary.

    ``job`` is the submitted :class:`FlowJob` itself, which must already
    have passed :func:`~repro.flow.batch.payload_check`: spec-based
    designs are built inside the worker, and the worker runs the job
    through the serial backend's code path (bit-identical by
    construction).  ``index`` pins the job's position in the suite so
    the reduce stage can restore input order; neither it nor the job's
    label participates in the fingerprint.
    """

    index: int
    job: FlowJob

    def fingerprint(self) -> str:
        """Content hash of what the job *computes* (not where it sits).

        Shard assignment keys on this, so a design keeps its shard when
        the suite is reordered or extended -- and so the reduce stage
        can detect a shard outcome that answers a different plan.
        """
        job = self.job
        design = job.workload.fingerprint() if job.workload is not None \
            else job.graph.fingerprint()
        engine = job.partitioner.fingerprint() \
            if job.partitioner is not None else None
        stimuli = tuple(sorted((name, tuple(values))
                               for name, values in job.stimuli.items())) \
            if job.stimuli is not None else None
        return content_hash(("job", design, job.arch.fingerprint(), engine,
                             job.deadline, stimuli, job.reuse_memory,
                             job.allow_direct_comm))


def payload_of(job: FlowJob, index: int) -> JobPayload:
    """The shard payload of the suite's ``index``-th job."""
    return JobPayload(index=index, job=job)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One planned unit of map work: an ordered slice of the suite."""

    index: int
    payloads: tuple[JobPayload, ...]

    @property
    def job_indices(self) -> tuple[int, ...]:
        return tuple(p.index for p in self.payloads)

    def fingerprint(self) -> str:
        """Hash of the member fingerprints *in order* -- the contract a
        worker's :class:`ShardOutcome` must echo to be reducible."""
        return content_hash(("shard", self.index,
                             tuple(p.fingerprint() for p in self.payloads)))


class ShardPlanner:
    """Deterministic suite partitioner: content fingerprint -> shard.

    ``assign`` buckets a payload by its fingerprint modulo the shard
    count, so the plan is a pure function of (suite content, shard
    count): independent of suite order and worker count.
    Within a shard, jobs keep suite order -- together with the
    restore-by-index reduce this is what makes the sharded sweep
    bit-identical to the serial backend.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ShardError(f"need shards >= 1, got {shards}")
        self.shards = shards

    def assign(self, payload: JobPayload) -> int:
        return int(payload.fingerprint(), 16) % self.shards

    def plan(self, payloads: Sequence[JobPayload]) -> list[Shard]:
        """Partition ``payloads`` into at most ``shards`` non-empty shards."""
        buckets: list[list[JobPayload]] = [[] for _ in range(self.shards)]
        for payload in sorted(payloads, key=lambda p: p.index):
            buckets[self.assign(payload)].append(payload)
        return [Shard(i, tuple(bucket))
                for i, bucket in enumerate(buckets) if bucket]


# ----------------------------------------------------------------------
# map: what crosses the process boundary on the way back
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSummary:
    """Compact result of one job, as shipped back by a shard worker.

    ``point`` is the ranked projection (None for failed jobs).  Nothing
    here references flow artifacts, so a summary pickles in a few
    hundred bytes.
    """

    index: int
    point: DesignPoint | None
    error: str | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ShardOutcome:
    """Everything one worker returns for one shard.

    Echoes the shard's planned fingerprint and job coverage so the
    reduce stage can verify integrity, and carries the shard-window
    view of the worker's cache (a :meth:`StageCache.stats` delta) plus
    the in-worker wall clock.  ``cache_stats["cold_fallbacks"]`` is 1
    when the worker's cache was fabricated on first use because the
    pool initializer never ran: the shard executed against a cold
    default-size L1 with no persistent tier.
    """

    shard_index: int
    fingerprint: str
    summaries: tuple[JobSummary, ...]
    seconds: float
    cache_stats: dict
    pid: int
    #: Compact in-worker trace rows (:meth:`repro.obs.Tracer.compact`):
    #: the job/flow/stage/store spans this shard recorded inside its
    #: worker process.  Empty unless the coordinator requested tracing
    #: (``run_shard(..., trace=True)``); the coordinator re-parents the
    #: rows into its own trace under a per-shard span.
    spans: tuple = ()


#: Per-process state of a shard worker: one cache tier, initialized
#: once per process and shared by every shard the process executes.
#: With a ``store_path`` the tier is an L1 memory cache over the shared
#: on-disk L2, so workers warm-start from every previous run.
_WORKER_CACHE: CacheTier | None = None
#: True when :func:`_worker_cache` had to fabricate the cache itself
#: (the initializer never ran); every outcome of the worker counts it
#: as ``cold_fallbacks`` in its cache stats.
_WORKER_CACHE_FALLBACK = False


def _build_worker_cache(max_entries: int,
                        store_path: str | None = None) -> CacheTier:
    l1 = StageCache(max_entries=max_entries)
    if store_path is None:
        return l1
    return TieredCache(l1, PersistentCache(ArtifactStore(store_path)))


def _init_worker(max_entries: int, store_path: str | None = None) -> None:
    global _WORKER_CACHE, _WORKER_CACHE_FALLBACK
    _WORKER_CACHE = _build_worker_cache(max_entries, store_path)
    _WORKER_CACHE_FALLBACK = False


def _worker_cache() -> CacheTier:
    global _WORKER_CACHE, _WORKER_CACHE_FALLBACK
    if _WORKER_CACHE is None:
        # the initializer never ran (direct in-process call, or a pool
        # that skipped it): run against a cold default-size cache, but
        # record the fallback -- every ShardOutcome of this process
        # counts it in ``cold_fallbacks`` so the reduce stage can
        # surface that its shards saw neither warm state nor the store.
        _WORKER_CACHE = StageCache(max_entries=DEFAULT_WORKER_CACHE_ENTRIES)
        _WORKER_CACHE_FALLBACK = True
    return _WORKER_CACHE


def run_shard(shard: Shard,
              job_timeout: float | None = None,
              trace: bool = False) -> ShardOutcome:
    """Execute one shard against the worker-local cache (the map body).

    Jobs run through the same :func:`~repro.flow.batch._run_outcome`
    path as the serial backend, ``job_timeout`` rule included; only the
    compact summary leaves the worker.

    With ``trace=True`` (set by the coordinator when *it* is tracing) a
    worker-local :class:`~repro.obs.Tracer` is active for the duration
    of the shard: every job span -- and the flow/stage/store spans
    nested inside it -- is recorded in-worker and shipped back as
    compact rows in ``ShardOutcome.spans`` for re-parenting.
    """
    tracer = Tracer() if trace else None
    cache = _worker_cache()
    window = cache.snapshot()
    started = time.perf_counter()
    summaries: list[JobSummary] = []
    with activate(tracer) if trace else nullcontext():
        for payload in shard.payloads:
            job = payload.job
            outcome = _run_outcome(job, cache, job_timeout)
            point = design_point_of(outcome.result, job.name, job.deadline) \
                if outcome.ok else None
            summaries.append(JobSummary(index=payload.index, point=point,
                                        error=outcome.error,
                                        seconds=outcome.seconds))
    cache_stats = cache.stats(since=window)
    # rides through the numeric merge of StageCache.merge_stats, so the
    # sweep-wide view counts how many shards ran on a fallback cache
    cache_stats["cold_fallbacks"] = int(_WORKER_CACHE_FALLBACK)
    return ShardOutcome(shard_index=shard.index,
                        fingerprint=shard.fingerprint(),
                        summaries=tuple(summaries),
                        seconds=time.perf_counter() - started,
                        cache_stats=cache_stats,
                        pid=os.getpid(),
                        spans=tracer.compact() if tracer is not None else ())


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------
def _check_shard_outcome(shard: Shard, outcome: ShardOutcome) -> None:
    """Verify one shard outcome against its plan entry (tamper guard)."""
    planned = shard.fingerprint()
    if outcome.fingerprint != planned:
        raise ShardError(
            f"shard {shard.index} outcome does not match the plan "
            f"(got fingerprint {outcome.fingerprint}, planned {planned}): "
            f"tampered or stale shard result")
    if tuple(s.index for s in outcome.summaries) != shard.job_indices:
        raise ShardError(
            f"shard {shard.index} outcome covers jobs "
            f"{[s.index for s in outcome.summaries]} but the plan assigns "
            f"{list(shard.job_indices)}: tampered or incomplete shard result")


def reduce_shards(plan: Sequence[Shard],
                  outcomes: Iterable[ShardOutcome],
                  failures: Mapping[int, str] | None = None,
                  ) -> tuple[dict[int, JobSummary], dict]:
    """Merge per-shard outcomes into suite-wide views (the reduce body).

    Every planned shard must be accounted for, either by a verified
    :class:`ShardOutcome` or by an entry in ``failures`` (worker died);
    anything else -- unknown shards, duplicates, fingerprint or coverage
    mismatches -- raises :class:`ShardError`.  Returns the summaries
    keyed by job index (failed shards synthesize failed summaries for
    their jobs) and the merged cache statistics.  The result does not
    depend on the order of ``outcomes``.
    """
    failures = dict(failures or {})
    by_index = {shard.index: shard for shard in plan}
    summaries: dict[int, JobSummary] = {}
    cache_views = []
    seen: set[int] = set()
    for outcome in outcomes:
        shard = by_index.get(outcome.shard_index)
        if shard is None:
            raise ShardError(f"outcome for unplanned shard "
                             f"{outcome.shard_index}")
        if outcome.shard_index in seen:
            raise ShardError(f"duplicate outcome for shard "
                             f"{outcome.shard_index}")
        seen.add(outcome.shard_index)
        _check_shard_outcome(shard, outcome)
        for summary in outcome.summaries:
            summaries[summary.index] = summary
        cache_views.append(outcome.cache_stats)
    for shard in plan:
        if shard.index in seen:
            continue
        error = failures.get(shard.index)
        if error is None:
            raise ShardError(f"planned shard {shard.index} produced no "
                             f"outcome and no recorded failure")
        for payload in shard.payloads:
            summaries[payload.index] = JobSummary(
                index=payload.index, point=None,
                error=f"ShardError: shard {shard.index} worker failed: "
                      f"{error}",
                seconds=0.0)
    return summaries, StageCache.merge_stats(cache_views)


@dataclass
class ShardSweepStats:
    """Map-reduce evidence of one sharded sweep."""

    #: Per-shard rows: index, jobs, in-worker seconds, worker pid and
    #: the shard-window cache view.
    shards: list[dict] = field(default_factory=list)
    #: Merged cache statistics across every shard window
    #: (:meth:`StageCache.merge_stats`).
    cache: dict = field(default_factory=dict)
    map_seconds: float = 0.0
    reduce_seconds: float = 0.0
    workers: int = 0
    planned_shards: int = 0


# ----------------------------------------------------------------------
# the sweep engine
# ----------------------------------------------------------------------
def sharded_sweep(jobs: Sequence[FlowJob], shards: int | None = None,
                  max_workers: int | None = None,
                  job_timeout: float | None = None,
                  progress: ProgressCallback | None = None,
                  store_path: str | os.PathLike | None = None,
                  ) -> tuple[list[JobOutcome], ShardSweepStats]:
    """Plan, map and reduce a sweep; outcomes come back in input order.

    Backs ``BatchRunner(backend="shard")``.  Jobs failing
    :func:`~repro.flow.batch.payload_check` become failed outcomes at
    submission time (never planned).  Progress streams per job, in
    shard completion order, behind the same failure guard as
    :meth:`~repro.flow.batch.BatchRunner.run`: a raising callback warns
    once and never aborts the sweep.

    ``store_path`` attaches a shared persistent L2 tier (see
    :mod:`repro.store`) under every worker's stage cache: workers of
    *this* run share each other's stage results through the store, and
    a later run -- any process, any shard count -- warm-starts from it.
    Results stay bit-identical to a storeless serial sweep; the merged
    ``stats.cache`` grows nested ``l1``/``l2`` views.

    ``shards`` and ``max_workers`` must be at least 1 and
    ``job_timeout`` positive when given (:class:`ValueError`).
    """
    _check_sweep_args(shards, max_workers, job_timeout)
    progress = _guarded(progress)
    jobs = list(jobs)
    total = len(jobs)
    with obs_span("sharded_sweep", kind="flow", backend="shard",
                  jobs=total) as sweep_span:
        outcomes: list[JobOutcome | None] = [None] * total
        done_count = 0

        def emit(index: int, outcome: JobOutcome) -> None:
            nonlocal done_count
            outcomes[index] = outcome
            done_count += 1
            if progress is not None:
                progress(outcome, done_count, total)

        # submission-time validation: un-shippable jobs fail fast, named
        payloads: list[JobPayload] = []
        for index, job in enumerate(jobs):
            error = payload_check(job)
            if error is not None:
                emit(index, JobOutcome(job, error=error))
            else:
                payloads.append(payload_of(job, index))

        n_shards = shards or max_workers or os.cpu_count() or 1
        plan = ShardPlanner(n_shards).plan(payloads)
        workers = max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(plan) or 1))
        stats = ShardSweepStats(workers=workers, planned_shards=len(plan))
        sweep_span.set("shards", stats.planned_shards)
        sweep_span.set("workers", stats.workers)

        shard_outcomes: list[ShardOutcome] = []
        failures: dict[int, str] = {}
        map_started = time.perf_counter()
        if plan:
            store_arg = None if store_path is None else os.fspath(store_path)
            # when the coordinator is tracing, workers trace too: each
            # shard records its spans locally and ships them back
            tracer = current_tracer()
            # run_shard is looked up in the module globals here, at
            # submission, so a wrapper installed before the sweep is what
            # the forked workers run
            with ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker,
                    initargs=(DEFAULT_WORKER_CACHE_ENTRIES,
                              store_arg)) as pool:
                shard_of = {pool.submit(run_shard, shard, job_timeout,
                                        tracer is not None): shard
                            for shard in plan}
                for future in as_completed(shard_of):
                    shard = shard_of[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:  # worker/pool death
                        failures[shard.index] = \
                            f"{type(exc).__name__}: {exc}"
                        continue
                    shard_outcomes.append(outcome)
                    if tracer is not None:
                        shard_span = tracer.record(
                            f"shard[{outcome.shard_index}]", kind="shard",
                            duration=outcome.seconds,
                            shard=outcome.shard_index,
                            jobs=len(outcome.summaries), pid=outcome.pid)
                        tracer.adopt(outcome.spans,
                                     parent_id=shard_span.span_id,
                                     start_at=shard_span.start)
                    # stream per-job progress as each shard completes;
                    # the reduce below re-verifies the full plan coverage
                    _check_shard_outcome(shard, outcome)
                    for summary in outcome.summaries:
                        emit(summary.index, JobOutcome(
                            jobs[summary.index], error=summary.error,
                            seconds=summary.seconds, point=summary.point))
        stats.map_seconds = time.perf_counter() - map_started

        reduce_started = time.perf_counter()
        summaries, stats.cache = reduce_shards(plan, shard_outcomes,
                                               failures)
        for index, summary in summaries.items():
            if outcomes[index] is None:  # jobs of failed shards
                emit(index, JobOutcome(jobs[index], error=summary.error,
                                       seconds=summary.seconds,
                                       point=summary.point))
        stats.shards = [{"shard": o.shard_index, "jobs": len(o.summaries),
                         "seconds": round(o.seconds, 6), "pid": o.pid,
                         "cache": o.cache_stats}
                        for o in sorted(shard_outcomes,
                                        key=lambda o: o.shard_index)]
        stats.reduce_seconds = time.perf_counter() - reduce_started
        completed = [o for o in outcomes if o is not None]
        assert len(completed) == len(outcomes), \
            "every job must have an outcome"
        return completed, stats


@dataclass
class SweepResult(ExplorationResult):
    """An exploration that carries the map-reduce evidence of its sweep."""

    shard_stats: ShardSweepStats | None = None


def map_reduce_sweep(jobs: Sequence[FlowJob], shards: int | None = None,
                     max_workers: int | None = None,
                     job_timeout: float | None = None,
                     progress: ProgressCallback | None = None,
                     store_path: str | os.PathLike | None = None,
                     ) -> SweepResult:
    """One-call sharded sweep: jobs in, ranked :class:`SweepResult` out."""
    outcomes, stats = sharded_sweep(jobs, shards=shards,
                                    max_workers=max_workers,
                                    job_timeout=job_timeout,
                                    progress=progress,
                                    store_path=store_path)
    return SweepResult.from_outcomes(outcomes, shard_stats=stats)
