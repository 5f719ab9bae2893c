"""Batch execution and design-space exploration for the flow.

Every (graph, architecture, partitioner, options) job of the COOL flow
is independent, so a sweep has the map-reduce shape of parallel
controller synthesis (Alimguzhin et al.): one map path, one reduce path.

* :class:`FlowJob` -- one fully-specified flow invocation, given either
  a built :class:`~repro.graph.taskgraph.TaskGraph` or a compact
  :class:`~repro.workloads.WorkloadSpec` built in-worker;
* :class:`BatchRunner` -- runs a job list and returns the outcomes in
  input order, with an optional ``progress`` callback observing each
  completion and a per-job ``job_timeout`` budget.  Failures are
  isolated per job, so one bad design can never sink a sweep;
* :class:`DesignSpaceExplorer` -- sweeps designs x architectures x
  partitioners x deadlines and ranks the implementations on the classic
  co-design Pareto axes: makespan, CLB area, communication memory words.

Jobs deep-copy their partitioner before running so stateful engines
(e.g. the genetic algorithm's RNG) start identically whatever runs
them -- batch results are reproducible by construction.

Choosing a backend
------------------
Both backends emit one ``repro.obs`` span per job when a tracer is
active (:func:`repro.obs.activate`).
``"serial"`` (the default)
    The reference semantics, and the fastest path for sub-second jobs.
    Outcomes carry the full ``FlowResult``.  A ``stage_cache`` passed to
    the runner is shared by every job, so jobs that revisit a (graph,
    architecture) pair -- deadline sweeps, repeated suites -- reuse
    each other's stage results.  Per-job spans nest fully: each job span
    contains its flow, stage and store spans.
``"shard"``
    True parallelism for *sweeps*: jobs are reduced to compact payloads
    (ideally a :class:`~repro.workloads.WorkloadSpec` built in-worker),
    partitioned into deterministic shards by content fingerprint, run
    against a per-worker-process stage cache initialized once, and
    returned as compact :class:`DesignPoint` summaries.  Results are
    bit-identical to ``"serial"`` (see :mod:`repro.flow.shard`);
    wall-clock speedup scales with cores (``BENCH_shard_sweep.json``).
    Payloads that cannot be pickled are rejected at submission time by
    :func:`payload_check`, with the offending job field named.  The
    trade: outcomes carry summaries, not ``FlowResult`` artifacts --
    rank and reduce, don't introspect.  Per-job (and nested
    stage/store) spans are recorded *inside* the worker processes and
    re-parented into the coordinator's trace under per-shard spans.
"""

from __future__ import annotations

import copy
import os
import pickle
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from ..graph.taskgraph import TaskGraph
from ..obs import span as obs_span
from ..partition.base import Partitioner
from ..platform.architecture import TargetArchitecture
from ..store import ArtifactStore, PersistentCache, TieredCache
from ..workloads.generators import WorkloadSpec
from .cool import CoolFlow, FlowResult
from .pipeline import CacheTier, StageCache

__all__ = ["FlowJob", "JobOutcome", "BatchRunner", "DesignPoint",
           "ExplorationResult", "DesignSpaceExplorer", "payload_check",
           "design_point_of"]

#: Signature of the streaming progress hook:
#: ``callback(outcome, done_count, total)``, invoked in completion order.
ProgressCallback = Callable[["JobOutcome", int, int], None]


class _ProgressGuard:
    """Isolate ``progress`` callback failures from the sweep itself.

    A progress hook is an *observer*: a bug in it must not abort a sweep
    whose jobs all succeeded.  Every entry point routes its callback
    through :func:`_guarded`, which wraps it here: callback exceptions
    are swallowed, the first failure only is warned about, and later
    completions still reach the callback (a hook may choke on one
    outcome yet handle the rest fine).
    """

    __slots__ = ("_callback", "_warned")

    def __init__(self, callback: ProgressCallback) -> None:
        self._callback = callback
        self._warned = False

    def __call__(self, outcome: "JobOutcome", done: int, total: int) -> None:
        try:
            self._callback(outcome, done, total)
        except Exception as exc:
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"progress callback raised {type(exc).__name__}: {exc} "
                    f"-- the sweep continues; further callback errors are "
                    f"suppressed silently", RuntimeWarning, stacklevel=2)


def _guarded(progress: ProgressCallback | None) -> ProgressCallback | None:
    """``progress`` behind a :class:`_ProgressGuard` (idempotent)."""
    if progress is None or isinstance(progress, _ProgressGuard):
        return progress
    return _ProgressGuard(progress)


@dataclass(frozen=True)
class FlowJob:
    """One flow invocation: design, target, engine and options.

    The design is given either as a built ``graph`` or as a compact
    ``workload`` spec (exactly one of the two); a spec-based job builds
    its graph inside the worker, which is what keeps shard payloads
    small -- a :class:`~repro.workloads.WorkloadSpec` pickles at ~200
    bytes where its built graph costs kilobytes.
    """

    graph: TaskGraph | None = None
    arch: TargetArchitecture | None = None
    partitioner: Partitioner | None = None
    deadline: int | None = None
    stimuli: Mapping[str, list[int]] | None = None
    reuse_memory: bool = True
    allow_direct_comm: bool = True
    label: str = ""
    workload: WorkloadSpec | None = None

    def __post_init__(self) -> None:
        if self.arch is None:
            raise ValueError("FlowJob needs an architecture (arch=)")
        if (self.graph is None) == (self.workload is None):
            raise ValueError(
                "FlowJob needs exactly one design source: either a built "
                "graph= or a workload= spec built in-worker")

    @property
    def design_name(self) -> str:
        """The design's display name without forcing a spec build."""
        return self.graph.name if self.graph is not None \
            else self.workload.label

    @property
    def name(self) -> str:
        """Display name: the label, or design@arch."""
        if self.label:
            return self.label
        # derive the default label from the flow's actual default engine
        # so the displayed algorithm can never drift from behaviour
        algo = self.partitioner.name if self.partitioner is not None \
            else CoolFlow.default_partitioner().name
        return f"{self.design_name}@{self.arch.name}/{algo}"


@dataclass
class JobOutcome:
    """Result (or failure) of one batch job.

    ``result`` carries the full :class:`~repro.flow.cool.FlowResult` on
    the serial backend; the shard backend ships only the compact
    ``point`` summary back from its workers (``result`` stays ``None``
    even for successful jobs -- check ``ok``, not ``result``).
    """

    job: FlowJob
    result: FlowResult | None = None
    error: str | None = None
    seconds: float = 0.0
    point: "DesignPoint | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None


#: Job fields shipped across a process boundary, in validation order.
_PAYLOAD_FIELDS = ("graph", "workload", "arch", "partitioner", "deadline",
                   "stimuli")


def payload_check(job: FlowJob) -> str | None:
    """Submission-time pickling validation for the shard backend.

    Returns ``None`` for a shippable job, otherwise an actionable error
    naming the offending field.  The shard backend runs this *before*
    submitting, so an un-picklable job fails fast as its own
    outcome instead of surfacing as a mid-sweep ``TypeError`` from the
    pool -- and the message says which field to fix rather than where
    the pool happened to choke.
    """
    for name in _PAYLOAD_FIELDS:
        value = getattr(job, name)
        try:
            pickle.dumps(value)
        except Exception as exc:
            return (f"unpicklable job payload: field {name!r} "
                    f"({type(value).__name__}) cannot cross the process "
                    f"boundary -- {type(exc).__name__}: {exc}. Use a "
                    f"picklable {name} (for designs, submit a compact "
                    f"workload= spec and let the worker build it).")
    return None


def _materialize_graph(job: FlowJob) -> TaskGraph:
    """The job's task graph, building a spec-based design in-worker."""
    return job.graph if job.graph is not None else job.workload.build()


def _normalize_store(store: "str | os.PathLike | ArtifactStore | "
                            "PersistentCache | None",
                     ) -> tuple[PersistentCache | None, str | None]:
    """``(persistent_cache, store_root_path)`` from any store spec.

    The cache handle serves the serial backend directly; the root path
    is what crosses the process boundary to the shard workers.
    """
    if store is None:
        return None, None
    if isinstance(store, PersistentCache):
        return store, os.fspath(store.store.root)
    if isinstance(store, ArtifactStore):
        return PersistentCache(store), os.fspath(store.root)
    if not isinstance(store, (str, os.PathLike)):
        raise TypeError(f"store must be a path, ArtifactStore or "
                        f"PersistentCache, got {type(store).__name__}")
    return PersistentCache(ArtifactStore(store)), os.fspath(store)


def _run_job(job: FlowJob, stage_cache: CacheTier | None) -> FlowResult:
    """Execute one job in a fresh flow."""
    partitioner = copy.deepcopy(job.partitioner) \
        if job.partitioner is not None else None
    flow = CoolFlow(job.arch, partitioner=partitioner,
                    reuse_memory=job.reuse_memory,
                    allow_direct_comm=job.allow_direct_comm,
                    stage_cache=stage_cache)
    return flow.run(_materialize_graph(job), stimuli=job.stimuli,
                    deadline=job.deadline)


def _check_sweep_args(shards: int | None, max_workers: int | None,
                     job_timeout: float | None) -> None:
    """Reject sweep arguments with :class:`ValueError`: counts below 1
    and a non-positive ``job_timeout`` (``None`` is always allowed)."""
    for name, value in (("shards", shards), ("max_workers", max_workers)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if job_timeout is not None and job_timeout <= 0:
        raise ValueError(f"job_timeout must be positive, got {job_timeout}")


def _run_outcome(job: FlowJob, stage_cache: CacheTier | None = None,
                 job_timeout: float | None = None) -> JobOutcome:
    """Run one job with per-job failure isolation and the budget rule
    of ``BatchRunner(job_timeout=...)``: both backends run every job
    through here, inside its one ``job`` span, whose duration is the
    outcome's ``seconds``."""
    with obs_span("job", kind="job", job=job.name) as job_span:
        try:
            result, error = _run_job(job, stage_cache), None
        except Exception as exc:  # isolate failures per job
            result, error = None, f"{type(exc).__name__}: {exc}"
        job_span.set("ok", error is None)
    seconds = job_span.duration
    if error is None and job_timeout is not None and seconds >= job_timeout:
        result, error = None, (
            f"TimeoutError: job exceeded {job_timeout}s budget (jobs are "
            f"non-preemptive: the job ran to completion in {seconds:.3f}s "
            f"and its result was discarded)")
    return JobOutcome(job, result=result, error=error, seconds=seconds)


class BatchRunner:
    """Run many flow jobs serially or sharded over worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count of the ``"shard"`` backend, at least 1;
        ``None`` uses the CPU count.  Rejected on the serial backend,
        which has none.
    backend:
        ``"serial"`` (the default) or ``"shard"`` (map-reduce over
        worker processes, see :mod:`repro.flow.shard`).  Setting
        ``shards=`` selects ``"shard"``, so ``BatchRunner(shards=4)`` is
        the one-knob parallel sweep.
    stage_cache:
        Optional :class:`~repro.flow.pipeline.StageCache` shared by every
        job of a serial batch.  Sweeps that revisit a (graph,
        architecture) pair -- several deadlines over one design, a suite
        run twice -- are then served stage results across jobs instead
        of recomputing them.  Rejected on the shard backend: its workers
        live in separate address spaces and keep one cache per worker
        process instead (share results across processes with ``store=``).
    store:
        Optional persistent artifact store (a path, an
        :class:`~repro.store.ArtifactStore` or a
        :class:`~repro.store.PersistentCache`) attached as the L2 tier
        under the stage cache on both backends.  A serial sweep runs
        against a :class:`~repro.store.TieredCache` wrapping
        ``stage_cache`` (or a fresh L1); the shard backend ships the
        store root to its workers, which build their own L1 over the
        shared disk.  A later sweep -- either backend, any worker count
        -- then warm-starts from the store with bit-identical results.
    job_timeout:
        Optional per-job budget in seconds, with one rule on both
        backends: a running job is never preempted, so the budget is
        checked when the job returns, and an over-budget job is reported
        as a failed :class:`JobOutcome` with its result discarded.  The
        sweep then continues with the next job (a job that never returns
        therefore stalls its sweep or shard).
    shards:
        Shard count of the ``"shard"`` backend, at least 1 (defaults
        to ``max_workers``, falling back to the CPU count).
    """

    def __init__(self, max_workers: int | None = None,
                 backend: str | None = None,
                 stage_cache: StageCache | None = None,
                 job_timeout: float | None = None,
                 shards: int | None = None,
                 store: "str | os.PathLike | ArtifactStore | "
                        "PersistentCache | None" = None) -> None:
        if backend is None:
            backend = "shard" if shards is not None else "serial"
        if backend not in ("serial", "shard"):
            raise ValueError(f"unknown batch backend {backend!r}: "
                             f"use 'serial' or 'shard'")
        if backend == "serial":
            for name, value in (("shards", shards),
                                ("max_workers", max_workers)):
                if value is not None:
                    raise ValueError(f"{name}= only applies to the shard "
                                     f"backend; the serial backend runs "
                                     f"every job in this process")
        elif stage_cache is not None:
            raise ValueError("stage_cache= cannot be shared with shard "
                             "worker processes (each keeps its own "
                             "cache); share stage results with store=")
        _check_sweep_args(shards, max_workers, job_timeout)
        self.max_workers = max_workers
        self.backend = backend
        l2, self.store_path = _normalize_store(store)
        self.stage_cache: CacheTier | None = stage_cache
        if l2 is not None and backend == "serial":
            # the shard backend ships store_path and tiers in its workers
            self.stage_cache = TieredCache(
                stage_cache if stage_cache is not None else StageCache(), l2)
        self.job_timeout = job_timeout
        self.shards = shards
        #: Map-reduce evidence of the most recent ``"shard"`` run
        #: (:class:`repro.flow.shard.ShardSweepStats`): per-shard
        #: timings, worker pids and merged cache statistics.
        self.shard_stats = None

    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[FlowJob],
            progress: ProgressCallback | None = None) -> list[JobOutcome]:
        """Execute all jobs; outcomes come back in input order.

        ``progress`` is invoked once per job *in completion order* as
        ``progress(outcome, done_count, total)`` -- the streaming view
        of the sweep -- while the returned list is in input order.
        """
        jobs = list(jobs)
        progress = _guarded(progress)
        if self.backend == "shard":
            # deferred import: shard builds on this module's types
            from .shard import sharded_sweep
            outcomes, self.shard_stats = sharded_sweep(
                jobs, shards=self.shards, max_workers=self.max_workers,
                job_timeout=self.job_timeout, progress=progress,
                store_path=self.store_path)
            return outcomes
        outcomes = []
        for done, job in enumerate(jobs, start=1):
            outcome = _run_outcome(job, self.stage_cache, self.job_timeout)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome, done, len(jobs))
        return outcomes


# ----------------------------------------------------------------------
# design-space exploration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DesignPoint:
    """One implementation in the explored space, reduced to its metrics."""

    label: str
    algorithm: str
    arch: str
    deadline: int | None
    makespan: int
    total_clbs: int
    memory_words: int
    hw_nodes: int
    sw_nodes: int
    feasible: bool
    area_repairs: int = 0
    #: Name of the task graph this point implements (multi-graph sweeps
    #: compare points only within one graph).
    graph: str = ""

    @property
    def metrics(self) -> tuple[int, int, int]:
        """The minimized objective vector (makespan, CLBs, memory)."""
        return (self.makespan, self.total_clbs, self.memory_words)

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse on every axis, better on one."""
        return (all(a <= b for a, b in zip(self.metrics, other.metrics))
                and self.metrics != other.metrics)


@dataclass
class ExplorationResult:
    """Outcome of one design-space sweep."""

    points: list[DesignPoint] = field(default_factory=list)
    failures: list[JobOutcome] = field(default_factory=list)
    outcomes: list[JobOutcome] = field(default_factory=list)

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[JobOutcome], **fields
                      ) -> "ExplorationResult":
        """Reduce job outcomes: each success to its design point, each
        failure to ``failures``; ``fields`` fill subclass fields."""
        result = cls(outcomes=list(outcomes), **fields)
        for outcome in result.outcomes:
            if outcome.ok:
                result.points.append(_point_from(outcome))
            else:
                result.failures.append(outcome)
        return result

    def feasible_points(self) -> list[DesignPoint]:
        """Implementations that meet all their constraints."""
        return [p for p in self.points if p.feasible]

    def by_graph(self) -> dict[str, list[DesignPoint]]:
        """Points grouped by the task graph they implement."""
        groups: dict[str, list[DesignPoint]] = {}
        for point in self.points:
            groups.setdefault(point.graph, []).append(point)
        return groups

    def pareto(self) -> list[DesignPoint]:
        """The non-dominated *feasible* implementations.

        An implementation that violates its own constraints (deadline,
        area, memory) is not a design anyone can pick, however good its
        metrics look, so infeasible points never enter the front.  In a
        multi-graph sweep dominance is judged per graph: implementations
        of different designs are not alternatives to one another.
        """
        feasible_of = {graph: [p for p in points if p.feasible]
                       for graph, points in self.by_graph().items()}
        return [p for p in self.feasible_points()
                if not any(q.dominates(p) for q in feasible_of[p.graph])]

    def ranked(self, front: set[DesignPoint] | None = None
               ) -> list[DesignPoint]:
        """All points: feasible before infeasible, Pareto front first,
        each tier by normalized score.

        Scores are normalized against the worst *feasible* point of the
        same graph (falling back to all of its points only when none is
        feasible): an arbitrarily bad infeasible outlier would otherwise
        flatten every score that orders the feasible tier.
        """
        if front is None:
            front = set(self.pareto())
        worst_of: dict[str, list[int]] = {}
        for graph, points in self.by_graph().items():
            pool = [p for p in points if p.feasible] or points
            worst_of[graph] = [max(p.metrics[axis] for p in pool)
                               for axis in range(3)]

        def score(point: DesignPoint) -> float:
            worst = worst_of[point.graph]
            return sum(point.metrics[axis] / worst[axis]
                       for axis in range(3) if worst[axis])

        return sorted(self.points,
                      key=lambda p: (not p.feasible, p not in front,
                                     score(p), p.label))

    def table(self) -> str:
        """Ranked text table (Pareto points ``*``, infeasible ``!``)."""
        front = set(self.pareto())
        ranked = self.ranked(front)
        header = (f"{'':2} {'label':<28} {'algorithm':<14} {'deadline':>8} "
                  f"{'makespan':>8} {'CLBs':>6} {'mem[w]':>7} {'hw/sw':>6}")
        lines = [header, "-" * len(header)]
        for point in ranked:
            mark = "*" if point in front else \
                ("!" if not point.feasible else " ")
            deadline = point.deadline if point.deadline is not None else "-"
            lines.append(
                f"{mark:2} {point.label:<28} {point.algorithm:<14} "
                f"{deadline!s:>8} {point.makespan:>8} {point.total_clbs:>6} "
                f"{point.memory_words:>7} "
                f"{point.hw_nodes}/{point.sw_nodes:<4}")
        for failure in self.failures:
            lines.append(f"!  {failure.job.name:<28} failed: {failure.error}")
        return "\n".join(lines)


def design_point_of(result: FlowResult, label: str,
                    deadline: int | None) -> DesignPoint:
    """Reduce a full flow result to its compact metrics summary.

    This is the projection the explorer ranks on -- and the *only*
    thing a shard worker ships back, so it must stay cheap to pickle.
    """
    summary = result.partition_result.summary()
    return DesignPoint(
        label=label,
        algorithm=summary["algorithm"],
        arch=result.arch.name,
        deadline=deadline,
        makespan=result.makespan,
        total_clbs=sum(result.clbs_per_fpga.values()),
        memory_words=result.plan.memory_map.words_used,
        hw_nodes=summary["hw_nodes"],
        sw_nodes=summary["sw_nodes"],
        feasible=result.partition_result.feasibility.feasible,
        area_repairs=result.partition_result.stats.get("area_repairs", 0),
        graph=result.graph.name,
    )


def _point_from(outcome: JobOutcome) -> DesignPoint:
    if outcome.point is not None:  # compact summary from a shard worker
        return outcome.point
    assert outcome.result is not None
    return design_point_of(outcome.result, outcome.job.name,
                           outcome.job.deadline)


class DesignSpaceExplorer:
    """Sweep designs x architectures x partitioners x deadlines.

    ``graphs`` may be a single :class:`~repro.graph.taskgraph.TaskGraph`
    (the classic one-design exploration) or a sequence of designs -- in
    which case the cross-product additionally fans over the designs and
    every label is prefixed with the design name.  Each entry is either
    a built graph or a compact :class:`~repro.workloads.WorkloadSpec`
    (e.g. straight from :func:`~repro.workloads.workload_suite`); spec
    entries are built inside the worker, which is what the shard
    backend's compact-payload contract wants.  ``explore()`` drives the
    jobs through a :class:`BatchRunner` and reduces every successful
    implementation to a :class:`DesignPoint`; the
    :class:`ExplorationResult` ranks them and computes the per-graph
    Pareto front over (makespan, CLB area, memory words).
    """

    def __init__(self, graphs: TaskGraph | WorkloadSpec |
                 Sequence[TaskGraph | WorkloadSpec],
                 architectures: Sequence[TargetArchitecture],
                 partitioners: Sequence[Partitioner],
                 deadlines: Sequence[int | None] = (None,),
                 runner: BatchRunner | None = None) -> None:
        if isinstance(graphs, (TaskGraph, WorkloadSpec)):
            graphs = [graphs]
        self.graphs = list(graphs)
        if not self.graphs:
            raise ValueError("need at least one graph")
        if not architectures or not partitioners:
            raise ValueError("need at least one architecture and partitioner")
        names = [self._design_name(g) for g in self.graphs]
        if len(set(names)) != len(names):
            raise ValueError(f"design names must be unique, got {names}")
        self.architectures = list(architectures)
        self.partitioners = list(partitioners)
        self.deadlines = list(deadlines) or [None]
        self.runner = runner if runner is not None else BatchRunner()

    @property
    def graph(self) -> TaskGraph:
        """The first (historically: only) explored graph."""
        return self.graphs[0]

    @staticmethod
    def _design_name(design: TaskGraph | WorkloadSpec) -> str:
        """Display name of a design entry without forcing a spec build."""
        return design.name if isinstance(design, TaskGraph) else design.label

    def _partitioner_labels(self) -> list[str]:
        """One display name per partitioner, disambiguated on collision.

        Two instances of the same engine with different configuration
        (e.g. ``GreedyPartitioner()`` and ``GreedyPartitioner(max_moves=3)``)
        share a ``name``; suffix an index so their design points stay
        distinguishable in the ranked table.
        """
        counts: dict[str, int] = {}
        for p in self.partitioners:
            counts[p.name] = counts.get(p.name, 0) + 1
        seen: dict[str, int] = {}
        labels = []
        for p in self.partitioners:
            if counts[p.name] > 1:
                seen[p.name] = seen.get(p.name, 0) + 1
                labels.append(f"{p.name}#{seen[p.name]}")
            else:
                labels.append(p.name)
        return labels

    def jobs(self) -> list[FlowJob]:
        labels = self._partitioner_labels()
        multi = len(self.graphs) > 1
        out = []
        for design, arch, (partitioner, plabel), deadline in product(
                self.graphs, self.architectures,
                zip(self.partitioners, labels), self.deadlines):
            tag = f"@{deadline}" if deadline is not None else ""
            prefix = f"{self._design_name(design)}@" if multi else ""
            built = isinstance(design, TaskGraph)
            out.append(FlowJob(
                graph=design if built else None,
                workload=None if built else design,
                arch=arch, partitioner=partitioner,
                deadline=deadline,
                label=f"{prefix}{arch.name}/{plabel}{tag}"))
        return out

    def explore(self, progress: ProgressCallback | None = None
                ) -> ExplorationResult:
        return ExplorationResult.from_outcomes(
            self.runner.run(self.jobs(), progress=progress))
