"""The COOL design flow (paper Fig. 1) as a staged pipeline.

The flow is built from dependency-tracked :class:`~repro.flow.pipeline.Stage`
objects executed by a :class:`~repro.flow.pipeline.PipelineExecutor`:

=============== =============================================== ==========================
stage           inputs                                          outputs
=============== =============================================== ==========================
validate        graph                                           validated
partitioning    graph, arch, deadline, partitioner              partition_result, ...
stg             schedule                                        stg_full, stg, minimization
communication   schedule, arch, comm_options                    plan
hls             graph, partition, arch                          hls_results
controllers     graph, stg, partition, hls_results, arch        controller, ioc, dpcs, ...
verify          stg, controller, graph                          composition_check
codegen         graph, partition, schedule, plan, ctrls, hls    vhdl_files, c_files, ...
cosim           graph, partition, schedule, plan, ctrl, stimuli sim_result
=============== =============================================== ==========================

Only the roots, the partitioning outputs, the minimized STG and the
system controller are content-hashed; every other artifact is named by
its stage's inputs, so a stage re-runs only when an input changed and
no HLS, code or simulation artifact is walked.  Deadlines or
partitioners that reach one partition thus share every later stage on
a shared cache, and partitions that give one STG share ``verify``.
The HLS area-repair loop iterates *partitioning -> hls* alone, and STG
construction / communication refinement run exactly once on the
converged schedule instead of being rebuilt for every discarded
intermediate partition
(``FlowResult.stage_runs`` makes this observable).  A per-flow
:class:`~repro.flow.pipeline.StageCache` additionally reuses stage
outputs across ``run`` calls, so re-running an unchanged (graph,
architecture) pair costs dictionary lookups.

:class:`CoolFlow` keeps its historical interface -- construct with an
architecture and options, call :meth:`CoolFlow.run` -- and returns the
same :class:`FlowResult`; it is now a thin facade over the pipeline.
Batch fan-out and design-space exploration on top of this engine live in
:mod:`repro.flow.batch`.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..automata import AutomataError
from ..codegen.c import software_to_c
from ..codegen.netlist import Netlist, generate_netlist, netlist_text
from ..codegen.vhdl import (datapath_to_vhdl, fsm_guard_literals,
                            fsm_to_vhdl, guard_literal_count)
from ..codegen.vhdl_check import check_vhdl
from ..controllers.guards import harvest_care_sets
from ..comm.refine import CommPlan, refine_communication
from ..controllers.bus_arbiter import RoundRobinArbiter
from ..controllers.datapath_controller import (DatapathController,
                                               synthesize_datapath_controller)
from ..controllers.fsm import Fsm
from ..controllers.io_controller import IoController, synthesize_io_controller
from ..controllers.system_controller import (SystemController,
                                             synthesize_system_controller)
from ..controllers.verify import CompositionCheck, verify_composition
from ..graph.partition import Partition
from ..graph.taskgraph import TaskGraph
from ..graph.validate import check_graph
from ..hls.driver import SharedDatapathResult, synthesize_resource
from ..obs import span as obs_span
from ..partition.base import (Partitioner, PartitioningProblem,
                              PartitionResult, evaluate_mapping)
from ..partition.milp import MilpPartitioner
from ..platform.architecture import TargetArchitecture
from ..schedule.schedule import Schedule
from ..sim.system import CoSimulation, SimResult
from ..stg.builder import build_stg
from ..stg.minimize import MinimizationReport, minimize_stg
from ..stg.states import Stg
from ..store import ArtifactStore, PersistentCache, TieredCache
from .pipeline import (CacheTier, FlowContext, PipelineExecutor, Stage,
                       StageCache)
from .timing import DesignTimeModel, DesignTimeReport

__all__ = ["CoolFlow", "FlowResult", "build_flow_stages",
           "select_eviction_victim"]


@dataclass
class FlowResult:
    """Everything one run of the COOL flow produces.

    The file dictionaries and partition stats are owned by the caller;
    the deep co-synthesis artifacts (STGs, communication plan, HLS
    results, controllers) may be shared with the flow's stage cache and
    with other results of the same flow -- treat them as read-only.
    """

    graph: TaskGraph
    arch: TargetArchitecture
    partition_result: PartitionResult
    stg_full: Stg
    stg: Stg
    minimization: MinimizationReport
    plan: CommPlan
    controller: SystemController
    io_controller: IoController
    datapath_controllers: dict[str, DatapathController]
    hls_results: dict[str, SharedDatapathResult]
    vhdl_files: dict[str, str]
    c_files: dict[str, str]
    netlist: Netlist
    sim_result: SimResult | None
    #: Product-of-controllers vs minimized-STG equivalence evidence.
    composition_check: CompositionCheck
    #: Guard-simplification evidence of the codegen stage: VHDL guard
    #: literal counts before/after and whether reachability care sets
    #: were harvested.
    guard_report: dict
    design_time: DesignTimeReport
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: How often each pipeline stage actually executed during this run
    #: (0 = served entirely from the stage cache).
    stage_runs: dict[str, int] = field(default_factory=dict)
    #: Window view of the flow's cache over this run
    #: (:meth:`StageCache.stats`); tiered flows carry nested ``l1`` /
    #: ``l2`` views plus the promotion count.
    cache_stats: dict | None = None

    @property
    def makespan(self) -> int:
        return self.partition_result.makespan

    @property
    def clbs_per_fpga(self) -> dict[str, int]:
        return {r: h.total_area_clbs for r, h in self.hls_results.items()}

    def report(self) -> str:
        """Multi-paragraph text report of the implementation."""
        lines = [f"COOL flow report for {self.graph.name!r} on "
                 f"{self.arch.name!r}"]
        lines.append("-" * 64)
        summary = self.partition_result.summary()
        lines.append(f"partitioning [{summary['algorithm']}]: "
                     f"{summary['hw_nodes']} HW / {summary['sw_nodes']} SW "
                     f"nodes, {summary['cut_edges']} cut edges, "
                     f"makespan {summary['makespan']} ticks")
        lines.append(f"STG: {self.minimization.states_before} states -> "
                     f"{self.minimization.states_after} after minimization "
                     f"({self.minimization.reduction:.0%} removed)")
        stats = self.plan.stats()
        lines.append(f"communication: {stats['memory_mapped']} memory-mapped"
                     f" + {stats['direct']} direct channels, "
                     f"{stats['memory_words']} memory words")
        for resource, clbs in self.clbs_per_fpga.items():
            cap = self.arch.fpga(resource).clb_capacity
            lines.append(f"hardware {resource}: {clbs}/{cap} CLBs")
        check = self.composition_check
        verdict = "equivalent" if check.equivalent \
            else "MISMATCH: " + "; ".join(check.mismatches)
        lines.append(f"verified composition: controllers x STG "
                     f"{verdict} (symbolic fixpoint, "
                     f"{check.product_states} product states, "
                     f"{check.projections_checked} projections, "
                     f"streamed restarts included)")
        before = self.guard_report["guard_literals_before"]
        after = self.guard_report["guard_literals_after"]
        saved = f" (-{1 - after / before:.0%})" if before else ""
        care = "reachability don't-cares" \
            if self.guard_report["care_sets"] else "structural only"
        lines.append(f"guard simplification: {before} -> {after} VHDL "
                     f"guard literals{saved}, {care}")
        lines.append(f"generated: {len(self.vhdl_files)} VHDL files, "
                     f"{len(self.c_files)} C files, netlist with "
                     f"{len(self.netlist.components)} components / "
                     f"{len(self.netlist.nets)} nets")
        if self.sim_result is not None:
            lines.append(f"co-simulation: {self.sim_result.cycles} cycles, "
                         f"bus busy {self.sim_result.bus_busy_ticks}")
        lines.append(f"design time: {self.design_time.total_s / 60:.1f} "
                     f"min total, {self.design_time.hw_fraction:.0%} in "
                     f"hardware synthesis")
        if self.cache_stats is not None and "l2" in self.cache_stats:
            l1, l2 = self.cache_stats["l1"], self.cache_stats["l2"]
            lines.append(
                f"stage cache: {self.cache_stats['hit_rate']:.0%} of stage "
                f"lookups served "
                f"(L1 memory {l1['hits']}/{l1['hits'] + l1['misses']}, "
                f"L2 store {l2['hits']}/{l2['hits'] + l2['misses']}, "
                f"{self.cache_stats['promotions']} promoted)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# stage bodies (pure with respect to their declared inputs)
# ----------------------------------------------------------------------
def _stage_validate(ctx: FlowContext) -> dict[str, Any]:
    check_graph(ctx.get("graph"))
    return {"validated": True}


def _stage_partition(ctx: FlowContext) -> dict[str, Any]:
    problem = PartitioningProblem(ctx.get("graph"), ctx.get("arch"),
                                  deadline=ctx.get("deadline"))
    result: PartitionResult = ctx.get("partitioner").partition(problem)
    return {"partition_result": result, "partition": result.partition,
            "schedule": result.schedule}


def _stage_stg(ctx: FlowContext) -> dict[str, Any]:
    stg_full = build_stg(ctx.get("schedule"))
    stg, minimization = minimize_stg(stg_full)
    return {"stg_full": stg_full, "stg": stg, "minimization": minimization}


def _stage_communication(ctx: FlowContext) -> dict[str, Any]:
    reuse_memory, allow_direct = ctx.get("comm_options")
    plan = refine_communication(ctx.get("schedule"), ctx.get("arch"),
                                reuse_memory=reuse_memory,
                                allow_direct=allow_direct)
    return {"plan": plan}


def _stage_hls(ctx: FlowContext) -> dict[str, Any]:
    graph, partition = ctx.get("graph"), ctx.get("partition")
    arch: TargetArchitecture = ctx.get("arch")
    hls_results: dict[str, SharedDatapathResult] = {}
    for fpga in arch.fpgas:
        hls_results[fpga.name] = synthesize_resource(graph, partition,
                                                     fpga.name, fpga)
    return {"hls_results": hls_results}


def _stage_controllers(ctx: FlowContext) -> dict[str, Any]:
    graph, partition = ctx.get("graph"), ctx.get("partition")
    arch: TargetArchitecture = ctx.get("arch")
    hls_results = ctx.get("hls_results")
    controller = synthesize_system_controller(ctx.get("stg"))
    io_controller = synthesize_io_controller(graph)
    datapath_controllers: dict[str, DatapathController] = {}
    for fpga in arch.fpgas:
        if not partition.nodes_on(fpga.name):
            continue
        latencies = hls_results[fpga.name].latencies
        datapath_controllers[fpga.name] = \
            synthesize_datapath_controller(partition, fpga.name, latencies)
    arbiter = RoundRobinArbiter(["sysctl"] + list(partition.resources_used))
    return {"controller": controller, "io_controller": io_controller,
            "datapath_controllers": datapath_controllers, "arbiter": arbiter}


def _stage_verify(ctx: FlowContext) -> dict[str, Any]:
    check = verify_composition(ctx.get("stg"), ctx.get("controller"),
                               graph=ctx.get("graph"))
    return {"composition_check": check}


#: ``(text, baseline guard literals, emitted guard literals,
#: check_vhdl problems)`` of one FSM.
_Emission = tuple[str, int, int, tuple[str, ...]]

#: Emission memo of the codegen stage, :func:`_emission_key` ->
#: :data:`_Emission`, least recently used first.  Controller FSMs recur
#: across the designs of a sweep (the arbiter of one master list,
#: datapath controllers with the same latencies, sequencers of the same
#: shape), so each distinct one is emitted, counted and checked once
#: while it stays among the ``_EMISSION_CACHE_MAX`` most recent.  The
#: entries are plain strings, ints and tuples, safe to share across
#: threads.
_EMISSION_CACHE: OrderedDict[tuple, _Emission] = OrderedDict()
_EMISSION_CACHE_MAX = 512
_EMISSION_CACHE_LOCK = threading.Lock()


def _emission_key(fsm: Fsm, care_of: Mapping | None) -> tuple:
    """Everything ``fsm_to_vhdl(fsm, simplify=True, care_of=care_of)``
    reads, as hashable plain data.

    The FSM's :meth:`~repro.controllers.Fsm.content` (what its
    fingerprint hashes) and the care set as state -> frozenset of frozen
    valuations.  An empty care mapping keys like ``None``: the emitter
    treats both alike.
    """
    care = frozenset(
        (state, frozenset(map(frozenset, valuations)))
        for state, valuations in care_of.items()) if care_of else None
    return fsm.content(), care


def _emit_fsm(fsm: Fsm, care_of: Mapping | None) -> _Emission:
    """``(text, fsm_guard_literals, guard_literal_count, problems)`` of
    ``fsm``'s simplified VHDL, memoized in :data:`_EMISSION_CACHE`.

    The four callees are looked up in this module, so a traced run
    (which wraps these bindings) still sees every miss.
    """
    key = _emission_key(fsm, care_of)
    with _EMISSION_CACHE_LOCK:
        entry = _EMISSION_CACHE.get(key)
        if entry is not None:
            _EMISSION_CACHE.move_to_end(key)
            return entry
    text = fsm_to_vhdl(fsm, simplify=True, care_of=care_of)
    entry = (text, fsm_guard_literals(fsm), guard_literal_count(text),
             tuple(check_vhdl(text)))
    with _EMISSION_CACHE_LOCK:
        _EMISSION_CACHE[key] = entry
        while len(_EMISSION_CACHE) > _EMISSION_CACHE_MAX:
            _EMISSION_CACHE.popitem(last=False)
    return entry


def _stage_codegen(ctx: FlowContext) -> dict[str, Any]:
    """VHDL for every controller FSM and datapath, C per processor and
    the netlist.

    Each FSM goes through :func:`_emit_fsm`: an LRU memo of at most
    ``_EMISSION_CACHE_MAX`` entries under ``_EMISSION_CACHE_LOCK``,
    keyed by the FSM's full content plus its care set
    (:func:`_emission_key`) and holding the text, both guard-literal
    counts and the ``check_vhdl`` problems.  A hit re-raises a stored
    rejection exactly as a fresh check would.  Datapath texts are
    checked on every run.
    """
    graph, partition = ctx.get("graph"), ctx.get("partition")
    arch: TargetArchitecture = ctx.get("arch")
    hls_results = ctx.get("hls_results")
    controller = ctx.get("controller")
    care_sets: dict = {}
    care_reason: str | None = None
    try:
        care_sets = harvest_care_sets(controller)
    except AutomataError as exc:
        # structural simplification still applies; only the
        # reachability don't-cares are lost
        care_reason = str(exc)
    vhdl_files: dict[str, str] = {}
    problems: dict[str, tuple[str, ...]] = {}
    literals_before = literals_after = 0

    def emit(name: str, fsm: Fsm) -> None:
        nonlocal literals_before, literals_after
        text, before, after, problems[name] = _emit_fsm(
            fsm, care_sets.get(fsm.name))
        vhdl_files[name] = text
        literals_before += before
        literals_after += after

    for fsm in controller.fsms:
        emit(f"{fsm.name}.vhd", fsm)
    emit("ioc.vhd", ctx.get("io_controller").fsm)
    emit("arbiter.vhd", ctx.get("arbiter").to_fsm())
    for resource, dpc in ctx.get("datapath_controllers").items():
        emit(f"dpc_{resource}.vhd", dpc.fsm)
    guard_report = {
        "simplified": True,
        "care_sets": not care_reason,
        "care_fallback": care_reason,
        "guard_literals_before": literals_before,
        "guard_literals_after": literals_after,
    }
    for resource, hls in hls_results.items():
        if hls.shared_rtl is not None and hls.node_results:
            vhdl_files[f"dp_{resource}.vhd"] = datapath_to_vhdl(hls.shared_rtl)
    for name, text in vhdl_files.items():
        found = problems[name] if name in problems else check_vhdl(text)
        if found:
            raise ValueError(f"generated VHDL {name} rejected: "
                             + "; ".join(found))
    c_files: dict[str, str] = {}
    for proc in arch.processors:
        if partition.nodes_on(proc.name):
            c_files[f"{proc.name}.c"] = software_to_c(
                graph, partition, ctx.get("schedule"), ctx.get("plan"),
                proc.name, controller=controller)
    netlist = generate_netlist(partition, arch, controller, ctx.get("plan"))
    return {"vhdl_files": vhdl_files, "c_files": c_files,
            "netlist": netlist, "guard_report": guard_report}


def _stage_cosim(ctx: FlowContext) -> dict[str, Any]:
    arch: TargetArchitecture = ctx.get("arch")
    hls_latencies: dict[str, dict[str, int]] = {}
    for resource, hls in ctx.get("hls_results").items():
        if hls.latencies:
            fpga = arch.fpga(resource)
            ratio = arch.bus.clock_hz / fpga.clock_hz
            hls_latencies[resource] = {n: max(1, round(c * ratio))
                                       for n, c in hls.latencies.items()}
    cosim = CoSimulation(ctx.get("graph"), ctx.get("partition"),
                         ctx.get("schedule"), ctx.get("plan"),
                         ctx.get("controller"), arch, ctx.get("stimuli"),
                         latencies=hls_latencies)
    return {"sim_result": cosim.run()}


def build_flow_stages() -> list[Stage]:
    """The COOL flow as an ordered stage-graph (one entry per Fig. 1 box)."""
    return [
        Stage("validate", ("graph",), ("validated",), _stage_validate),
        Stage("partitioning",
              ("validated", "graph", "arch", "deadline", "partitioner"),
              ("partition_result", "partition", "schedule"),
              _stage_partition,
              content_addressed=("partition_result", "partition",
                                 "schedule")),
        Stage("stg", ("schedule",), ("stg_full", "stg", "minimization"),
              _stage_stg, content_addressed=("stg",)),
        Stage("communication", ("schedule", "arch", "comm_options"),
              ("plan",), _stage_communication),
        Stage("hls", ("graph", "partition", "arch"), ("hls_results",),
              _stage_hls),
        Stage("controllers",
              ("graph", "stg", "partition", "hls_results", "arch"),
              ("controller", "io_controller", "datapath_controllers",
               "arbiter"),
              _stage_controllers, content_addressed=("controller",)),
        Stage("verify", ("stg", "controller", "graph"),
              ("composition_check",), _stage_verify),
        Stage("codegen",
              ("graph", "partition", "schedule", "plan", "controller",
               "io_controller", "datapath_controllers", "arbiter",
               "hls_results", "arch"),
              ("vhdl_files", "c_files", "netlist", "guard_report"),
              _stage_codegen),
        Stage("cosim",
              ("graph", "partition", "schedule", "plan", "controller",
               "hls_results", "arch", "stimuli"),
              ("sim_result",), _stage_cosim),
    ]


# ----------------------------------------------------------------------
# HLS area repair
# ----------------------------------------------------------------------
def select_eviction_victim(problem: PartitioningProblem,
                           partition: Partition, device: str,
                           node_areas: Mapping[str, int], processor: str
                           ) -> tuple[str, Partition, Schedule, Any]:
    """Pick the node to move from ``device`` to ``processor``.

    Candidates are tried in order of decreasing synthesized area (most
    area-saving first); the first eviction that keeps the deadline
    feasible wins.  When every candidate breaks the deadline the
    largest one is evicted anyway -- area repair must make progress, and
    an overfull FPGA is not implementable at any makespan.

    Returns ``(victim, partition, schedule, feasibility)`` for the
    chosen eviction.
    """
    candidates = sorted(node_areas, key=lambda n: (-node_areas[n], n))
    if not candidates:
        raise RuntimeError(
            f"HLS area repair failed to converge: device {device!r} "
            "overflows with no evictable nodes left")
    graph = problem.graph
    base = {name: res for name, res in partition.mapping.items()
            if not graph.node(name).is_io}
    fallback: tuple[str, Partition, Schedule, Any] | None = None
    for victim in candidates:
        mapping = dict(base)
        mapping[victim] = processor
        moved, schedule, report = evaluate_mapping(problem, mapping)
        if fallback is None:
            fallback = (victim, moved, schedule, report)
        if report.deadline_ok:
            return victim, moved, schedule, report
    return fallback


def _area_repair(ctx: FlowContext, problem: PartitioningProblem,
                 hls: SharedDatapathResult, device: str, processor: str,
                 repairs: int) -> dict[str, Any]:
    """Partitioning outputs with one node evicted from ``device``."""
    partition: Partition = ctx.get("partition")
    node_areas = {name: hls.node_results[name].area_clbs
                  for name in partition.nodes_on(device)}
    _, partition, schedule, feasibility = select_eviction_victim(
        problem, partition, device, node_areas, processor)
    previous: PartitionResult = ctx.get("partition_result")
    partition_result = PartitionResult(
        partition, schedule, feasibility, previous.algorithm,
        previous.runtime_s, {**previous.stats, "area_repairs": repairs})
    return {"partition_result": partition_result, "partition": partition,
            "schedule": schedule}


class CoolFlow:
    """Configurable end-to-end driver (facade over the stage pipeline)."""

    @staticmethod
    def default_partitioner() -> Partitioner:
        """The engine used when none is given (the paper's MILP core).

        Single source of truth for the default: batch job labels derive
        the displayed algorithm from here, so the two cannot drift.
        """
        return MilpPartitioner()

    def __init__(self, arch: TargetArchitecture,
                 partitioner: Partitioner | None = None,
                 reuse_memory: bool = True,
                 allow_direct_comm: bool = True,
                 stage_cache: CacheTier | None = None,
                 store_path: "str | None" = None) -> None:
        self.arch = arch
        self.partitioner = partitioner if partitioner is not None \
            else self.default_partitioner()
        self.reuse_memory = reuse_memory
        self.allow_direct_comm = allow_direct_comm
        #: Shared across ``run`` calls of this flow (and across flows
        #: when one cache instance is passed to several of them).  With
        #: ``store_path=`` the cache is tiered over a persistent
        #: artifact store (:mod:`repro.store`): stage results are
        #: fingerprint-keyed on disk, so an unchanged (graph, arch)
        #: pair is served from the store even in a fresh process --
        #: :meth:`FlowResult.report` then shows the per-tier hit rates.
        cache: CacheTier = stage_cache if stage_cache is not None \
            else StageCache()
        if store_path is not None:
            cache = TieredCache(cache,
                                PersistentCache(ArtifactStore(store_path)))
        self.stage_cache = cache

    def run(self, graph: TaskGraph,
            stimuli: Mapping[str, list[int]] | None = None,
            deadline: int | None = None) -> FlowResult:
        """Run the full flow; ``stimuli`` enables co-simulation."""
        with obs_span("flow", kind="flow", graph=graph.name,
                      arch=self.arch.name) as flow_span:
            result = self._run(graph, stimuli, deadline)
            flow_span.set("stages_run", sum(result.stage_runs.values()))
            flow_span.set("cache_hits", result.cache_stats.get("hits", 0))
            return result

    def _run(self, graph: TaskGraph,
             stimuli: Mapping[str, list[int]] | None,
             deadline: int | None) -> FlowResult:
        cache_window = self.stage_cache.snapshot()
        executor = PipelineExecutor(build_flow_stages(),
                                    cache=self.stage_cache)
        ctx = FlowContext(graph=graph, arch=self.arch, deadline=deadline,
                          partitioner=self.partitioner,
                          comm_options=(self.reuse_memory,
                                        self.allow_direct_comm))

        # HLS area feedback: partitioning works on the quick estimator;
        # if the *synthesized* datapath of a device overflows its CLB
        # capacity, a node is evicted to software and HLS reruns (the
        # estimate-update loop of iterative co-design flows).  Only the
        # partitioning/hls artifacts change here, so the executor never
        # touches the STG or communication stages inside this loop.
        problem = PartitioningProblem(graph, self.arch, deadline=deadline)
        repairs = 0
        while True:
            executor.request(ctx, ["hls_results"])
            hls_results: dict[str, SharedDatapathResult] = \
                ctx.get("hls_results")
            overflowing = [f for f in self.arch.fpgas
                           if hls_results[f.name].total_area_clbs
                           > f.clb_capacity]
            if not overflowing or not self.arch.processors:
                break
            repairs += 1
            worst = overflowing[0]
            executor.refine(ctx, "partitioning", lambda ctx: _area_repair(
                ctx, problem, hls_results[worst.name], worst.name,
                self.arch.processor_names[0], repairs))
            if repairs > len(graph):
                raise RuntimeError("HLS area repair failed to converge")
        if repairs:
            # remember the *converged* mapping for these inputs so the
            # next run with the same (graph, arch, deadline, partitioner)
            # skips the eviction search entirely
            executor.commit_outputs(ctx, "partitioning")

        # co-synthesis of the converged schedule: STG construction,
        # communication refinement, controllers, code generation.
        executor.request(ctx, ["minimization", "plan", "vhdl_files",
                               "c_files", "netlist", "composition_check"])

        sim_result: SimResult | None = None
        if stimuli is not None:
            ctx.put("stimuli", stimuli)
            executor.request(ctx, ["sim_result"])
            sim_result = ctx.get("sim_result")

        hls_results = ctx.get("hls_results")
        c_files: dict[str, str] = ctx.get("c_files")
        design_time = DesignTimeReport(
            measured_stages=dict(executor.stage_seconds))
        model = DesignTimeModel()
        design_time.hw_synthesis_s = model.hardware_seconds(
            {r: h.total_area_clbs for r, h in hls_results.items()})
        design_time.sw_compile_s = model.software_seconds(len(c_files))

        # the top-level dict artifacts (and partition stats) are copied
        # so the common caller mutations cannot corrupt the stage cache;
        # the deep co-synthesis artifacts (stg, plan, hls internals) are
        # shared with the cache and must be treated as read-only
        partition_result: PartitionResult = ctx.get("partition_result")
        partition_result = dataclasses.replace(
            partition_result, stats=dict(partition_result.stats))
        return FlowResult(
            graph=graph, arch=self.arch,
            partition_result=partition_result,
            stg_full=ctx.get("stg_full"), stg=ctx.get("stg"),
            minimization=ctx.get("minimization"),
            plan=ctx.get("plan"), controller=ctx.get("controller"),
            io_controller=ctx.get("io_controller"),
            datapath_controllers=dict(ctx.get("datapath_controllers")),
            hls_results=dict(hls_results),
            vhdl_files=dict(ctx.get("vhdl_files")), c_files=dict(c_files),
            netlist=ctx.get("netlist"),
            sim_result=sim_result,
            composition_check=ctx.get("composition_check"),
            guard_report=ctx.get("guard_report"),
            stage_seconds=dict(executor.stage_seconds),
            design_time=design_time,
            stage_runs=dict(executor.stage_runs),
            cache_stats=self.stage_cache.stats(since=cache_window),
        )
