"""One repetition of one benchmark phase, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every timed phase
begins with cold stage caches, cold module-level memos and a fresh
artifact store: no repetition can warm the next.  Phases:

``suite52``
    Serial sweep of ``workload_suite(52, suite_seed)`` on
    ``minimal_board`` with ``GreedyPartitioner`` and stimuli, no store.
``scale_verify``
    ``verify_composition`` on the spread-mapped ``scale_suite((size,))``
    design; its schedule, STG and controllers are built in set-up.
``store_cold``
    Cold ``map_reduce_sweep(shards=2, max_workers=2)`` of spec-based
    suite jobs into an empty store.
``store_warm``
    The same jobs on the serial backend against the store that a
    ``store_cold`` phase filled (a warm restart in a new process).

``--seed`` draws the stimuli (the store phases: the job order, see
:func:`_suite_jobs`); the designs depend only on ``--suite-seed`` and
``--scale-size``.  Every time is taken in raw seconds and reported in
reference seconds (``hostclock.py``): a :class:`hostclock.HostClock`
samples the host's speed for the whole repetition, and one more in each
shard worker.  The result (timings, gate verdicts, exact counts and,
with ``--trace``, the per-layer metrics) is written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import pickle
import random
import resource
import time
from pathlib import Path

import repro.flow.shard as shard_module
from repro.codegen.vhdl import fsm_to_vhdl, guard_literal_count
from repro.comm.refine import refine_communication
from repro.controllers import synthesize_system_controller, verify_composition
from repro.controllers.guards import harvest_care_sets
from repro.estimate import CostModel
from repro.flow import BatchRunner, FlowJob, design_point_of, map_reduce_sweep
from repro.flow.shard import payload_of
from repro.graph import execute, from_mapping
from repro.hls.driver import synthesize_resource
from repro.obs import Tracer, activate
from repro.partition import GreedyPartitioner
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.sim.system import CoSimulation
from repro.stg import build_stg, minimize_stg
from repro.store import ArtifactStore
from repro.workloads import scale_suite, stimuli_for, workload_suite

import hostclock
import layers

SUITE_SIZE = 52
SHARDS = 2
#: Set-ups per repetition: set-up is short, so its median needs several.
SETUPS = 5


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _set_up(build, report: dict):
    """Run ``build`` ``SETUPS`` times and return the last result; the
    interval of every run goes to ``report["setup_spans"]``."""
    report["setup_spans"] = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        built = build()
        report["setup_spans"].append((started, time.perf_counter()))
    return built


def _timed(fn, trace: bool, report: dict):
    """``(result, spans)`` of ``fn`` with tracing on or off; the
    phase's interval goes to ``report["wall_span"]``."""
    gc.collect()
    tracer = Tracer() if trace else None
    with activate(tracer):
        started = time.perf_counter()
        result = fn()
        report["wall_span"] = (started, time.perf_counter())
    return result, tracer.spans() if trace else []


def _settle(report: dict, clock: hostclock.HostClock,
            wall_clock: hostclock.HostClock | None = None) -> None:
    """Set-up and phase times in reference seconds (and the raw wall);
    ``wall_clock`` holds the samples of the process that did the timed
    phase's work, if that is not this one."""
    report["setup_s"] = [clock.seconds(*span)
                         for span in report.pop("setup_spans")]
    wall_clock = wall_clock or clock
    started, ended = report["wall_span"]
    report["raw_wall_s"] = ended - started
    report["wall_s"] = wall_clock.seconds(started, ended)
    report["host_speed"] = wall_clock.speed(started, ended)


@contextlib.contextmanager
def _sampled_shards(directory: Path):
    """Run every shard of a sharded sweep under a host clock of its
    worker process, which writes its samples to ``directory``."""
    original = shard_module.run_shard

    @functools.wraps(original)
    def run_shard(shard, *args, **kwargs):
        with hostclock.HostClock() as clock:
            started = time.perf_counter()
            outcome = original(shard, *args, **kwargs)
            ended = time.perf_counter()
        (directory / f"shard-{shard.index}.json").write_text(json.dumps({
            "jobs": [payload.index for payload in shard.payloads],
            "span": [started, ended],
            "stamps": clock.stamps, "costs": clock.costs}))
        return outcome

    directory.mkdir()
    # the pool forks after this, so its workers run the wrapper
    shard_module.run_shard = run_shard
    try:
        yield
    finally:
        shard_module.run_shard = original


def _shard_samples(directory: Path) -> list[dict]:
    shards = []
    for path in sorted(directory.glob("shard-*.json")):
        row = json.loads(path.read_text(encoding="utf-8"))
        row["clock"] = hostclock.HostClock(row["stamps"], row["costs"])
        shards.append(row)
    return shards


# ----------------------------------------------------------------------
# suite jobs (suite52, store_cold, store_warm)
# ----------------------------------------------------------------------
def _suite_jobs(args, spec_based: bool) -> list[FlowJob]:
    """The suite's jobs: graph-based ones with stimuli drawn from
    ``--seed``, or spec-based ones for the store sweep.

    The sharded sweep assigns a job to a shard by a hash of its content,
    stimuli included, so seed-drawn stimuli would move designs between
    the two shards and the sweep's wall-clock (its longest shard) with
    them.  The spec-based jobs take their stimuli from ``--suite-seed``
    and ``--seed`` shuffles their order instead, which the plan ignores.
    """
    arch = minimal_board()
    jobs = []
    for spec in workload_suite(SUITE_SIZE, seed=args.suite_seed):
        graph = spec.build()
        stimuli = stimuli_for(graph, seed=args.suite_seed if spec_based
                              else args.seed)
        jobs.append(FlowJob(graph=None if spec_based else graph,
                            workload=spec if spec_based else None,
                            arch=arch, partitioner=GreedyPartitioner(),
                            stimuli=stimuli))
    if spec_based:
        random.Random(args.seed).shuffle(jobs)
    return jobs


def _point_row(point) -> list:
    return list(dataclasses.astuple(point))


def _check_flows(outcomes, report: dict) -> None:
    """Gate every flow result and add its exact counts to ``report``.

    A job fails when the flow raised, the composition proof did not
    hold, or the co-simulation disagrees with the golden interpreter
    on any output node.
    """
    counts = report["counts"]
    for key in ("guard_literals", "makespan_ticks", "area_clbs",
                "memory_words", "verify.pairs_checked",
                "verify.product_states", "stg.states_after"):
        counts.setdefault(key, 0)
    for outcome in outcomes:
        report["attempted"] += 1
        report["checked"] += 1
        report["cosim_checked"] += 1
        label = outcome.job.name
        if not outcome.ok:
            report["failures"].append(f"{label}: {outcome.error}")
            continue
        result = outcome.result
        check = result.composition_check
        golden = execute(result.graph, outcome.job.stimuli)
        matched = result.sim_result is not None and all(
            result.sim_result.outputs.get(node.name) == golden[node.name]
            for node in result.graph.outputs())
        report["verified"] += bool(check is not None and check.equivalent)
        report["cosim_matched"] += matched
        if check is None or not check.equivalent:
            report["failures"].append(f"{label}: composition not proved")
        elif not matched:
            report["failures"].append(f"{label}: cosim differs from "
                                      f"repro.graph.execute")
        point = design_point_of(result, label, outcome.job.deadline)
        report["points"][label] = _point_row(point)
        counts["guard_literals"] += \
            result.guard_report["guard_literals_after"]
        counts["makespan_ticks"] += point.makespan
        counts["area_clbs"] += point.total_clbs
        counts["memory_words"] += point.memory_words
        counts["verify.pairs_checked"] += check.pairs_checked
        counts["verify.product_states"] += check.product_states
        counts["stg.states_after"] += result.minimization.states_after


def phase_suite52(args, report: dict, clock: hostclock.HostClock) -> None:
    jobs = _set_up(lambda: _suite_jobs(args, False), report)
    ended = []   # serial jobs: each starts where the previous one ended

    def progress(outcome, done, total):
        ended.append(time.perf_counter())

    outcomes, spans = _timed(
        lambda: BatchRunner(backend="serial").run(jobs, progress=progress),
        args.trace, report)
    report["peak_rss_mb"] = _peak_rss_mb()
    _check_flows(outcomes, report)
    _settle(report, clock)
    starts = [report["wall_span"][0]] + ended[:-1]
    for outcome, started, stopped in zip(outcomes, starts, ended,
                                         strict=True):
        report["job_seconds"][outcome.job.name] = clock.seconds(
            started, stopped, busy=outcome.seconds)
    if args.trace:
        report["layers"] = layers.layer_metrics(spans)


def phase_store_cold(args, report: dict, clock: hostclock.HostClock) -> None:
    jobs = _set_up(lambda: _suite_jobs(args, True), report)
    samples = Path(args.out).with_suffix(".shards")
    with _sampled_shards(samples):
        sweep, spans = _timed(
            lambda: map_reduce_sweep(jobs, shards=SHARDS, max_workers=SHARDS,
                                     store_path=args.store),
            args.trace, report)
    report["peak_rss_mb"] = max(_peak_rss_mb(),
                                _peak_rss_mb(resource.RUSAGE_CHILDREN))
    shards = _shard_samples(samples)
    # the longest shard sets the sweep's wall-clock, so the sweep takes
    # the host speed that shard's worker saw
    longest = max(shards, key=lambda row: row["span"][1] - row["span"][0])
    _settle(report, clock, wall_clock=longest["clock"])
    job_seconds = {}
    for row in shards:
        # a worker runs its shard's jobs back to back, in plan order
        started = row["span"][0]
        for index in row["jobs"]:
            busy = sweep.outcomes[index].seconds
            job_seconds[index] = row["clock"].seconds(
                started, started + busy, busy=busy)
            started += busy
    counts = report["counts"]
    for key in ("makespan_ticks", "area_clbs", "memory_words"):
        counts[key] = 0
    for index, outcome in enumerate(sweep.outcomes):
        report["attempted"] += 1
        report["job_seconds"][outcome.job.name] = job_seconds[index]
        if not outcome.ok:
            report["failures"].append(f"{outcome.job.name}: "
                                      f"{outcome.error}")
            continue
        point = outcome.point
        report["points"][outcome.job.name] = _point_row(point)
        counts["makespan_ticks"] += point.makespan
        counts["area_clbs"] += point.total_clbs
        counts["memory_words"] += point.memory_words
    store = ArtifactStore(args.store)
    stats = store.stats()
    counts["store.records_written"] = stats["entries"]
    stats_row = sweep.shard_stats
    report["store"] = {
        "bytes_written": stats["bytes"],
        "quarantined": len(store.quarantined_files()),
        "map_s": stats_row.map_seconds,
        "reduce_s": stats_row.reduce_seconds,
        "shard_s": [row["seconds"] for row in stats_row.shards],
        "workers": stats_row.workers,
        "payload_bytes": sum(len(pickle.dumps(payload_of(job, index)))
                             for index, job in enumerate(jobs)),
    }
    if args.trace:
        report["layers"] = layers.layer_metrics(spans)


def phase_store_warm(args, report: dict, clock: hostclock.HostClock) -> None:
    jobs = _set_up(lambda: _suite_jobs(args, True), report)
    with open(args.cold, encoding="utf-8") as handle:
        cold_points = json.load(handle)["points"]

    def restart():
        runner = BatchRunner(backend="serial", store=args.store)
        return runner, runner.run(jobs)

    (runner, outcomes), spans = _timed(restart, args.trace, report)
    _settle(report, clock)
    _check_flows(outcomes, report)
    for label, row in report["points"].items():
        if cold_points.get(label) != row:
            report["failures"].append(f"{label}: warm-restart design "
                                      f"point differs from the cold one")
    l2 = runner.stage_cache.stats()["l2"]
    report["store"] = {"l2_hits": l2["hits"],
                       "l2_lookups": l2["hits"] + l2["misses"],
                       "quarantined": l2["quarantined"]}
    if args.trace:
        report["layers"] = layers.layer_metrics(spans)


# ----------------------------------------------------------------------
# scale_verify
# ----------------------------------------------------------------------
def _scale_design(size: int) -> dict:
    """The spread-mapped scale design, as bench_verify_composition maps it."""
    board = cool_board()
    spec = scale_suite((size,))[0]
    graph = spec.build()
    rng = random.Random(spec.nodes)
    mapping = {node.name: rng.choice(board.resource_names)
               for node in graph.internal_nodes()}
    partition = from_mapping(graph, mapping, board.fpga_names,
                             board.processor_names)
    schedule = list_schedule(partition, CostModel(graph, board))
    stg, minimization = minimize_stg(build_stg(schedule))
    return {"board": board, "graph": graph, "partition": partition,
            "schedule": schedule, "stg": stg, "minimization": minimization,
            "controller": synthesize_system_controller(stg)}


def _scale_quality(design: dict, seed: int) -> tuple[dict, bool]:
    """Exact quality counts and the cosim gate of the scale design.

    Untimed and untraced: HLS area, communication memory, simplified
    guard literals of the verified controllers, and a co-simulation of
    those controllers against the golden interpreter.
    """
    board, graph, controller = (design["board"], design["graph"],
                                design["controller"])
    plan = refine_communication(design["schedule"], board)
    hls = {fpga.name: synthesize_resource(graph, design["partition"],
                                          fpga.name, fpga)
           for fpga in board.fpgas}
    care = harvest_care_sets(controller)
    literals = sum(guard_literal_count(
        fsm_to_vhdl(fsm, simplify=True, care_of=care.get(fsm.name)))
        for fsm in controller.fsms)
    latencies = {}
    for resource_name, result in hls.items():
        if result.latencies:
            ratio = board.bus.clock_hz / board.fpga(resource_name).clock_hz
            latencies[resource_name] = {
                node: max(1, round(cycles * ratio))
                for node, cycles in result.latencies.items()}
    stimuli = stimuli_for(graph, seed=seed)
    sim = CoSimulation(graph, design["partition"], design["schedule"], plan,
                       controller, board, stimuli,
                       latencies=latencies).run()
    golden = execute(graph, stimuli)
    matched = all(sim.outputs.get(node.name) == golden[node.name]
                  for node in graph.outputs())
    return {"guard_literals": literals,
            "makespan_ticks": design["schedule"].makespan,
            "area_clbs": sum(h.total_area_clbs for h in hls.values()),
            "memory_words": plan.memory_map.words_used}, matched


def phase_scale_verify(args, report: dict,
                       clock: hostclock.HostClock) -> None:
    design = _set_up(lambda: _scale_design(args.scale_size), report)
    verify = layers.wrap(verify_composition, "verify",
                         layers.annotate_oracle) \
        if args.trace else verify_composition

    def verdict():
        try:
            return verify(design["stg"], design["controller"],
                          graph=design["graph"]), None
        except Exception as exc:  # a crashed proof is a failed job
            return None, f"{type(exc).__name__}: {exc}"

    (check, error), spans = _timed(verdict, args.trace, report)
    report["peak_rss_mb"] = _peak_rss_mb()
    _settle(report, clock)
    label = design["graph"].name
    report["attempted"] = report["checked"] = 1
    report["job_seconds"][label] = report["wall_s"]
    if check is None:
        report["failures"].append(f"{label}: {error}")
    else:
        # the known answer: the spread-mapped controllers are correct,
        # and the design lies beyond the explicit oracle's bound
        report["verified"] = int(check.equivalent)
        if not check.equivalent or check.tier != "symbolic":
            report["failures"].append(
                f"{label}: verdict {check.equivalent} by tier "
                f"{check.tier}, expected a symbolic proof of equivalence")
        report["counts"].update({
            "verify.pairs_checked": check.pairs_checked,
            "verify.product_states": check.product_states,
            "stg.states_after": design["minimization"].states_after})
    if args.trace:
        report["layers"] = layers.layer_metrics(spans)
    if args.quality:
        started = time.perf_counter()
        quality, matched = _scale_quality(design, args.seed)
        report["untimed_s"] = time.perf_counter() - started
        report["counts"].update(quality)
        report["cosim_checked"] = 1
        report["cosim_matched"] = int(matched)
        if not matched:
            report["failures"].append(f"{label}: cosim of the verified "
                                      f"controllers differs from "
                                      f"repro.graph.execute")


PHASES = {"suite52": phase_suite52, "scale_verify": phase_scale_verify,
          "store_cold": phase_store_cold, "store_warm": phase_store_warm}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--suite-seed", type=int, required=True)
    parser.add_argument("--scale-size", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quality", action="store_true")
    parser.add_argument("--store")
    parser.add_argument("--cold")
    args = parser.parse_args(argv)
    if args.trace:
        layers.install()
    report = {"phase": args.phase, "attempted": 0, "failures": [],
              "checked": 0, "verified": 0,
              "cosim_checked": 0, "cosim_matched": 0,
              "job_seconds": {}, "points": {}, "counts": {}}
    with hostclock.HostClock() as clock:
        PHASES[args.phase](args, report, clock)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
