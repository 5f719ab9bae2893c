"""Observability overhead: tracing must be (nearly) free.

Every runtime layer is instrumented *unconditionally* -- the
``repro.obs`` span helpers no-op when no tracer is active -- so the one
number that decides whether that design is acceptable is the overhead
of (a) the disabled fast path and (b) a fully-collected trace.  Writes
``BENCH_obs_overhead.json`` at the repo root:

* ``overhead_gate`` -- the workload suite through the serial backend,
  instrumented (``activate(Tracer())``) vs uninstrumented
  (``activate(None)``), interleaved best-of-N so machine drift hits
  both arms equally.  Traced wall-clock must be within
  ``OVERHEAD_GATE`` (5%) of untraced.  The traced arm also holds the
  enforced ``stage_clock_agrees`` gate: per stage, the ``stage_seconds``
  the flows report, summed over the sweep, equal the durations of the
  traced ``stage`` spans -- one clock, so exactly equal;
* ``sharded_trace`` -- a store-backed ``map_reduce_sweep`` (4 shards)
  under an active tracer: the merged trace must contain in-worker spans
  from >= 2 distinct worker processes, every job span re-parented under
  its shard span, and ``render_report`` must render from the trace file
  on disk -- the end-to-end acceptance criterion of PR 10.

The traced sweep's JSONL is left at ``obs_trace.jsonl`` (repo root) for
CI to upload as an artifact; it is wall-clock data and is *not*
committed.

Runs under pytest-benchmark or standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --designs 12
"""

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.flow import BatchRunner, FlowJob, map_reduce_sweep
from repro.obs import (Tracer, activate, load_trace, render_report,
                       write_trace)
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.workloads import workload_suite

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_obs_overhead.json"
TRACE_PATH = REPO_ROOT / "obs_trace.jsonl"

DEFAULT_DESIGNS = 52
DEFAULT_WORKERS = 4
SUITE_SEED = 29

#: Maximum tolerated slowdown of a fully-traced serial sweep over the
#: identical untraced sweep (best-of-N interleaved pairs).
OVERHEAD_GATE = 0.05

#: Interleaved measurement pairs; the minimum of each arm is compared.
REPEATS = 2


def _jobs(n_designs: int, seed: int):
    arch = minimal_board()
    return [FlowJob(workload=spec, arch=arch,
                    partitioner=GreedyPartitioner())
            for spec in workload_suite(n_designs, seed=seed)]


def _serial_pass(n_designs: int, seed: int, tracer):
    """One serial sweep under ``tracer`` (None = explicitly untraced):
    its seconds, and its :func:`stage_clock` when traced."""
    jobs = _jobs(n_designs, seed)  # fresh jobs: no cross-pass caching
    runner = BatchRunner(backend="serial")
    started = time.perf_counter()
    with activate(tracer):
        outcomes = runner.run(jobs)
    seconds = time.perf_counter() - started
    assert all(o.ok for o in outcomes)
    return seconds, (stage_clock(outcomes, tracer)
                     if tracer is not None else None)


def stage_clock(outcomes, tracer) -> dict[str, dict[str, float]]:
    """Per stage: ``stage_seconds`` summed over the sweep's flows, and
    the traced ``stage`` span durations summed the same way (per flow
    in span order, then over the flows in job order)."""
    spans = tracer.spans()
    flows = [s for s in spans if s.kind == "flow"]
    assert len(flows) == len(outcomes)
    reported: dict[str, float] = {}
    traced: dict[str, float] = {}
    for flow, outcome in zip(flows, outcomes):
        assert flow.attributes["graph"] == outcome.result.graph.name
        per_flow: dict[str, float] = {}
        for entry in spans:
            if entry.kind == "stage" and entry.parent_id == flow.span_id:
                per_flow[entry.name] = \
                    per_flow.get(entry.name, 0.0) + entry.duration
        for stage, seconds in per_flow.items():
            traced[stage] = traced.get(stage, 0.0) + seconds
        for stage, seconds in outcome.result.stage_seconds.items():
            reported[stage] = reported.get(stage, 0.0) + seconds
    return {stage: {"stage_seconds": reported.get(stage),
                    "traced": traced.get(stage)}
            for stage in sorted(set(reported) | set(traced))}


def measure_overhead(n_designs: int, seed: int) -> dict:
    """Interleaved traced/untraced serial sweeps, best-of-N each arm."""
    untraced, traced, span_counts, clocks = [], [], [], []
    for _ in range(REPEATS):
        untraced.append(_serial_pass(n_designs, seed, None)[0])
        tracer = Tracer()
        seconds, clock = _serial_pass(n_designs, seed, tracer)
        traced.append(seconds)
        span_counts.append(len(tracer))
        clocks.append(clock)
    disagreeing = sorted({stage for clock in clocks
                          for stage, row in clock.items()
                          if row["stage_seconds"] != row["traced"]})
    best_untraced, best_traced = min(untraced), min(traced)
    overhead = (best_traced - best_untraced) / best_untraced
    return {
        "designs": n_designs,
        "repeats": REPEATS,
        "untraced_seconds": [round(s, 6) for s in untraced],
        "traced_seconds": [round(s, 6) for s in traced],
        "best_untraced_seconds": round(best_untraced, 6),
        "best_traced_seconds": round(best_traced, 6),
        "spans_per_traced_pass": span_counts[0],
        "overhead": round(overhead, 6),
        "gate": OVERHEAD_GATE,
        "stage_clock_agrees": {
            "enforced": True,
            "traced_passes": len(clocks),
            "disagreeing_stages": disagreeing,
            "agrees": not disagreeing,
            "stages": {stage: {key: round(value, 6)
                               for key, value in row.items()}
                       for stage, row in clocks[0].items()},
        },
    }


def measure_sharded_trace(n_designs: int, seed: int, workers: int,
                          trace_path: Path) -> dict:
    """Traced store-backed sharded sweep -> one merged trace on disk."""
    jobs = _jobs(n_designs, seed)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as root:
        with activate(tracer):
            result = map_reduce_sweep(jobs, shards=workers,
                                      max_workers=workers,
                                      store_path=Path(root) / "store")
    assert all(o.ok for o in result.outcomes)
    write_trace(tracer, trace_path)

    spans = load_trace(trace_path)
    by_id = {s["span_id"]: s for s in spans}
    shard_spans = [s for s in spans if s["kind"] == "shard"]
    job_spans = [s for s in spans if s["kind"] == "job"]
    worker_pids = sorted({s["pid"] for s in spans
                          if s["pid"] != os.getpid()})
    jobs_under_shards = sum(
        1 for s in job_spans
        if by_id.get(s["parent_id"], {}).get("kind") == "shard")
    report_text = render_report(spans, top=5)
    return {
        "designs": n_designs,
        "shards": workers,
        "spans": len(spans),
        "kinds": sorted({s["kind"] for s in spans}),
        "coordinator_pid": os.getpid(),
        "worker_pids": worker_pids,
        "shard_spans": len(shard_spans),
        "job_spans": len(job_spans),
        "jobs_reparented_under_shards": jobs_under_shards,
        "report_rendered": "per-stage breakdown" in report_text,
        "trace_file": trace_path.name,
    }


def measure(n_designs: int = DEFAULT_DESIGNS, seed: int = SUITE_SEED,
            workers: int = DEFAULT_WORKERS,
            trace_path: Path = TRACE_PATH) -> dict:
    return {
        "host_cpus": os.cpu_count() or 1,
        "overhead_gate": measure_overhead(n_designs, seed),
        "sharded_trace": measure_sharded_trace(
            min(n_designs, 12), seed, workers, trace_path),
    }


def check(payload: dict) -> None:
    """The observability regression gate (shared by pytest and the CLI)."""
    gate = payload["overhead_gate"]
    assert gate["overhead"] <= gate["gate"], \
        (f"tracing overhead {gate['overhead']:.1%} exceeds the "
         f"{gate['gate']:.0%} gate")
    assert gate["spans_per_traced_pass"] > gate["designs"], \
        "a traced pass must collect at least one span per job"
    clock = gate["stage_clock_agrees"]
    assert clock["agrees"], \
        (f"stage_seconds disagree with the traced stage spans for "
         f"{clock['disagreeing_stages']}")
    trace = payload["sharded_trace"]
    assert len(trace["worker_pids"]) >= 2, \
        (f"the merged trace must carry in-worker spans from >= 2 worker "
         f"processes, saw pids {trace['worker_pids']}")
    assert trace["shard_spans"] == trace["shards"]
    assert trace["job_spans"] == trace["designs"]
    assert trace["jobs_reparented_under_shards"] == trace["designs"], \
        "every worker job span must re-parent under its shard span"
    assert trace["report_rendered"], \
        "the report must render from the merged trace file"


def report(payload: dict) -> str:
    gate = payload["overhead_gate"]
    trace = payload["sharded_trace"]
    lines = ["Observability overhead and merged sharded trace:"]
    lines.append(f"  serial suite     : {gate['designs']} designs, "
                 f"best of {gate['repeats']} interleaved pairs "
                 f"({payload['host_cpus']} cpus)")
    lines.append(f"  untraced         : "
                 f"{gate['best_untraced_seconds'] * 1e3:8.1f} ms")
    lines.append(f"  traced           : "
                 f"{gate['best_traced_seconds'] * 1e3:8.1f} ms "
                 f"({gate['spans_per_traced_pass']} spans)")
    lines.append(f"  overhead         : {gate['overhead']:+.2%} "
                 f"(gate <= {gate['gate']:.0%})")
    clock = gate["stage_clock_agrees"]
    lines.append(f"  stage clock      : stage_seconds == traced stage spans"
                 f" = {clock['agrees']} over "
                 f"{len(clock['stages'])} stages, "
                 f"{clock['traced_passes']} traced passes")
    lines.append(f"  sharded trace    : {trace['spans']} spans, kinds "
                 f"{trace['kinds']}")
    lines.append(f"  worker processes : {len(trace['worker_pids'])} "
                 f"(pids {trace['worker_pids']}), "
                 f"{trace['jobs_reparented_under_shards']}/"
                 f"{trace['job_spans']} jobs under shard spans")
    lines.append(f"  report           : rendered from "
                 f"{trace['trace_file']} = {trace['report_rendered']}")
    return "\n".join(lines)


def test_obs_overhead_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)
    assert payload["overhead_gate"]["designs"] >= DEFAULT_DESIGNS
    check(payload)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + report(payload))
    print(f"  results -> {RESULTS_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Tracing overhead gate and merged sharded trace")
    parser.add_argument("--designs", type=int, default=DEFAULT_DESIGNS,
                        help="suite size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=SUITE_SEED,
                        help="suite seed (default %(default)s)")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        help="shard/worker count (default %(default)s)")
    parser.add_argument("--trace-out", default=str(TRACE_PATH),
                        help="merged trace JSONL path (default %(default)s)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_obs_overhead.json "
                             "(CI smoke runs; the trace file is still "
                             "written for artifact upload)")
    args = parser.parse_args(argv)
    payload = measure(args.designs, args.seed, args.workers,
                      Path(args.trace_out))
    check(payload)
    if not args.no_write:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    if not args.no_write:
        print(f"  results -> {RESULTS_PATH.name}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
