"""Pipeline engine: monolith-equivalent vs incremental re-runs, batch sweep.

Three measurements, persisted to ``BENCH_flow_pipeline.json`` at the
repo root so later PRs have a perf trajectory to beat:

* ``cold_run_s`` -- a full flow on an empty stage cache (what the old
  monolithic ``CoolFlow.run`` always cost);
* ``warm_run_s`` -- the same flow again on the same (graph, arch) pair:
  every stage is served from the cross-run stage cache;
* ``batch`` -- a partitioner x architecture sweep through
  :class:`~repro.flow.batch.BatchRunner` on both backends (serial, and
  shard with 2 shards over 2 worker processes); for these 8 small jobs
  the worker start-up can outweigh the parallelism.
"""

import json
import time
from pathlib import Path

from repro.apps import four_band_equalizer, fuzzy_controller
from repro.flow import BatchRunner, CoolFlow, FlowJob
from repro.partition import GreedyPartitioner, MilpPartitioner
from repro.platform import cool_board, minimal_board

RESULTS_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_flow_pipeline.json"
#: Shard count and worker processes of the shard-backend sweep.
SHARD_WORKERS = 2


def _sweep_jobs():
    equalizer = four_band_equalizer(words=8)
    fuzzy = fuzzy_controller()
    jobs = []
    for arch in (minimal_board(), cool_board()):
        for partitioner in (GreedyPartitioner(), MilpPartitioner()):
            for graph in (equalizer, fuzzy):
                jobs.append(FlowJob(graph=graph, arch=arch,
                                    partitioner=partitioner))
    return jobs


def measure():
    graph = four_band_equalizer(words=8)
    flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())

    started = time.perf_counter()
    cold = flow.run(graph)
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    warm = flow.run(graph)
    warm_s = time.perf_counter() - started

    backends = {}
    all_ok = True
    for backend, runner in (
            ("serial", BatchRunner()),
            ("shard", BatchRunner(shards=SHARD_WORKERS,
                                  max_workers=SHARD_WORKERS))):
        started = time.perf_counter()
        outcomes = runner.run(_sweep_jobs())
        backends[backend] = round(time.perf_counter() - started, 6)
        all_ok = all_ok and all(o.ok for o in outcomes)

    return {
        "cold_run_s": round(cold_s, 6),
        "warm_run_s": round(warm_s, 6),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "cold_stage_runs": sum(cold.stage_runs.values()),
        "warm_stage_runs": sum(warm.stage_runs.values()),
        "batch": {
            "jobs": len(_sweep_jobs()),
            "workers": SHARD_WORKERS,
            "seconds_per_backend": backends,
            "all_ok": all_ok,
        },
    }


def test_flow_pipeline_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)

    assert payload["warm_stage_runs"] == 0, \
        "second run of an unchanged design must be fully cache-served"
    assert payload["warm_run_s"] < payload["cold_run_s"]
    assert payload["batch"]["all_ok"]

    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print("\nPipeline engine -- incremental & batch timings:")
    print(f"  cold full flow      : {payload['cold_run_s'] * 1e3:8.1f} ms "
          f"({payload['cold_stage_runs']} stage executions)")
    print(f"  warm (cache-served) : {payload['warm_run_s'] * 1e3:8.1f} ms "
          f"({payload['warm_speedup']}x faster)")
    batch = payload["batch"]
    for backend, seconds in batch["seconds_per_backend"].items():
        print(f"  batch {batch['jobs']} jobs [{backend:>7}] : "
              f"{seconds * 1e3:8.1f} ms")
    print(f"  results -> {RESULTS_PATH.name}")
