"""Synthetic workload sweep: many generated designs through the batch layer.

Feeds a :func:`repro.workloads.workload_suite` population (>= 50 graphs
by default) through :class:`~repro.flow.batch.BatchRunner` /
:class:`~repro.flow.batch.DesignSpaceExplorer` and persists the numbers
to ``BENCH_workload_sweep.json`` at the repo root:

* ``backends`` -- wall-clock of the full sweep on the ``serial``
  backend and on the ``shard`` backend (2 shards over 2 worker
  processes), plus the determinism check: identical seed must produce
  *identical* ranked results on both;
* ``shared_cache`` -- the same sweep twice on one shared
  :class:`~repro.flow.pipeline.StageCache`: the second pass is served
  stage results across jobs (the cheap way to re-rank a suite).

Poisoned-job isolation on the shard backend is gated by
``bench_shard_sweep.py``.

Runs under pytest-benchmark (``pytest benchmarks/bench_workload_sweep.py``)
or standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_workload_sweep.py --graphs 8
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.flow import BatchRunner, DesignSpaceExplorer, StageCache
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.workloads import build_graphs, workload_suite

RESULTS_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_workload_sweep.json"

DEFAULT_GRAPHS = 50
SUITE_SEED = 7
#: Shard count and worker processes of the shard-backend sweep.
SHARD_WORKERS = 2


def _ranked_view(exploration):
    """Comparable projection of a ranked exploration (no wall-clock)."""
    return [(p.label, p.graph, p.metrics, p.feasible)
            for p in exploration.ranked()]


def _explore(graphs, runner):
    explorer = DesignSpaceExplorer(graphs,
                                   architectures=[minimal_board()],
                                   partitioners=[GreedyPartitioner()],
                                   runner=runner)
    started = time.perf_counter()
    exploration = explorer.explore()
    return exploration, time.perf_counter() - started


def measure(n_graphs: int = DEFAULT_GRAPHS, seed: int = SUITE_SEED) -> dict:
    specs = workload_suite(n_graphs, seed=seed)
    graphs = build_graphs(specs)

    # 1. full sweep per backend + determinism across backends
    backends = {}
    views = {}
    for backend, runner in (
            ("serial", BatchRunner()),
            ("shard", BatchRunner(shards=SHARD_WORKERS,
                                  max_workers=SHARD_WORKERS))):
        exploration, seconds = _explore(graphs, runner)
        views[backend] = _ranked_view(exploration)
        backends[backend] = {
            "seconds": round(seconds, 6),
            "jobs": len(exploration.outcomes),
            "ok": sum(o.ok for o in exploration.outcomes),
            "failed": sum(not o.ok for o in exploration.outcomes),
            "feasible": len(exploration.feasible_points()),
            "pareto": len(exploration.pareto()),
        }
    backends_agree = views["serial"] == views["shard"]

    # 2. shared-cache re-sweep: second pass over an unchanged suite.
    # snapshot() between the passes so the warm-pass hit rate is
    # reported per window (~1.0) instead of diluted by the cold pass
    cache = StageCache(max_entries=4096)
    runner = BatchRunner(backend="serial", stage_cache=cache)
    _, cold_s = _explore(graphs, runner)
    warm_window = cache.snapshot()
    warm_exploration, warm_s = _explore(graphs, runner)
    warm_stage_runs = sum(
        sum(o.result.stage_runs.values())
        for o in warm_exploration.outcomes if o.ok)

    return {
        "suite": {
            "graphs": len(graphs),
            "seed": seed,
            "families": sorted({s.family for s in specs}),
            "total_nodes": sum(len(g) for g in graphs),
        },
        "shard_workers": SHARD_WORKERS,
        "backends": backends,
        "backends_agree": backends_agree,
        "shared_cache": {
            "cold_sweep_s": round(cold_s, 6),
            "warm_sweep_s": round(warm_s, 6),
            "warm_speedup": round(cold_s / warm_s, 2) if warm_s else None,
            "warm_stage_runs": warm_stage_runs,
            "cache": cache.stats(),
            "warm_cache": cache.stats(since=warm_window),
        },
    }


def check(payload: dict) -> None:
    """The sweep-regression gate (shared by pytest and the CLI)."""
    assert payload["backends_agree"], \
        "identical seed must rank identically on serial and shard backends"
    for backend, stats in payload["backends"].items():
        assert stats["failed"] == 0, f"{backend} sweep had failures"
        assert stats["ok"] == payload["suite"]["graphs"]
    assert payload["shared_cache"]["warm_stage_runs"] == 0, \
        "re-sweeping an unchanged suite must be fully cache-served"
    assert payload["shared_cache"]["warm_sweep_s"] < \
        payload["shared_cache"]["cold_sweep_s"]
    warm_cache = payload["shared_cache"]["warm_cache"]
    assert warm_cache["misses"] == 0, "warm pass must never miss"
    assert warm_cache["hit_rate"] >= 0.99, \
        "warm-window hit rate must be ~1.0 (snapshot delta, not lifetime)"


def report(payload: dict) -> str:
    lines = ["Workload sweep -- generated designs through the batch layer:"]
    suite = payload["suite"]
    lines.append(f"  suite               : {suite['graphs']} graphs "
                 f"({suite['total_nodes']} nodes, seed {suite['seed']})")
    for backend, stats in payload["backends"].items():
        lines.append(f"  sweep [{backend:>7}]     : {stats['seconds'] * 1e3:8.1f} ms "
                     f"({stats['ok']}/{stats['jobs']} ok, "
                     f"{stats['pareto']} Pareto)")
    cache = payload["shared_cache"]
    lines.append(f"  re-sweep cold/warm  : {cache['cold_sweep_s'] * 1e3:8.1f} / "
                 f"{cache['warm_sweep_s'] * 1e3:.1f} ms "
                 f"({cache['warm_speedup']}x, warm hit rate "
                 f"{cache['warm_cache']['hit_rate']})")
    return "\n".join(lines)


def test_workload_sweep_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)
    assert payload["suite"]["graphs"] >= 50
    check(payload)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + report(payload))
    print(f"  results -> {RESULTS_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep generated workloads through the batch layer")
    parser.add_argument("--graphs", type=int, default=DEFAULT_GRAPHS,
                        help="suite size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=SUITE_SEED,
                        help="suite seed (default %(default)s)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_workload_sweep.json "
                             "(CI smoke runs)")
    args = parser.parse_args(argv)
    payload = measure(args.graphs, args.seed)
    check(payload)
    if not args.no_write:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    if not args.no_write:
        print(f"  results -> {RESULTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
