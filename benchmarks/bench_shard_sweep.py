"""Sharded map-reduce sweep: wall-clock speedup on a real multi-core backend.

Drives a :func:`repro.workloads.workload_suite` population (200+ designs
by default) through the ``"shard"`` backend of
:class:`~repro.flow.batch.BatchRunner` and persists the evidence to
``BENCH_shard_sweep.json`` at the repo root:

* ``sweeps`` -- wall-clock of the identical sweep on ``serial`` vs
  ``shard`` (4 worker processes), plus the bit-identity check: outcomes,
  Pareto front and ranking order must match the serial reference
  exactly;
* ``speedup_gate`` -- >= 2x over serial with 4 workers, *enforced only
  on a multi-core host at full suite size* (a 1-core container cannot
  speed anything up; the gate records why it was skipped);
* ``shards`` -- the map-reduce evidence: per-shard job counts, worker
  pids (distinct pids prove real process parallelism) and the merged
  per-worker stage-cache statistics;
* ``isolation`` -- an unpicklable job must fail at *submission time*
  with an error naming the offending field, never poison the pool.

Runs under pytest-benchmark (``pytest benchmarks/bench_shard_sweep.py``)
or standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_shard_sweep.py --designs 16
"""

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

from bench_artifact_store import fresh_process_sweep
from repro.flow import BatchRunner, DesignSpaceExplorer, FlowJob
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.workloads import workload_suite

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_shard_sweep.json"

DEFAULT_DESIGNS = 200
DEFAULT_WORKERS = 4
SUITE_SEED = 13

#: Suite size of the restart-the-process warm-start assertion (an
#: always-enforced correctness gate, not a perf measurement, so it runs
#: on a deliberately small sub-suite even at full benchmark size).
RESTART_DESIGNS = 8
RESTART_L2_GATE = 0.5

#: The speedup gate is only meaningful at full suite size on a host with
#: at least this many cores; smaller runs record why it was skipped.
GATE_MIN_CPUS = 4
GATE_SPEEDUP = 2.0


class _UnpicklablePartitioner(GreedyPartitioner):
    """Cannot cross a process boundary (holds a thread lock)."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()


def _ranked_view(exploration):
    """Comparable projection of a ranked exploration (no wall-clock)."""
    return [(p.label, p.graph, p.metrics, p.feasible)
            for p in exploration.ranked()]


def _explore(specs, runner):
    explorer = DesignSpaceExplorer(specs,
                                   architectures=[minimal_board()],
                                   partitioners=[GreedyPartitioner()],
                                   runner=runner)
    started = time.perf_counter()
    exploration = explorer.explore()
    return exploration, time.perf_counter() - started


def measure(n_designs: int = DEFAULT_DESIGNS, seed: int = SUITE_SEED,
            workers: int = DEFAULT_WORKERS) -> dict:
    # compact payloads by construction: the specs (not built graphs) go
    # into the jobs, so every worker builds its designs in-process
    specs = workload_suite(n_designs, seed=seed)

    serial_exp, serial_s = _explore(specs, BatchRunner(backend="serial"))
    shard_runner = BatchRunner(shards=workers, max_workers=workers)
    shard_exp, shard_s = _explore(specs, shard_runner)

    identical = (
        _ranked_view(shard_exp) == _ranked_view(serial_exp)
        and shard_exp.points == serial_exp.points
        and shard_exp.pareto() == serial_exp.pareto()
        and [o.ok for o in shard_exp.outcomes]
        == [o.ok for o in serial_exp.outcomes])

    stats = shard_runner.shard_stats
    cpus = os.cpu_count() or 1
    speedup = round(serial_s / shard_s, 2) if shard_s else None
    gate_enforced = cpus >= GATE_MIN_CPUS and n_designs >= DEFAULT_DESIGNS
    if gate_enforced:
        gate_reason = f"multi-core host ({cpus} cpus), full suite"
    elif cpus < GATE_MIN_CPUS:
        gate_reason = (f"host has {cpus} cpu(s) < {GATE_MIN_CPUS}: worker "
                       f"processes share too few cores for a "
                       f"{GATE_SPEEDUP}x speedup")
    else:
        gate_reason = (f"smoke suite ({n_designs} < {DEFAULT_DESIGNS} "
                       f"designs): pool startup dominates")

    # isolation: a poisoned job fails at submission, named, pool unharmed
    arch = minimal_board()
    jobs = [FlowJob(workload=specs[0], arch=arch,
                    partitioner=GreedyPartitioner(), label="good"),
            FlowJob(workload=specs[-1], arch=arch,
                    partitioner=_UnpicklablePartitioner(), label="poison")]
    order = []
    outcomes = BatchRunner(shards=2, max_workers=2).run(
        jobs, progress=lambda o, d, t: order.append(o.job.name))

    # restart-the-process warm start: a brand-new python process swept
    # against the store the first one left behind must be served from
    # the persistent tier and reproduce the same points bit-exactly
    restart_designs = min(RESTART_DESIGNS, n_designs)
    with tempfile.TemporaryDirectory(prefix="bench-shard-store-") as root:
        store_path = Path(root) / "store"
        first = fresh_process_sweep(restart_designs, seed, 2, store_path)
        second = fresh_process_sweep(restart_designs, seed, 2, store_path)
    restart_l2 = second["cache"]["l2"]
    warm_restart = {
        "designs": restart_designs,
        "process_restarted": first["pid"] != second["pid"],
        "identical": all(second[view] == first[view]
                         for view in ("points", "pareto", "ranked")),
        "l2_hit_rate": round(
            restart_l2["hits"]
            / max(1, restart_l2["hits"] + restart_l2["misses"]), 4),
        "required": RESTART_L2_GATE,
        "cold_fallbacks": second["cache"]["cold_fallbacks"],
    }

    return {
        "suite": {
            "designs": len(specs),
            "seed": seed,
            "families": sorted({s.family for s in specs}),
        },
        "host_cpus": cpus,
        "sweeps": {
            "serial": {"seconds": round(serial_s, 6),
                       "ok": sum(o.ok for o in serial_exp.outcomes),
                       "pareto": len(serial_exp.pareto())},
            "shard": {"seconds": round(shard_s, 6),
                      "workers": workers,
                      "ok": sum(o.ok for o in shard_exp.outcomes),
                      "pareto": len(shard_exp.pareto())},
        },
        "identical_to_serial": identical,
        "speedup_gate": {
            "speedup": speedup,
            "required": GATE_SPEEDUP,
            "enforced": gate_enforced,
            "reason": gate_reason,
        },
        "shards": {
            "planned": stats.planned_shards,
            "map_seconds": round(stats.map_seconds, 6),
            "reduce_seconds": round(stats.reduce_seconds, 6),
            "distinct_worker_pids": len({row["pid"]
                                         for row in stats.shards}),
            "per_shard": stats.shards,
            "merged_cache": stats.cache,
        },
        "isolation": {
            "jobs": len(outcomes),
            "ok_outcomes": sum(o.ok for o in outcomes),
            "failed_outcomes": sum(not o.ok for o in outcomes),
            "poison_error": next((o.error for o in outcomes if not o.ok),
                                 None),
            "poison_rejected_first": bool(order) and order[0] == "poison",
        },
        "warm_restart": warm_restart,
    }


def check(payload: dict) -> None:
    """The shard-sweep regression gate (shared by pytest and the CLI)."""
    assert payload["identical_to_serial"], \
        "sharded sweep must be bit-identical to the serial backend"
    sweeps = payload["sweeps"]
    assert sweeps["serial"]["ok"] == payload["suite"]["designs"]
    assert sweeps["shard"]["ok"] == sweeps["serial"]["ok"]
    gate = payload["speedup_gate"]
    if gate["enforced"]:
        assert gate["speedup"] >= gate["required"], \
            (f"shard backend must be >= {gate['required']}x over serial "
             f"on a multi-core host, got {gate['speedup']}x")
    shards = payload["shards"]
    assert shards["planned"] == len(shards["per_shard"])
    assert sum(row["jobs"] for row in shards["per_shard"]) == \
        payload["suite"]["designs"]
    assert shards["merged_cache"]["caches"] >= 1
    isolation = payload["isolation"]
    assert isolation["failed_outcomes"] == 1
    assert isolation["ok_outcomes"] == isolation["jobs"] - 1
    assert "partitioner" in isolation["poison_error"], \
        "submission-time validation must name the offending field"
    assert "pickle" in isolation["poison_error"].lower()
    assert isolation["poison_rejected_first"], \
        "poisoned jobs must be rejected before the map stage runs"
    restart = payload["warm_restart"]
    assert restart["process_restarted"], \
        "the warm-restart sweep must have run in a fresh process"
    assert restart["identical"], \
        "a restarted process against the store must reproduce the points"
    assert restart["l2_hit_rate"] >= restart["required"], \
        (f"restarted process must be served from the persistent tier "
         f"(L2 hit rate >= {restart['required']}, "
         f"got {restart['l2_hit_rate']})")
    assert restart["cold_fallbacks"] == 0


def report(payload: dict) -> str:
    lines = ["Sharded sweep -- map-reduce over worker processes:"]
    suite = payload["suite"]
    sweeps = payload["sweeps"]
    gate = payload["speedup_gate"]
    shards = payload["shards"]
    lines.append(f"  suite               : {suite['designs']} designs "
                 f"(seed {suite['seed']}, {payload['host_cpus']} cpus)")
    lines.append(f"  sweep [ serial]     : "
                 f"{sweeps['serial']['seconds'] * 1e3:8.1f} ms")
    lines.append(f"  sweep [  shard]     : "
                 f"{sweeps['shard']['seconds'] * 1e3:8.1f} ms "
                 f"({sweeps['shard']['workers']} workers, "
                 f"{shards['distinct_worker_pids']} distinct pids)")
    enforced = "enforced" if gate["enforced"] else \
        f"not enforced: {gate['reason']}"
    lines.append(f"  speedup             : {gate['speedup']}x "
                 f"(gate >= {gate['required']}x, {enforced})")
    lines.append(f"  identical to serial : "
                 f"{payload['identical_to_serial']}")
    lines.append(f"  map/reduce          : {shards['map_seconds'] * 1e3:8.1f}"
                 f" / {shards['reduce_seconds'] * 1e3:.1f} ms over "
                 f"{shards['planned']} shards")
    isolation = payload["isolation"]
    lines.append(f"  isolation           : {isolation['failed_outcomes']} "
                 f"poisoned job rejected at submission, sweep survived")
    restart = payload["warm_restart"]
    lines.append(f"  warm restart        : fresh process served at "
                 f"{restart['l2_hit_rate']:.0%} L2 hit rate "
                 f"({restart['designs']} designs, identical "
                 f"{restart['identical']})")
    return "\n".join(lines)


def test_shard_sweep_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)
    assert payload["suite"]["designs"] >= DEFAULT_DESIGNS
    check(payload)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + report(payload))
    print(f"  results -> {RESULTS_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded map-reduce sweep vs the serial backend")
    parser.add_argument("--designs", type=int, default=DEFAULT_DESIGNS,
                        help="suite size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=SUITE_SEED,
                        help="suite seed (default %(default)s)")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        help="shard/worker count (default %(default)s)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_shard_sweep.json "
                             "(CI smoke runs)")
    args = parser.parse_args(argv)
    payload = measure(args.designs, args.seed, args.workers)
    check(payload)
    if not args.no_write:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    if not args.no_write:
        print(f"  results -> {RESULTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
