"""Persistent artifact store: warm restarts across *processes*.

Drives the same :func:`repro.workloads.workload_suite` sweep twice
through the sharded backend, each time in a **fresh Python process**
(``subprocess`` child re-invoking this file in ``--sweep`` mode), with
both runs pointed at one on-disk artifact store.  Persists the evidence
to ``BENCH_artifact_store.json`` at the repo root:

* ``sweeps`` -- wall-clock of the cold run (empty store) vs the warm
  restart (fresh process, populated store), plus the distinct child
  pids proving the warm run really did restart the process;
* ``bit_identity_gate`` -- both store-backed runs must reproduce the
  storeless serial reference exactly: outcomes, points, Pareto front
  and ranking order (the acceptance criterion of the store refactor);
* ``warm_start_gate`` -- the warm restart must report a >= 0.5 L2 hit
  rate (in practice ~1.0: every stage lookup served from the store,
  zero stages re-run) with zero cold-cache fallbacks;
* ``store`` -- post-sweep store integrity: every record on disk decodes
  and verifies, nothing sits in quarantine; ``payload_bytes_by_stage``
  splits the records' payload bytes by the stage named in each record
  header (``meta["stage"]``), so a change in what one stage stores
  shows by name.

Runs under pytest-benchmark (``pytest benchmarks/bench_artifact_store
.py``) or standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_artifact_store.py --designs 12
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.flow import BatchRunner, FlowJob, map_reduce_sweep
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.store import ArtifactStore
from repro.workloads import workload_suite

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_artifact_store.json"

DEFAULT_DESIGNS = 64
DEFAULT_WORKERS = 4
SUITE_SEED = 29

#: Acceptance gate: the warm restart's share of stage lookups served by
#: the persistent tier.  Always enforced -- a fresh process against a
#: populated store has no excuse for recomputing.
L2_HIT_RATE_GATE = 0.5


def _jobs(specs):
    arch = minimal_board()
    return [FlowJob(workload=spec, arch=arch,
                    partitioner=GreedyPartitioner()) for spec in specs]


def _point_view(point):
    """JSON-stable projection of one design point (no wall-clock)."""
    return [point.label, point.graph, list(point.metrics),
            bool(point.feasible)]


def run_sweep(n_designs: int, seed: int, workers: int,
              store_path: str | None) -> dict:
    """One sharded sweep against ``store_path`` (the ``--sweep`` body)."""
    jobs = _jobs(workload_suite(n_designs, seed=seed))
    started = time.perf_counter()
    result = map_reduce_sweep(jobs, shards=workers, max_workers=workers,
                              store_path=store_path)
    seconds = time.perf_counter() - started
    return {
        "pid": os.getpid(),
        "seconds": round(seconds, 6),
        "ok": sum(o.ok for o in result.outcomes),
        "points": [_point_view(p) for p in result.points],
        "pareto": [_point_view(p) for p in result.pareto()],
        "ranked": [_point_view(p) for p in result.ranked()],
        "cache": result.shard_stats.cache,
    }


def fresh_process_sweep(n_designs: int, seed: int, workers: int,
                        store_path: str | os.PathLike) -> dict:
    """Run :func:`run_sweep` in a brand-new Python process.

    This is what "warm restart" means end to end: nothing survives but
    the store directory.  Shared with ``bench_shard_sweep`` for its
    restart-the-process assertion.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--sweep",
               "--designs", str(n_designs), "--seed", str(seed),
               "--workers", str(workers), "--store", os.fspath(store_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run(command, capture_output=True, text=True, env=env)
    if child.returncode != 0:
        raise RuntimeError(f"child sweep failed "
                           f"(exit {child.returncode}):\n{child.stderr}")
    return json.loads(child.stdout)


def _serial_reference(specs) -> dict:
    """The storeless serial baseline every store-backed run must equal."""
    from repro.flow import ExplorationResult
    from repro.flow.batch import _point_from
    started = time.perf_counter()
    outcomes = BatchRunner(backend="serial").run(_jobs(specs))
    seconds = time.perf_counter() - started
    result = ExplorationResult(outcomes=outcomes)
    result.points = [_point_from(o) for o in outcomes if o.ok]
    result.failures = [o for o in outcomes if not o.ok]
    return {
        "seconds": round(seconds, 6),
        "ok": sum(o.ok for o in outcomes),
        "points": [_point_view(p) for p in result.points],
        "pareto": [_point_view(p) for p in result.pareto()],
        "ranked": [_point_view(p) for p in result.ranked()],
    }


def _identical(run: dict, reference: dict) -> bool:
    return all(run[view] == reference[view]
               for view in ("points", "pareto", "ranked")) \
        and run["ok"] == reference["ok"]


def _store_integrity(store_root: str | os.PathLike) -> dict:
    """Decode-verify every record left on disk after the sweeps."""
    store = ArtifactStore(store_root)
    verified = 0
    by_stage: dict[str, int] = {}
    for key in store.keys():
        record = store.get(key)
        if record is not None and record.key == key:
            verified += 1
            stage = str(record.meta.get("stage"))
            by_stage[stage] = by_stage.get(stage, 0) + len(record.payload)
    stats = store.stats()
    return {"entries": stats["entries"],
            "bytes": stats["bytes"],
            "payload_bytes_by_stage": dict(sorted(by_stage.items())),
            "records_verified": verified,
            "quarantined": len(store.quarantined_files())}


def measure(n_designs: int = DEFAULT_DESIGNS, seed: int = SUITE_SEED,
            workers: int = DEFAULT_WORKERS) -> dict:
    specs = workload_suite(n_designs, seed=seed)
    reference = _serial_reference(specs)

    with tempfile.TemporaryDirectory(prefix="bench-artifact-store-") as root:
        store_path = Path(root) / "store"
        cold = fresh_process_sweep(n_designs, seed, workers, store_path)
        warm = fresh_process_sweep(n_designs, seed, workers, store_path)
        store = _store_integrity(store_path)

    warm_l2 = warm["cache"]["l2"]
    speedup = round(cold["seconds"] / warm["seconds"], 2) \
        if warm["seconds"] else None
    return {
        "suite": {"designs": len(specs), "seed": seed, "workers": workers,
                  "families": sorted({s.family for s in specs})},
        "host_cpus": os.cpu_count() or 1,
        "reference_serial_seconds": reference["seconds"],
        "sweeps": {
            "cold": {"seconds": cold["seconds"], "pid": cold["pid"],
                     "ok": cold["ok"], "cache": cold["cache"]},
            "warm": {"seconds": warm["seconds"], "pid": warm["pid"],
                     "ok": warm["ok"], "cache": warm["cache"]},
        },
        "process_restarted": cold["pid"] != warm["pid"]
        and cold["pid"] != os.getpid(),
        "warm_speedup_over_cold": speedup,
        "bit_identity_gate": {
            "cold_identical_to_serial": _identical(cold, reference),
            "warm_identical_to_serial": _identical(warm, reference),
        },
        "warm_start_gate": {
            "l2_hit_rate": round(
                warm_l2["hits"]
                / max(1, warm_l2["hits"] + warm_l2["misses"]), 4),
            "required": L2_HIT_RATE_GATE,
            "overall_hit_rate": warm["cache"]["hit_rate"],
            "cold_fallbacks": warm["cache"]["cold_fallbacks"],
        },
        "store": store,
    }


def check(payload: dict) -> None:
    """The artifact-store regression gate (shared by pytest and the CLI)."""
    identity = payload["bit_identity_gate"]
    assert identity["cold_identical_to_serial"], \
        "store-backed sweep must be bit-identical to the storeless serial"
    assert identity["warm_identical_to_serial"], \
        "warm restart must be bit-identical to the storeless serial"
    assert payload["process_restarted"], \
        "the warm sweep must have run in a fresh process"
    sweeps = payload["sweeps"]
    assert sweeps["cold"]["ok"] == payload["suite"]["designs"]
    assert sweeps["warm"]["ok"] == sweeps["cold"]["ok"]
    gate = payload["warm_start_gate"]
    assert gate["l2_hit_rate"] >= gate["required"], \
        (f"fresh process against a populated store must report an L2 hit "
         f"rate >= {gate['required']}, got {gate['l2_hit_rate']}")
    assert gate["cold_fallbacks"] == 0, \
        "no pooled worker may fall back to an uninitialized cache"
    store = payload["store"]
    assert store["records_verified"] == store["entries"], \
        "every record on disk must decode and verify"
    assert store["quarantined"] == 0
    assert store["entries"] > 0


def report(payload: dict) -> str:
    lines = ["Artifact store -- warm restarts across processes:"]
    suite = payload["suite"]
    sweeps = payload["sweeps"]
    gate = payload["warm_start_gate"]
    lines.append(f"  suite               : {suite['designs']} designs "
                 f"(seed {suite['seed']}, {suite['workers']} workers, "
                 f"{payload['host_cpus']} cpus)")
    lines.append(f"  sweep [cold store]  : "
                 f"{sweeps['cold']['seconds'] * 1e3:8.1f} ms "
                 f"(pid {sweeps['cold']['pid']})")
    lines.append(f"  sweep [warm restart]: "
                 f"{sweeps['warm']['seconds'] * 1e3:8.1f} ms "
                 f"(pid {sweeps['warm']['pid']}, "
                 f"{payload['warm_speedup_over_cold']}x over cold)")
    lines.append(f"  L2 hit rate         : {gate['l2_hit_rate']:.0%} "
                 f"(gate >= {gate['required']:.0%}, overall "
                 f"{gate['overall_hit_rate']:.0%})")
    identity = payload["bit_identity_gate"]
    lines.append(f"  identical to serial : cold "
                 f"{identity['cold_identical_to_serial']}, warm "
                 f"{identity['warm_identical_to_serial']}")
    store = payload["store"]
    lines.append(f"  store               : {store['entries']} records / "
                 f"{store['bytes'] / 1024:.1f} KiB, "
                 f"{store['records_verified']} verified, "
                 f"{store['quarantined']} quarantined")
    for stage, size in store["payload_bytes_by_stage"].items():
        lines.append(f"    {stage:<17} : {size / 1024:8.1f} KiB payload")
    return "\n".join(lines)


def test_artifact_store_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)
    assert payload["suite"]["designs"] >= DEFAULT_DESIGNS
    check(payload)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + report(payload))
    print(f"  results -> {RESULTS_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Persistent artifact store: cold vs warm-restart sweeps")
    parser.add_argument("--designs", type=int, default=DEFAULT_DESIGNS,
                        help="suite size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=SUITE_SEED,
                        help="suite seed (default %(default)s)")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        help="shard/worker count (default %(default)s)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_artifact_store.json "
                             "(CI smoke runs)")
    parser.add_argument("--sweep", action="store_true",
                        help="internal child mode: run one sharded sweep "
                             "against --store and print JSON to stdout")
    parser.add_argument("--store", default=None,
                        help="store root for --sweep mode")
    args = parser.parse_args(argv)
    if args.sweep:
        if args.store is None:
            parser.error("--sweep requires --store")
        print(json.dumps(run_sweep(args.designs, args.seed, args.workers,
                                   args.store)))
        return 0
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
