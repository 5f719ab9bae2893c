#!/usr/bin/env python3
"""Streaming sweep of a generated workload suite, sharded over cores.

Samples a deterministic population of synthetic designs
(:func:`repro.workloads.workload_suite`) and fans each through the full
COOL flow twice:

* with the sharded map-reduce backend (``BatchRunner(shards=4)``) --
  the compact specs are shipped to worker processes that build the
  graphs in-worker and return :class:`~repro.flow.batch.DesignPoint`
  summaries, each worker reusing one process-local
  :class:`~repro.flow.pipeline.StageCache` across its shards;
* with the serial backend on a shared stage cache, to show the same
  suite ranked identically (the shard backend is bit-identical to
  serial by construction).

Progress is reported per completion and the per-graph Pareto-ranked
implementations are printed at the end.
"""

from repro.flow import BatchRunner, DesignSpaceExplorer, StageCache
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.workloads import workload_suite


def progress(outcome, done, total):
    status = f"{outcome.seconds * 1e3:6.0f} ms" if outcome.ok \
        else f"FAILED ({outcome.error})"
    print(f"  [{done:2}/{total}] {outcome.job.name:<44} {status}")


def main() -> None:
    specs = workload_suite(12, seed=3)
    print(f"generated {len(specs)} designs across "
          f"{len({s.family for s in specs})} families:")
    for spec in specs:
        print(f"  {spec.label:<28} ({spec.family})")

    # the one-knob parallel sweep: compact specs in, summaries out,
    # one stage cache per worker process, results identical to serial
    runner = BatchRunner(shards=4, max_workers=4, job_timeout=120.0)
    print("\nsweeping (sharded map-reduce, streaming completions):")
    exploration = DesignSpaceExplorer(
        specs,
        architectures=[minimal_board()],
        partitioners=[GreedyPartitioner()],
        runner=runner,
    ).explore(progress=progress)

    stats = runner.shard_stats
    print(f"\nmap: {len(stats.shards)} shards over {stats.workers} workers "
          f"in {stats.map_seconds * 1e3:.0f} ms, merged worker caches: "
          f"{stats.cache}")

    # the same sweep on the serial backend with a shared cache ranks
    # identically -- pick the backend by workload, not by results (see
    # the repro.flow.batch docstring for guidance)
    cache = StageCache(max_entries=2048)
    serial = DesignSpaceExplorer(
        specs,
        architectures=[minimal_board()],
        partitioners=[GreedyPartitioner()],
        runner=BatchRunner(stage_cache=cache, job_timeout=120.0),
    ).explore()
    assert serial.ranked() == exploration.ranked(), "backends must agree"

    print(f"\n{len(exploration.points)} implementations, "
          f"{len(exploration.pareto())} Pareto-optimal "
          f"(identical on the serial backend):\n")
    print(exploration.table())


if __name__ == "__main__":
    main()
