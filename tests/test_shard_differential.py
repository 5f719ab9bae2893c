"""Differential property test: in-process map-reduce vs. the serial backend.

For a generated suite (the ``specs`` strategy of
``test_verify_differential``, on a drawn board), planning it with
``ShardPlanner(k)``, running every shard in-process with
:func:`~repro.flow.shard.run_shard` and reducing the shard outcomes with
:func:`~repro.flow.shard.reduce_shards` must give the serial backend's
outcomes, points, Pareto front and ranking -- for every shard count
``k`` and for any order in which the shard outcomes arrive (a process
pool delivers them in completion order, which is arbitrary).

The shards write an artifact store as they run.  A warm restart of the
serial backend over that store (a fresh L1, as a new process would
have) must serve every stage lookup from it, re-run no stage and give
the serial results bit for bit: serial = shard(k) = store-warm.

Each example runs its suite through the flow twice, so the property
takes a tenth of the active hypothesis profile's budget
(``tests/conftest.py``: 10 examples under ``dev``, 60 under ``ci``).
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flow.shard as shard_mod
from repro.flow import BatchRunner, ExplorationResult, FlowJob
from repro.flow.batch import _point_from
from repro.flow.shard import ShardPlanner, payload_of, reduce_shards, run_shard
from repro.partition import GreedyPartitioner

from test_verify_differential import BOARDS, boards, specs

EXAMPLES = max(1, settings.default.max_examples // 10)


@settings(max_examples=EXAMPLES, deadline=None)
@given(suite=st.lists(specs, min_size=1, max_size=3), board=boards,
       shards=st.integers(min_value=1, max_value=4), data=st.data())
def test_in_process_map_reduce_matches_serial(suite, board, shards, data):
    arch = BOARDS[board]()
    jobs = [FlowJob(workload=spec, arch=arch, partitioner=GreedyPartitioner())
            for spec in suite]
    serial = ExplorationResult.from_outcomes(BatchRunner().run(jobs))

    plan = ShardPlanner(shards).plan(
        [payload_of(job, index) for index, job in enumerate(jobs)])
    saved = shard_mod._WORKER_CACHE, shard_mod._WORKER_CACHE_FALLBACK
    with tempfile.TemporaryDirectory() as store:
        # a cold worker over an empty store for every example
        shard_mod._init_worker(shard_mod.DEFAULT_WORKER_CACHE_ENTRIES, store)
        try:
            outcomes = [run_shard(shard) for shard in plan]
        finally:
            shard_mod._WORKER_CACHE, shard_mod._WORKER_CACHE_FALLBACK = \
                saved
        restart = BatchRunner(store=store)
        warm = restart.run(jobs)
        warm_cache = restart.stage_cache.stats()
    arrival = data.draw(st.permutations(outcomes), label="arrival order")
    summaries, cache = reduce_shards(plan, arrival)

    assert sorted(summaries) == list(range(len(jobs)))
    assert cache["caches"] == len(plan)
    assert [(summaries[i].error, summaries[i].point)
            for i in range(len(jobs))] == \
        [(o.error, _point_from(o) if o.ok else None)
         for o in serial.outcomes]
    sharded = ExplorationResult(points=[summaries[i].point
                                        for i in range(len(jobs))
                                        if summaries[i].ok])
    assert sharded.points == serial.points
    assert sharded.pareto() == serial.pareto()
    assert sharded.ranked() == serial.ranked()

    assert [(o.error, _point_from(o) if o.ok else None) for o in warm] == \
        [(o.error, _point_from(o) if o.ok else None)
         for o in serial.outcomes]
    for restarted, fresh in zip(warm, serial.outcomes):
        if not fresh.ok:
            continue
        assert sum(restarted.result.stage_runs.values()) == 0
        assert restarted.result.vhdl_files == fresh.result.vhdl_files
        assert restarted.result.c_files == fresh.result.c_files
        assert restarted.result.composition_check == \
            fresh.result.composition_check
    if all(o.ok for o in serial.outcomes):
        assert warm_cache["misses"] == 0
        assert warm_cache["hit_rate"] == 1.0
