"""Tests for the sharded map-reduce sweep engine (repro.flow.shard)."""

import dataclasses
import hashlib
import pickle
import threading

import pytest

from repro.flow import (BatchRunner, DesignSpaceExplorer, ExplorationResult,
                        FlowJob, ShardError, map_reduce_sweep, sharded_sweep)
from repro.flow.batch import _point_from
from repro.flow.shard import (JobSummary, ShardPlanner, payload_of,
                              reduce_shards, run_shard)
from repro.partition import GreedyPartitioner, MilpPartitioner
from repro.platform import cool_board, minimal_board
from repro.workloads import stimuli_for, workload_suite
import repro.flow.shard as shard_mod


class UnpicklablePartitioner(GreedyPartitioner):
    """A partitioner no process pool can ship (holds a thread lock)."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()


@pytest.fixture(autouse=True)
def _fresh_worker_cache():
    """In-process run_shard calls must not leak cache state across tests."""
    shard_mod._WORKER_CACHE = None
    shard_mod._WORKER_CACHE_FALLBACK = False
    yield
    shard_mod._WORKER_CACHE = None
    shard_mod._WORKER_CACHE_FALLBACK = False


def _suite_jobs(count=6, seed=11):
    arch = minimal_board()
    return [FlowJob(workload=spec, arch=arch,
                    partitioner=GreedyPartitioner())
            for spec in workload_suite(count, seed=seed)]


@pytest.fixture(scope="module")
def jobs():
    return _suite_jobs()


@pytest.fixture(scope="module")
def serial(jobs):
    """Reference semantics every sharded run must reproduce."""
    return ExplorationResult.from_outcomes(
        BatchRunner(backend="serial").run(jobs))


class TestShardPlanner:
    def test_assignment_is_content_based(self, jobs):
        planner = ShardPlanner(5)
        payloads = [payload_of(j, i) for i, j in enumerate(jobs)]
        # index and label never enter the fingerprint: renumbering and
        # relabelling a suite must not move any job to another shard
        moved = [dataclasses.replace(
                     p, index=p.index + 100,
                     job=dataclasses.replace(p.job,
                                             label=f"renamed-{p.index}"))
                 for p in payloads]
        assert [planner.assign(p) for p in payloads] == \
            [planner.assign(p) for p in moved]

    def test_plan_is_order_independent(self, jobs):
        payloads = [payload_of(j, i) for i, j in enumerate(jobs)]
        planner = ShardPlanner(3)
        forward = planner.plan(payloads)
        backward = planner.plan(list(reversed(payloads)))
        assert [s.fingerprint() for s in forward] == \
            [s.fingerprint() for s in backward]
        assert [s.job_indices for s in forward] == \
            [s.job_indices for s in backward]

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_plan_covers_each_job_exactly_once(self, jobs, shards):
        payloads = [payload_of(j, i) for i, j in enumerate(jobs)]
        plan = ShardPlanner(shards).plan(payloads)
        covered = [i for shard in plan for i in shard.job_indices]
        assert sorted(covered) == list(range(len(jobs)))
        assert len(plan) <= shards
        assert all(shard.payloads for shard in plan)

    def test_plan_is_pinned(self):
        # shard assignment is part of the sweep's contract: perfbench's
        # store_sweep wall-clock is its longest shard, so a payload
        # fingerprint that hashes anything else moves designs between
        # shards.  The suite varies every fingerprinted job field.
        arch = minimal_board()
        jobs = [FlowJob(workload=spec, arch=arch,
                        partitioner=GreedyPartitioner(),
                        stimuli=stimuli_for(spec.build(), seed=11))
                for spec in workload_suite(8, seed=11)]
        first = jobs[0]
        jobs += [dataclasses.replace(first, deadline=40),
                 dataclasses.replace(first, partitioner=None, stimuli=None),
                 dataclasses.replace(first, reuse_memory=False),
                 dataclasses.replace(first, allow_direct_comm=False),
                 dataclasses.replace(first, workload=None,
                                     graph=first.workload.build())]
        payloads = [payload_of(j, i) for i, j in enumerate(jobs)]
        digest = hashlib.sha256("".join(
            p.fingerprint() for p in payloads).encode()).hexdigest()
        assert digest == ("c84ae2ebf96f751d4bcf1812e90312454d807605b442d9df"
                          "9048b33aaf01eeef")
        assert [s.job_indices for s in ShardPlanner(2).plan(payloads)] == \
            [(0, 1, 5, 8, 11, 12), (2, 3, 4, 6, 7, 9, 10)]
        assert [s.job_indices for s in ShardPlanner(5).plan(payloads)] == \
            [(1, 7, 10), (2, 3, 5, 9), (12,), (4, 6, 11), (0, 8)]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ShardError, match="shards"):
            ShardPlanner(0)

    def test_payloads_stay_compact(self, jobs):
        # the pickling contract: a spec-based payload (spec + arch +
        # engine + knobs) costs ~1.3 KB, vs kilobytes for a built graph
        # and ~75 KB for a FlowResult -- this is what makes the map
        # stage pay off
        payload = payload_of(jobs[0], 0)
        assert len(pickle.dumps(payload)) < 2048


class TestShardedIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("map_order", ["planned", "reversed"])
    def test_identical_to_serial(self, jobs, serial, shards, map_order,
                                 monkeypatch):
        delivered = []
        if map_order == "reversed":
            # deliver the shard outcomes to the coordinator in reverse
            # plan order: streaming and reduce must not depend on it
            def reverse_completed(futures):
                delivered.extend(reversed(list(futures)))
                return iter(delivered)
            monkeypatch.setattr(shard_mod, "as_completed", reverse_completed)
        result = map_reduce_sweep(jobs, shards=shards, max_workers=2)
        if map_order == "reversed":
            assert len(delivered) == result.shard_stats.planned_shards
        assert [o.ok for o in result.outcomes] == \
            [o.ok for o in serial.outcomes]
        assert result.points == serial.points
        assert result.pareto() == serial.pareto()
        assert result.ranked() == serial.ranked()

    def test_reversed_suite_same_points(self, jobs, serial):
        reversed_jobs = list(reversed(jobs))
        outcomes, _ = sharded_sweep(reversed_jobs, shards=2, max_workers=2)
        by_label = {o.job.name: o.point for o in outcomes}
        for outcome, point in zip(serial.outcomes, serial.points):
            assert by_label[outcome.job.name] == point

    def test_outcomes_carry_points_not_artifacts(self, jobs):
        outcomes, _ = sharded_sweep(jobs[:2], shards=1, max_workers=1)
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.result is None
            assert outcome.point is not None

    def test_progress_streams_per_job(self, jobs):
        events = []
        sharded_sweep(jobs, shards=3, max_workers=2,
                      progress=lambda o, d, t: events.append((d, t)))
        assert [d for d, _ in events] == list(range(1, len(jobs) + 1))
        assert all(t == len(jobs) for _, t in events)

    @pytest.mark.parametrize("entry", ["sharded_sweep", "map_reduce_sweep"])
    def test_raising_progress_callback_does_not_abort(self, jobs, serial,
                                                      entry):
        # the direct entry points guard the observer like
        # BatchRunner.run does: warn once, keep streaming, finish
        events = []

        def progress(outcome, done, total):
            events.append(done)
            raise RuntimeError("observer bug")

        with pytest.warns(RuntimeWarning, match="progress callback"):
            if entry == "sharded_sweep":
                outcomes, _ = sharded_sweep(jobs, shards=2, max_workers=2,
                                            progress=progress)
            else:
                outcomes = map_reduce_sweep(jobs, shards=2, max_workers=2,
                                            progress=progress).outcomes
        assert [o.point for o in outcomes] == serial.points
        assert events == list(range(1, len(jobs) + 1))


class TestReduceIntegrity:
    @pytest.fixture()
    def plan_and_outcomes(self, jobs):
        payloads = [payload_of(j, i) for i, j in enumerate(jobs)]
        plan = ShardPlanner(2).plan(payloads)
        assert len(plan) == 2, "suite must spread over both shards"
        return plan, [run_shard(shard) for shard in plan]

    def test_clean_reduce_merges_everything(self, plan_and_outcomes):
        plan, outcomes = plan_and_outcomes
        summaries, cache = reduce_shards(plan, outcomes)
        assert sorted(summaries) == sorted(
            s.index for shard in plan for s in shard.payloads)
        assert cache["caches"] == 2
        assert cache["hits"] + cache["misses"] > 0

    def test_tampered_fingerprint_rejected(self, plan_and_outcomes):
        plan, outcomes = plan_and_outcomes
        tampered = dataclasses.replace(outcomes[0],
                                       fingerprint="deadbeefdeadbeef")
        with pytest.raises(ShardError, match="tampered or stale"):
            reduce_shards(plan, [tampered, outcomes[1]])

    def test_wrong_job_coverage_rejected(self, plan_and_outcomes):
        plan, outcomes = plan_and_outcomes
        truncated = dataclasses.replace(outcomes[0],
                                        summaries=outcomes[0].summaries[:-1])
        with pytest.raises(ShardError, match="tampered or incomplete"):
            reduce_shards(plan, [truncated, outcomes[1]])

    def test_unplanned_shard_rejected(self, plan_and_outcomes):
        plan, outcomes = plan_and_outcomes
        alien = dataclasses.replace(outcomes[0], shard_index=99)
        with pytest.raises(ShardError, match="unplanned"):
            reduce_shards(plan, [alien, outcomes[1]])

    def test_duplicate_shard_rejected(self, plan_and_outcomes):
        plan, outcomes = plan_and_outcomes
        with pytest.raises(ShardError, match="duplicate"):
            reduce_shards(plan, [outcomes[0], outcomes[0], outcomes[1]])

    def test_missing_shard_without_failure_rejected(self, plan_and_outcomes):
        plan, outcomes = plan_and_outcomes
        with pytest.raises(ShardError, match="no outcome"):
            reduce_shards(plan, outcomes[:1])

    def test_failed_shard_synthesizes_failed_summaries(self,
                                                       plan_and_outcomes):
        plan, outcomes = plan_and_outcomes
        summaries, _ = reduce_shards(
            plan, outcomes[1:], failures={plan[0].index: "worker died"})
        for payload in plan[0].payloads:
            summary = summaries[payload.index]
            assert not summary.ok
            assert "worker died" in summary.error
        for payload in plan[1].payloads:
            assert summaries[payload.index].ok


class TestShardBackendRunner:
    def test_one_knob_spelling_selects_shard_backend(self):
        runner = BatchRunner(shards=4)
        assert runner.backend == "shard"

    def test_shards_knob_rejected_on_other_backends(self):
        with pytest.raises(ValueError, match="shards"):
            BatchRunner(backend="serial", shards=4)
        with pytest.raises(ValueError, match="shards"):
            BatchRunner(shards=0)

    @pytest.mark.parametrize(
        "bad", [{"shards": 0}, {"max_workers": 0}, {"max_workers": -2},
                {"job_timeout": 0}],
        ids=["shards=0", "max_workers=0", "max_workers=-2", "job_timeout=0"])
    def test_bad_sweep_arguments_rejected_by_every_entry_point(self, bad):
        # each entry point names the bad argument; zero must not
        # silently stand for "all CPUs"
        (name, _value), = bad.items()
        with pytest.raises(ValueError, match=name):
            map_reduce_sweep([], **bad)
        with pytest.raises(ValueError, match=name):
            sharded_sweep([], **bad)
        with pytest.raises(ValueError, match=name):
            BatchRunner(backend="shard", **bad)

    def test_runner_matches_serial_and_records_stats(self, jobs, serial):
        runner = BatchRunner(shards=2, max_workers=2)
        outcomes = runner.run(jobs)
        assert [_point_from(o) for o in outcomes] == serial.points
        stats = runner.shard_stats
        assert stats is not None
        assert stats.planned_shards == len(stats.shards) == 2
        assert stats.cache["caches"] == 2
        assert sum(row["jobs"] for row in stats.shards) == len(jobs)
        assert all(row["seconds"] > 0 for row in stats.shards)

    def test_unpicklable_job_fails_at_submission_named(self, jobs):
        bad = FlowJob(workload=jobs[0].workload, arch=jobs[0].arch,
                      partitioner=UnpicklablePartitioner(), label="bad")
        events = []
        outcomes = BatchRunner(shards=2, max_workers=2).run(
            jobs[:2] + [bad],
            progress=lambda o, d, t: events.append(o.job.name))
        assert outcomes[0].ok and outcomes[1].ok
        assert not outcomes[2].ok
        assert "partitioner" in outcomes[2].error
        assert "pickle" in outcomes[2].error.lower()
        # rejected at submission: its outcome streams before any result
        assert events[0] == "bad"

    def test_job_timeout_discards_overbudget_results(self, jobs):
        runner = BatchRunner(shards=2, max_workers=2, job_timeout=1e-9)
        outcomes = runner.run(jobs[:3])
        assert all(not o.ok for o in outcomes)
        assert all("Timeout" in o.error and "budget" in o.error
                   for o in outcomes)
        assert all(o.point is None for o in outcomes)


class TestWorkerCache:
    def test_worker_cache_warm_across_shards(self, jobs):
        # one worker process executes many shards against one cache: the
        # second pass over identical payloads is served entirely warm,
        # and the shard-window stats report it honestly (satellite: no
        # cold-pass dilution of the warm hit rate)
        payloads = [payload_of(j, i) for i, j in enumerate(jobs[:3])]
        plan = ShardPlanner(1).plan(payloads)
        cold = run_shard(plan[0])
        warm = run_shard(plan[0])
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["hit_rate"] == 0.0
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hit_rate"] == 1.0
        assert [s.point for s in cold.summaries] == \
            [s.point for s in warm.summaries]

    def test_summaries_stay_compact(self, jobs):
        payloads = [payload_of(j, i) for i, j in enumerate(jobs[:2])]
        outcome = run_shard(ShardPlanner(1).plan(payloads)[0])
        assert len(pickle.dumps(outcome)) < 4096, \
            "shard outcomes must never ship fat flow artifacts"


class TestWorkerCacheFallback:
    """Satellite: a worker whose initializer never ran used to fall back
    to a cold cache *silently*; the fallback is now recorded on every
    outcome and surfaced in the merged sweep stats."""

    def test_direct_run_shard_records_the_fallback(self, jobs):
        payloads = [payload_of(j, i) for i, j in enumerate(jobs[:2])]
        outcome = run_shard(ShardPlanner(1).plan(payloads)[0])
        assert outcome.cache_stats["cold_fallbacks"] == 1

    def test_initialized_worker_reports_no_fallback(self, jobs):
        shard_mod._init_worker(shard_mod.DEFAULT_WORKER_CACHE_ENTRIES)
        payloads = [payload_of(j, i) for i, j in enumerate(jobs[:2])]
        outcome = run_shard(ShardPlanner(1).plan(payloads)[0])
        assert outcome.cache_stats["cold_fallbacks"] == 0

    def test_fallbacks_ride_the_numeric_merge(self, jobs):
        payloads = [payload_of(j, i) for i, j in enumerate(jobs)]
        plan = ShardPlanner(2).plan(payloads)
        assert len(plan) == 2
        _, cache = reduce_shards(plan, [run_shard(s) for s in plan])
        assert cache["cold_fallbacks"] == 2

    def test_pooled_sweep_never_falls_back(self, jobs):
        _, stats = sharded_sweep(jobs[:3], shards=2, max_workers=2)
        assert stats.cache["cold_fallbacks"] == 0
        assert stats.shards, "sweep must have produced shard rows"
        assert all(row["cache"]["cold_fallbacks"] == 0
                   for row in stats.shards)


class TestStoreBackedShards:
    def test_fresh_worker_generation_warm_starts_from_store(self, jobs,
                                                            tmp_path):
        # generation 1 populates the store; generation 2 (fresh L1, same
        # store -- what a restarted worker pool sees) re-runs nothing
        store = tmp_path / "store"
        payloads = [payload_of(j, i) for i, j in enumerate(jobs[:3])]
        plan = ShardPlanner(1).plan(payloads)
        shard_mod._init_worker(64, str(store))
        cold = run_shard(plan[0])
        shard_mod._init_worker(64, str(store))
        warm = run_shard(plan[0])
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["l2"]["hits"] > 0
        assert warm.cache_stats["hit_rate"] == 1.0
        assert [s.point for s in warm.summaries] == \
            [s.point for s in cold.summaries]

    def test_store_backed_sweep_matches_serial(self, jobs, serial,
                                               tmp_path):
        store = tmp_path / "store"
        cold = map_reduce_sweep(jobs, shards=2, max_workers=2,
                                store_path=store)
        assert cold.points == serial.points
        assert cold.pareto() == serial.pareto()
        # a second run -- fresh pool, different shard count -- is served
        # from the store and still bit-identical
        warm = map_reduce_sweep(jobs, shards=3, max_workers=2,
                                store_path=store)
        assert warm.points == serial.points
        assert warm.ranked() == serial.ranked()
        cache = warm.shard_stats.cache
        assert cache["misses"] == 0
        assert cache["l2"]["hits"] > 0
        assert cache["hit_rate"] == 1.0
        assert cache["cold_fallbacks"] == 0

    def test_storeless_stats_have_no_tier_views(self, jobs):
        _, stats = sharded_sweep(jobs[:2], shards=1, max_workers=1)
        assert "l2" not in stats.cache


class TestShardedExplorer:
    def test_explorer_on_shard_backend_matches_serial(self):
        specs = workload_suite(4, seed=23)
        architectures = [minimal_board(), cool_board()]
        partitioners = [GreedyPartitioner(), MilpPartitioner()]
        reference = DesignSpaceExplorer(
            specs, architectures, partitioners,
            runner=BatchRunner(backend="serial")).explore()
        sharded = DesignSpaceExplorer(
            specs, architectures, partitioners,
            runner=BatchRunner(shards=3, max_workers=2)).explore()
        assert sharded.points == reference.points
        assert sharded.pareto() == reference.pareto()
        assert sharded.ranked() == reference.ranked()


class TestSweepResult:
    def test_shard_stats_attached(self, jobs):
        result = map_reduce_sweep(jobs, shards=2, max_workers=2)
        stats = result.shard_stats
        assert stats.map_seconds > 0
        assert stats.workers == 2
        assert stats.cache["caches"] == len(stats.shards)

    def test_failures_collected_not_pointed(self, jobs):
        bad = FlowJob(workload=jobs[0].workload, arch=jobs[0].arch,
                      partitioner=UnpicklablePartitioner(), label="bad")
        result = map_reduce_sweep(jobs[:2] + [bad], shards=2, max_workers=2)
        assert len(result.points) == 2
        assert len(result.failures) == 1
        assert "partitioner" in result.failures[0].error


def test_job_summary_ok_property():
    good = JobSummary(index=0, point=None, error=None, seconds=0.1)
    bad = JobSummary(index=1, point=None, error="boom", seconds=0.1)
    assert good.ok and not bad.ok
