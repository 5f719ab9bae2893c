"""Tests for the tiered stage cache (memory L1 over persistent L2).

The contract under test: with a ``store_path``, flow results are
bit-identical to a storeless run, a *fresh process* (modelled here as a
fresh flow over a fresh L1) is served from the store without re-running
any stage, and every artifact type the flow caches round-trips through
the store under the fingerprint it was stored with, still naming the
revived value -- which is what makes downstream stage signatures match
across restarts.
"""

import pickle

import pytest

from repro.apps import four_band_equalizer
from repro.flow import (ArtifactStore, BatchRunner, CoolFlow,
                        ExplorationResult, FlowJob, PersistentCache,
                        StageCache, TieredCache, build_flow_stages)
from repro.flow.pipeline import (CacheTier, _canonical, derived_fingerprint,
                                 fingerprint_of)
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.store import PIPELINE_CACHE_SCHEMA, cache_key


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture()
def tier(store):
    return TieredCache(StageCache(), PersistentCache(store))


OUTPUTS = {"plan": ({"channels": 3}, "fp-plan"),
           "stats": ((1, 2, 3), "fp-stats")}


class TestTieredCache:
    def test_everything_is_a_cache_tier(self, store, tier):
        assert isinstance(StageCache(), CacheTier)
        assert isinstance(PersistentCache(store), CacheTier)
        assert isinstance(tier, CacheTier)

    def test_write_through_and_l1_service(self, tier):
        tier.put("communication", ("sig-a",), OUTPUTS)
        assert tier.get("communication", ("sig-a",)) == OUTPUTS
        stats = tier.stats()
        assert stats["l1"]["hits"] == 1
        assert stats["l2"]["hits"] == 0, "L1 must answer first"
        assert stats["hits"] == 1 and stats["misses"] == 0

    def test_l2_hit_is_promoted_into_l1(self, store, tier):
        tier.put("communication", ("sig-a",), OUTPUTS)
        survivor = TieredCache(StageCache(), PersistentCache(store))
        first = survivor.get("communication", ("sig-a",))
        assert first == OUTPUTS
        assert survivor.stats()["promotions"] == 1
        second = survivor.get("communication", ("sig-a",))
        assert second == OUTPUTS
        stats = survivor.stats()
        assert stats["l1"]["hits"] == 1, "promoted entry must serve from L1"
        assert stats["l2"]["hits"] == 1
        # a promotion is not a top-level miss: both requests were served
        assert stats["hits"] == 2 and stats["misses"] == 0
        assert stats["hit_rate"] == 1.0

    def test_miss_in_both_tiers(self, tier):
        assert tier.get("stg", ("nope",)) is None
        stats = tier.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.0

    def test_clear_drops_memory_but_not_disk(self, tier):
        tier.put("hls", ("sig-b",), OUTPUTS)
        tier.clear()
        assert tier.get("hls", ("sig-b",)) == OUTPUTS
        assert tier.stats()["l2"]["hits"] == 1

    def test_snapshot_windows_the_stats(self, tier):
        tier.put("stg", ("sig-c",), OUTPUTS)
        tier.get("stg", ("sig-c",))
        window = tier.snapshot()
        tier.get("stg", ("sig-c",))
        tier.get("stg", ("missing",))
        windowed = tier.stats(since=window)
        assert windowed["hits"] == 1
        assert windowed["misses"] == 1
        assert windowed["hit_rate"] == 0.5

    def test_merge_stats_folds_tier_views(self, tmp_path):
        views = []
        for worker in range(3):
            view = TieredCache(
                StageCache(),
                PersistentCache(ArtifactStore(tmp_path / "store")))
            view.put("stg", (f"sig-{worker}",), OUTPUTS)
            view.get("stg", (f"sig-{worker}",))
            view.get("stg", ("missing",))
            views.append(view.stats())
        merged = StageCache.merge_stats(views)
        assert merged["caches"] == 3
        assert merged["hits"] == 3 and merged["misses"] == 3
        assert merged["hit_rate"] == 0.5
        assert merged["l1"]["hits"] == 3
        assert merged["l2"]["misses"] == 3
        assert merged["promotions"] == 0


class TestPersistentCache:
    def test_schema_mismatch_is_a_miss(self, store):
        PersistentCache(store, schema=1).put("stg", ("sig",), OUTPUTS)
        future = PersistentCache(store, schema=2)
        assert future.get("stg", ("sig",)) is None, \
            "a reader built for another schema must never decode the record"
        assert future.misses == 1
        # the schema is folded into the key, so the old record survives
        assert PersistentCache(store, schema=1).get("stg", ("sig",)) \
            == OUTPUTS

    def test_previous_schema_records_miss_without_quarantine(self, store):
        # version-2 records pickled Transition objects with a guard slot;
        # the current reader must look past them, never try to decode them
        PersistentCache(store, schema=PIPELINE_CACHE_SCHEMA - 1).put(
            "stg", ("sig",), OUTPUTS)
        current = PersistentCache(store)
        assert current.get("stg", ("sig",)) is None
        assert current.misses == 1
        assert store.quarantined == 0

    def test_schema_is_folded_into_the_key(self):
        assert cache_key("stg", ("sig",), schema=1) != \
            cache_key("stg", ("sig",), schema=2)
        assert cache_key("stg", ("sig",)) == \
            cache_key("stg", ("sig",), PIPELINE_CACHE_SCHEMA)

    def test_unpicklable_output_is_skipped_not_raised(self, store):
        cache = PersistentCache(store)
        poisoned = {"handle": (lambda: None, "fp-lambda")}
        cache.put("codegen", ("sig",), poisoned)
        assert cache.unstorable == 1
        assert cache.get("codegen", ("sig",)) is None
        assert not store.quarantined_files()

    def test_stale_pickle_is_invalidated_and_missed(self, store):
        cache = PersistentCache(store)
        key = cache_key("stg", ("sig",), cache.schema)
        store.put(key, b"not a pickle", schema=cache.schema)
        assert cache.get("stg", ("sig",)) is None
        assert cache.decode_failures == 1
        assert key not in store, "undecodable payload must be invalidated"

    def test_record_meta_names_the_stage(self, store):
        cache = PersistentCache(store)
        cache.put("communication", ("sig",), OUTPUTS)
        record = store.get(cache_key("communication", ("sig",),
                                     cache.schema))
        assert record.meta["stage"] == "communication"
        assert record.meta["outputs"] == ["plan", "stats"]

    def test_payload_bytes_are_deterministic(self, store, tmp_path):
        cache = PersistentCache(store)
        cache.put("stg", ("sig",), dict(reversed(list(OUTPUTS.items()))))
        other = PersistentCache(ArtifactStore(tmp_path / "other"))
        other.put("stg", ("sig",), dict(OUTPUTS))
        key = cache_key("stg", ("sig",), cache.schema)
        assert cache.store.get(key).payload == other.store.get(key).payload


def _flow(store_path=None, **kwargs):
    return CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                    store_path=store_path, **kwargs)


def _run(flow):
    return flow.run(four_band_equalizer(words=8), stimuli={"x": [5] * 8})


class TestStoreBackedFlow:
    @pytest.fixture(scope="class")
    def baseline(self):
        return _run(_flow())

    def test_results_bit_identical_to_storeless_flow(self, tmp_path,
                                                     baseline):
        result = _run(_flow(tmp_path / "store"))
        assert result.report().splitlines()[:-1] == \
            baseline.report().splitlines(), \
            "only the tier line may differ from the storeless report"
        assert result.vhdl_files == baseline.vhdl_files
        assert result.c_files == baseline.c_files
        assert result.makespan == baseline.makespan
        assert result.sim_result.outputs == baseline.sim_result.outputs

    def test_fresh_flow_is_served_from_the_store(self, tmp_path, baseline):
        _run(_flow(tmp_path / "store"))
        warm = _run(_flow(tmp_path / "store"))  # fresh L1, same disk
        assert sum(warm.stage_runs.values()) == 0, \
            "a warm restart must not re-run any stage"
        stats = warm.cache_stats
        assert stats["l2"]["hits"] > 0
        assert stats["misses"] == 0
        assert stats["hit_rate"] == 1.0
        assert stats["promotions"] == stats["l2"]["hits"]
        assert warm.report() == _run(_flow(tmp_path / "store")).report()

    def test_report_breaks_the_hit_rate_down_per_tier(self, tmp_path):
        _run(_flow(tmp_path / "store"))
        warm = _run(_flow(tmp_path / "store"))
        line = [l for l in warm.report().splitlines()
                if l.startswith("stage cache:")]
        assert len(line) == 1
        assert "100% of stage lookups served" in line[0]
        assert "L2 store" in line[0] and "promoted" in line[0]

    def test_storeless_report_has_no_tier_line(self, baseline):
        assert "stage cache:" not in baseline.report()
        assert baseline.cache_stats is not None
        assert "l2" not in baseline.cache_stats

    def test_every_cached_artifact_round_trips_to_its_fingerprint(
            self, tmp_path):
        # the acceptance property: every artifact the flow caches comes
        # back from the store under the fingerprint it was stored with,
        # and that fingerprint is still the right name for the revived
        # value -- otherwise downstream signatures diverge across
        # restarts.  Content-addressed outputs must re-hash to it;
        # input-addressed ones must carry the name derived from the
        # signature they were stored under and revive with the content
        # the flow produced.
        written = {}

        class Recording(PersistentCache):
            def put(self, stage, signature, outputs):
                written[cache_key(stage, signature, self.schema)] = \
                    (signature, outputs)
                super().put(stage, signature, outputs)

        store = ArtifactStore(tmp_path / "store")
        _run(_flow(stage_cache=TieredCache(StageCache(), Recording(store))))
        content_addressed = {(stage.name, key)
                             for stage in build_flow_stages()
                             for key in stage.content_addressed}
        checked = {True: set(), False: set()}
        for store_key in store.keys():
            record = store.get(store_key)
            stage = record.meta["stage"]
            signature, produced = written[record.key]
            rows = pickle.loads(record.payload)
            assert rows, f"record {record.meta} stored no outputs"
            for artifact, revived, fingerprint in rows:
                original, produced_fingerprint = produced[artifact]
                where = f"artifact {artifact!r} of stage {stage!r}"
                assert fingerprint == produced_fingerprint, where
                if (stage, artifact) in content_addressed:
                    assert fingerprint_of(revived) == fingerprint, \
                        f"{where} drifts across the store"
                else:
                    assert fingerprint == derived_fingerprint(
                        stage, artifact, signature), where
                    assert _canonical(revived) == _canonical(original), \
                        f"{where} revives with different content"
                checked[(stage, artifact) in content_addressed].add(artifact)
        # the sweep must have exercised the full artifact surface,
        # including the arbiter (whose fingerprint once drifted)
        assert {"arbiter", "plan", "stg_full", "hls_results", "vhdl_files",
                "sim_result"} <= checked[False]
        assert {"partition_result", "partition", "schedule", "stg",
                "controller"} <= checked[True]


class TestStoreBackedBatch:
    def _jobs(self):
        equalizer = four_band_equalizer(words=8)
        return [FlowJob(graph=equalizer, arch=minimal_board(),
                        partitioner=GreedyPartitioner(), label="eq/greedy")]

    def test_serial_backend_accepts_every_store_spelling(self, tmp_path):
        baseline = BatchRunner(backend="serial").run(self._jobs())[0]
        spellings = [str(tmp_path / "a"), tmp_path / "b",
                     ArtifactStore(tmp_path / "c"),
                     PersistentCache(ArtifactStore(tmp_path / "d"))]
        for spelling in spellings:
            outcome = BatchRunner(backend="serial",
                                  store=spelling).run(self._jobs())[0]
            assert outcome.ok
            assert outcome.result.report().splitlines()[:-1] == \
                baseline.result.report().splitlines()

    def test_serial_backend_warm_restart(self, tmp_path):
        store = tmp_path / "store"
        BatchRunner(backend="serial", store=store).run(self._jobs())
        warm = BatchRunner(backend="serial",
                           store=store).run(self._jobs())[0]
        assert warm.ok
        assert sum(warm.result.stage_runs.values()) == 0
        assert warm.result.cache_stats["l2"]["hits"] > 0

    def test_shard_backend_matches_serial(self, tmp_path):
        store = tmp_path / "store"
        serial = ExplorationResult.from_outcomes(
            BatchRunner(backend="serial").run(self._jobs()))
        BatchRunner(shards=2, store=store).run(self._jobs())
        runner = BatchRunner(shards=2, store=store)
        warm = ExplorationResult.from_outcomes(runner.run(self._jobs()))
        assert not warm.failures
        assert warm.points == serial.points
        assert runner.shard_stats.cache["l2"]["hits"] > 0

    def test_rejects_a_nonsense_store(self):
        with pytest.raises(TypeError, match="store"):
            BatchRunner(backend="serial", store=1234)
