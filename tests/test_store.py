"""Tests for the persistent artifact store (repro.store).

The store's contract is brutal in both directions: a *caller* mistake
(malformed key, nonsense configuration) raises :class:`StoreError`
immediately, while *on-disk* damage of any kind -- torn writes, bit
flips, records answering the wrong key, a corrupt index -- must never
raise on the hot path.  Damage degrades to a miss and the evidence is
quarantined for inspection.
"""

import hashlib
import json
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.store.locks as locks_mod
from repro.store import (DEFAULT_MAX_BYTES, MAGIC, STORE_SCHEMA_VERSION,
                         ArtifactStore, FileLock, RecordError, StoreError,
                         StoreRecord, decode_record, encode_record)


def key_of(name: str) -> str:
    """A well-formed (sha256-hex) store key derived from a test name."""
    return hashlib.sha256(name.encode("utf-8")).hexdigest()


class TestRecordFormat:
    def test_round_trip(self):
        key = key_of("round-trip")
        blob = encode_record(key, b"payload bytes", schema=3,
                             meta={"stage": "hls", "outputs": ["a", "b"]})
        record = decode_record(blob)
        assert isinstance(record, StoreRecord)
        assert record.key == key
        assert record.schema == 3
        assert record.payload == b"payload bytes"
        assert record.meta == {"stage": "hls", "outputs": ["a", "b"]}

    def test_encoding_is_deterministic(self):
        # canonical headers are what let two processes racing on one
        # fingerprint write byte-identical files
        key = key_of("deterministic")
        meta = {"b": 2, "a": 1}
        first = encode_record(key, b"x" * 100, schema=1, meta=meta)
        second = encode_record(key, b"x" * 100, schema=1,
                               meta={"a": 1, "b": 2})
        assert first == second

    def test_magic_identifies_the_format(self):
        blob = encode_record(key_of("magic"), b"data", schema=1)
        assert blob.startswith(MAGIC)
        with pytest.raises(RecordError, match="magic"):
            decode_record(b"not-a-record" + blob)

    @pytest.mark.parametrize("cut", ["length", "header", "payload"])
    def test_truncation_raises_record_error(self, cut):
        blob = encode_record(key_of("truncate"), b"p" * 64, schema=1)
        offsets = {"length": len(MAGIC) + 2,
                   "header": len(MAGIC) + 4 + 10,
                   "payload": len(blob) - 16}
        with pytest.raises(RecordError, match="truncated|size"):
            decode_record(blob[:offsets[cut]])

    def test_bit_flip_in_payload_fails_checksum(self):
        blob = bytearray(encode_record(key_of("flip"), b"q" * 64, schema=1))
        blob[-10] ^= 0x40
        with pytest.raises(RecordError, match="checksum"):
            decode_record(bytes(blob))

    def test_foreign_format_version_rejected(self):
        header = {"format": STORE_SCHEMA_VERSION + 1, "key": key_of("v"),
                  "schema": 1, "size": 1, "meta": {},
                  "sha256": hashlib.sha256(b"z").hexdigest()}
        header_bytes = json.dumps(header, sort_keys=True,
                                  separators=(",", ":")).encode()
        blob = (MAGIC + len(header_bytes).to_bytes(4, "big")
                + header_bytes + b"z")
        with pytest.raises(RecordError, match="format"):
            decode_record(blob)

    def test_header_must_be_a_json_object(self):
        header_bytes = b"[1,2,3]"
        blob = MAGIC + len(header_bytes).to_bytes(4, "big") + header_bytes
        with pytest.raises(RecordError, match="JSON object"):
            decode_record(blob)

    def test_missing_header_field_raises(self):
        header_bytes = json.dumps({"format": STORE_SCHEMA_VERSION}).encode()
        blob = MAGIC + len(header_bytes).to_bytes(4, "big") + header_bytes
        with pytest.raises(RecordError, match="missing field"):
            decode_record(blob)

    def test_payload_must_be_bytes(self):
        with pytest.raises(TypeError, match="bytes"):
            encode_record(key_of("type"), "a string", schema=1)


class TestArtifactStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("basic")
        store.put(key, b"artifact", schema=2, meta={"stage": "stg"})
        record = store.get(key)
        assert record is not None
        assert record.payload == b"artifact"
        assert record.schema == 2
        assert record.meta["stage"] == "stg"
        assert key in store
        assert list(store.keys()) == [key]

    def test_missing_key_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get(key_of("nothing")) is None
        stats = store.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        assert stats["entries"] == 0

    def test_last_write_wins(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("overwrite")
        store.put(key, b"first", schema=1)
        store.put(key, b"second", schema=1)
        assert store.get(key).payload == b"second"
        assert store.stats()["entries"] == 1

    @pytest.mark.parametrize("bad", ["", "short", "UPPERCASEHEXNO",
                                     "zz" * 8, 12345])
    def test_malformed_keys_are_caller_errors(self, tmp_path, bad):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(StoreError, match="key"):
            store.get(bad)
        with pytest.raises(StoreError, match="key"):
            store.put(bad, b"x", schema=1)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_budget_rejected(self, tmp_path, bad):
        with pytest.raises(StoreError, match="max_bytes"):
            ArtifactStore(tmp_path / "store", max_bytes=bad)

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        for i in range(8):
            store.put(key_of(f"unbounded-{i}"), b"x" * 512, schema=1)
        stats = store.stats()
        assert stats["entries"] == 8
        assert stats["evictions"] == 0
        assert stats["max_bytes"] is None

    def test_invalidate_drops_the_record(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("invalidate")
        store.put(key, b"x", schema=1)
        store.invalidate(key)
        assert key not in store
        assert store.get(key) is None
        assert store.stats()["invalidated"] == 1

    def test_stats_report_every_counter_in_name_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.get(key_of("absent"))
        stats = store.stats()
        assert list(stats) == ["entries", "bytes", "max_bytes", "evictions",
                               "hits", "invalidated", "misses",
                               "quarantined"]
        assert stats["misses"] == store.misses == 1
        assert stats["hits"] == stats["evictions"] == 0

    def test_default_budget_is_sane(self):
        assert DEFAULT_MAX_BYTES >= 64 * 1024 * 1024


class TestQuarantine:
    """On-disk damage is preserved for inspection, never re-served and
    never raised."""

    def _object_path(self, store, key):
        return store.root / "objects" / key[:2] / f"{key}.rec"

    def test_truncated_record_is_quarantined_not_raised(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("torn")
        store.put(key, b"p" * 256, schema=1)
        path = self._object_path(store, key)
        path.write_bytes(path.read_bytes()[:-40])  # torn write
        assert store.get(key) is None  # miss, not RecordError
        quarantined = store.quarantined_files()
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(key)
        reason = quarantined[0].with_suffix(".reason").read_text()
        assert "torn" in reason or "size" in reason
        # the damaged file is gone from the object tree: clean miss next
        assert store.get(key) is None
        assert store.stats()["quarantined"] == 1
        assert store.stats()["entries"] == 0

    def test_bit_flipped_payload_is_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("flipped")
        store.put(key, b"q" * 256, schema=1)
        path = self._object_path(store, key)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x01
        path.write_bytes(bytes(blob))
        assert store.get(key) is None
        assert store.stats()["quarantined"] == 1
        reason = store.quarantined_files()[0] \
            .with_suffix(".reason").read_text()
        assert "checksum" in reason

    def test_record_answering_the_wrong_key_is_quarantined(self, tmp_path):
        # a valid record copied to another key's path must not be served
        store = ArtifactStore(tmp_path / "store")
        source, target = key_of("right"), key_of("wrong")
        store.put(source, b"payload", schema=1)
        target_path = self._object_path(store, target)
        target_path.parent.mkdir(parents=True, exist_ok=True)
        target_path.write_bytes(self._object_path(store, source).read_bytes())
        assert store.get(target) is None
        assert store.get(source).payload == b"payload"
        assert store.stats()["quarantined"] == 1

    def test_total_garbage_is_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("garbage")
        path = self._object_path(store, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00\xff" * 100)
        assert store.get(key) is None
        assert store.stats()["quarantined"] == 1

    def test_quarantine_then_rewrite_recovers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("recover")
        store.put(key, b"v1" * 100, schema=1)
        path = self._object_path(store, key)
        path.write_bytes(b"damaged")
        assert store.get(key) is None
        store.put(key, b"v1" * 100, schema=1)  # recompute republished
        assert store.get(key).payload == b"v1" * 100

    def test_every_bit_flip_and_truncation_is_quarantined(self, tmp_path):
        # the checksum must cover the header too: a flip in ``schema``
        # or ``meta`` served as a valid record is silent corruption
        store = ArtifactStore(tmp_path / "store")
        key = key_of("every-bit")
        store.put(key, bytes(range(96)), schema=5,
                  meta={"stage": "hls",
                        "outputs": ["hls_results", "datapaths"]})
        path = self._object_path(store, key)
        blob = path.read_bytes()
        damaged = [blob[:cut] for cut in range(len(blob))]
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << bit % 8
            damaged.append(bytes(flipped))
        for count, bad in enumerate(damaged, start=1):
            path.write_bytes(bad)
            assert store.get(key) is None, bad
            assert store.stats()["quarantined"] == count
        path.write_bytes(blob)
        record = store.get(key)
        assert (record.schema, record.payload) == (5, bytes(range(96)))


class TestEviction:
    def _age(self, store, key, mtime):
        import os
        path = store.root / "objects" / key[:2] / f"{key}.rec"
        os.utime(path, (mtime, mtime))

    def test_lru_eviction_respects_byte_bound(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=2048)
        keys = [key_of(f"evict-{i}") for i in range(10)]
        for i, key in enumerate(keys):
            store.put(key, bytes([i]) * 400, schema=1)
            self._age(store, key, 1_000_000 + i)
        stats = store.stats()
        assert stats["bytes"] <= 2048
        assert stats["evictions"] > 0
        assert stats["entries"] < 10

    def test_oldest_records_are_the_victims(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        keys = [key_of(f"lru-{i}") for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, bytes([i]) * 900, schema=1)
            self._age(store, key, 1_000_000 + i)
        # tighten the budget just under current occupancy: the next put
        # must evict exactly the two stalest keys, newest stays
        store.max_bytes = store.stats()["bytes"] - 10
        overflow = key_of("lru-overflow")
        store.put(overflow, b"z" * 900, schema=1)
        assert overflow in store
        assert keys[0] not in store
        assert keys[1] not in store
        assert keys[2] in store
        assert keys[3] in store

    def test_a_hit_refreshes_recency(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        keys = [key_of(f"touch-{i}") for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, bytes([i]) * 900, schema=1)
            self._age(store, key, 1_000_000 + i)
        assert store.get(keys[0]) is not None  # os.utime bumps the clock
        # room for exactly the four seeded records: one victim needed
        store.max_bytes = store.stats()["bytes"] + 10
        store.put(key_of("touch-overflow"), b"z" * 900, schema=1)
        assert keys[0] in store, "freshly-hit record must not be evicted"
        assert keys[1] not in store, "the stalest untouched record goes"
        assert keys[2] in store and keys[3] in store

    def test_just_written_key_is_never_the_victim(self, tmp_path):
        # a record larger than the whole budget still lands; the bound
        # is enforced against everything else
        store = ArtifactStore(tmp_path / "store", max_bytes=1024)
        small = key_of("protected-small")
        store.put(small, b"s" * 100, schema=1)
        huge = key_of("protected-huge")
        store.put(huge, b"h" * 4096, schema=1)
        assert huge in store
        assert small not in store

    def test_eviction_never_drops_an_entry_mid_read(self, tmp_path):
        # readers hammer one key while a writer churns the store past
        # its budget: every read must return the full payload or a
        # clean miss -- never an exception, never partial bytes
        store = ArtifactStore(tmp_path / "store", max_bytes=8192)
        hot = key_of("hot-record")
        payload = b"hot" * 500
        store.put(hot, payload, schema=1)
        failures: list[str] = []
        stop = threading.Event()

        def reader():
            reads = 0
            while not stop.is_set() and reads < 400:
                reads += 1
                try:
                    record = store.get(hot)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    failures.append(f"get raised {exc!r}")
                    return
                if record is not None and record.payload != payload:
                    failures.append("partial or foreign payload served")
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for i in range(60):  # churn: forces eviction scans
                store.put(key_of(f"churn-{i}"), bytes([i % 251]) * 700,
                          schema=1)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures
        assert store.stats()["bytes"] <= 8192


class TestIndexRecovery:
    def test_corrupt_index_is_rebuilt_from_objects(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        keys = sorted(key_of(f"idx-{i}") for i in range(3))
        for key in keys:
            store.put(key, b"v", schema=1)
        (store.root / "index.json").write_text("{not json", encoding="utf-8")
        stats = store.stats()  # forces a locked index load -> rebuild
        assert stats["entries"] == 3
        assert list(store.keys()) == keys
        assert store.get(keys[0]).payload == b"v"

    def test_deleted_index_is_rebuilt(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = key_of("reindex")
        store.put(key, b"v" * 32, schema=1)
        (store.root / "index.json").unlink()
        fresh = ArtifactStore(store.root)
        assert fresh.stats()["entries"] == 1
        assert fresh.get(key).payload == b"v" * 32

    def test_rebuilt_index_feeds_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=2048)
        for i in range(3):
            store.put(key_of(f"seed-{i}"), bytes([i]) * 500, schema=1)
        (store.root / "index.json").write_text("[]", encoding="utf-8")
        store.put(key_of("trigger"), b"t" * 900, schema=1)
        assert store.stats()["bytes"] <= 2048


def _hammer_one_key(args):
    """Worker: publish the same record many times into a shared root."""
    root, key, payload, rounds = args
    store = ArtifactStore(root)
    for _ in range(rounds):
        store.put(key, payload, schema=1, meta={"stage": "race"})
    record = store.get(key)
    return record is not None and record.payload == payload


class TestConcurrency:
    def test_two_processes_converge_to_one_valid_record(self, tmp_path):
        # the acceptance property: concurrent writers of one fingerprint
        # end with exactly one valid object file (content-addressed
        # writes are byte-identical, so either rename winner is correct)
        root = str(tmp_path / "store")
        key = key_of("same-fingerprint")
        payload = pickle.dumps(sorted({"makespan": 42}.items()))
        with ProcessPoolExecutor(max_workers=2) as pool:
            verdicts = list(pool.map(
                _hammer_one_key,
                [(root, key, payload, 40), (root, key, payload, 40)]))
        assert verdicts == [True, True]
        store = ArtifactStore(root)
        objects = list((store.root / "objects").glob("*/*.rec"))
        assert len(objects) == 1
        record = decode_record(objects[0].read_bytes())  # fully valid
        assert record.key == key
        assert record.payload == payload
        assert store.stats()["entries"] == 1
        assert not store.quarantined_files()

    def test_parallel_threads_on_distinct_keys(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        errors: list[BaseException] = []

        def writer(worker: int):
            try:
                for i in range(20):
                    key = key_of(f"w{worker}-{i}")
                    store.put(key, f"{worker}/{i}".encode(), schema=1)
                    assert store.get(key) is not None
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats()["entries"] == 80

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for i in range(5):
            store.put(key_of(f"clean-{i}"), b"x", schema=1)
        assert list((store.root / "tmp").iterdir()) == []


class TestFileLock:
    def test_mutual_exclusion_between_threads(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        counter = {"value": 0}

        def bump():
            for _ in range(200):
                with lock:
                    seen = counter["value"]
                    counter["value"] = seen + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 800

    def test_lock_file_is_created(self, tmp_path):
        path = tmp_path / "deep" / "dir" / ".lock"
        with FileLock(path):
            pass
        if locks_mod.fcntl is not None:
            assert path.exists()

    def test_degrades_without_fcntl(self, tmp_path, monkeypatch):
        # non-POSIX platforms: the flock layer disappears, the
        # in-process thread lock still serializes
        monkeypatch.setattr(locks_mod, "fcntl", None)
        lock = FileLock(tmp_path / ".lock")
        with lock:
            assert lock._fd is None
        store = ArtifactStore(tmp_path / "store")
        key = key_of("no-fcntl")
        store.put(key, b"v", schema=1)
        assert store.get(key).payload == b"v"

    def test_exception_inside_the_lock_releases_it(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        with pytest.raises(RuntimeError):
            with lock:
                raise RuntimeError("boom")
        with lock:  # must not deadlock
            pass
