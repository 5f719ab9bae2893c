"""Crash-safe content-addressed artifact store on the local filesystem.

Design constraints (ROADMAP "Synthesis-as-a-service"): many concurrent
writer *processes* (shard workers), warm starts that survive restarts,
and a hard rule that a damaged cache may cost a recompute but never an
exception on the flow's hot path.

* **Atomic writes** -- every record is written to a private temp file,
  fsync'd, then :func:`os.replace`'d into place; the containing
  directory entry is fsync'd after the rename.  A reader can observe a
  full record or no record, never a half-written one.  Two processes
  racing on the same key write byte-identical records (the encoding is
  canonical), so either winner is valid.
* **Self-verifying records** -- see :mod:`repro.store.record`: magic,
  schema/version header, a checksum over every byte.  Anything that fails
  verification is moved to ``quarantine/`` (atomic rename, preserved
  for inspection) and reported as a miss.
* **Size-bounded LRU eviction** -- an on-disk ``index.json`` tracks the
  byte size of every live record; when a put pushes the total over
  ``max_bytes``, the least-recently-used records (file mtime clock,
  bumped on every hit) are unlinked until the store fits.  Eviction
  never truncates in place, so a reader holding a record mid-read keeps
  its full bytes (POSIX unlink semantics) and a reader that loses the
  race sees a clean miss.
* **Advisory locking** -- the index read-modify-write (and the eviction
  inside it) is serialized across processes by a :class:`FileLock`;
  object reads never lock.  A lost or corrupt index is rebuilt by
  scanning the object tree -- the index is an accelerator and an audit
  record, never the source of truth.

The store knows nothing about the flow: keys are opaque hex strings,
payloads are opaque bytes.  The stage-cache semantics live one layer up
in :mod:`repro.store.tiered`.
"""

from __future__ import annotations

import json
import os
from itertools import count
from pathlib import Path
from typing import Iterator, Mapping

from ..obs import Counter
from ..obs import record as obs_record
from ..obs import span as obs_span
from .locks import FileLock
from .record import RecordError, StoreRecord, decode_record, encode_record

__all__ = ["ArtifactStore", "StoreError", "DEFAULT_MAX_BYTES"]

#: Default eviction bound: generous for stage artifacts (a cached stage
#: entry pickles at ~10-100 KB), small enough to never surprise a CI
#: container's disk.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_INDEX_VERSION = 1

#: Process-unique suffix source for temp files: pid + counter, so
#: concurrent writers (threads and processes) never collide on a name.
_TMP_COUNTER = count()


class StoreError(RuntimeError):
    """Raised for *caller* mistakes (bad key, bad configuration) --
    never for on-disk damage, which is quarantined instead."""


def _is_hex_key(key: str) -> bool:
    return (isinstance(key, str) and len(key) >= 8
            and all(c in "0123456789abcdef" for c in key))


def _fsync_directory(path: Path) -> None:
    """Flush a directory entry (rename durability); best-effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


class ArtifactStore:
    """Content-addressed record store under one root directory.

    Thread-safe and multi-process-safe: any number of stores may point
    at the same root (shard workers each construct their own).  All
    methods are total -- on-disk damage degrades to misses, never
    raises.
    """

    def __init__(self, root: str | os.PathLike,
                 max_bytes: int | None = DEFAULT_MAX_BYTES) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError(f"max_bytes must be positive or None, "
                             f"got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._quarantine_dir = self.root / "quarantine"
        self._index_path = self.root / "index.json"
        self._lock = FileLock(self.root / ".lock")
        for directory in (self._objects, self._tmp, self._quarantine_dir):
            directory.mkdir(parents=True, exist_ok=True)
        #: Per-handle event counters, local to this handle and merged
        #: across workers by the shard reduce; :meth:`stats` reports
        #: all five, in name order.
        self._counters = {name: Counter(name) for name in (
            "evictions", "hits", "invalidated", "misses", "quarantined")}

    @property
    def hits(self) -> int:
        return self._counters["hits"].value

    @property
    def misses(self) -> int:
        return self._counters["misses"].value

    @property
    def evictions(self) -> int:
        return self._counters["evictions"].value

    @property
    def quarantined(self) -> int:
        return self._counters["quarantined"].value

    @property
    def invalidated(self) -> int:
        return self._counters["invalidated"].value

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.rec"

    def _count(self, counter: str, delta: int = 1) -> None:
        self._counters[counter].inc(delta)

    # ------------------------------------------------------------------
    # read path (lock-free)
    # ------------------------------------------------------------------
    def get(self, key: str) -> StoreRecord | None:
        """Fetch and verify one record; ``None`` on miss or damage."""
        if not _is_hex_key(key):
            raise StoreError(f"malformed store key {key!r}")
        path = self._object_path(key)
        with obs_span("store.get", kind="store", key=key[:12]) as span:
            try:
                blob = path.read_bytes()
            except (FileNotFoundError, NotADirectoryError):
                self._count("misses")
                span.set("result", "miss")
                return None
            except OSError:  # unreadable: treat as damage
                self._quarantine(path, key, "unreadable object file")
                self._count("misses")
                span.set("result", "quarantined")
                return None
            try:
                record = decode_record(blob)
            except RecordError as reason:
                self._quarantine(path, key, str(reason))
                self._count("misses")
                span.set("result", "quarantined")
                return None
            if record.key != key:
                self._quarantine(path, key,
                                 f"record answers key {record.key!r}")
                self._count("misses")
                span.set("result", "quarantined")
                return None
            try:  # LRU clock: a hit makes the record recently-used
                os.utime(path)
            except OSError:
                pass  # concurrently evicted: the bytes in hand stay valid
            self._count("hits")
            span.set("result", "hit")
            span.set("bytes", len(blob))
            return record

    def __contains__(self, key: str) -> bool:
        return self._object_path(key).exists()

    # ------------------------------------------------------------------
    # write path (atomic rename + locked index update)
    # ------------------------------------------------------------------
    def put(self, key: str, payload: bytes, schema: int,
            meta: Mapping[str, object] | None = None) -> None:
        """Durably publish ``payload`` under ``key`` (last write wins)."""
        if not _is_hex_key(key):
            raise StoreError(f"malformed store key {key!r}")
        blob = encode_record(key, payload, schema, meta)
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with obs_span("store.put", kind="store", key=key[:12],
                      bytes=len(blob)):
            tmp = self._tmp / f"{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
            try:
                with open(tmp, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            _fsync_directory(path.parent)
            with self._lock:
                index = self._load_index_locked()
                index["entries"][key] = len(blob)
                self._evict_locked(index, protect=key)
                self._write_index_locked(index)

    def invalidate(self, key: str) -> None:
        """Drop one record (e.g. its payload no longer deserializes)."""
        with self._lock:
            index = self._load_index_locked()
            self._object_path(key).unlink(missing_ok=True)
            if index["entries"].pop(key, None) is not None:
                self._write_index_locked(index)
        self._count("invalidated")

    # ------------------------------------------------------------------
    # quarantine: damage is preserved for inspection, never re-served
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        obs_record("store.quarantine", kind="store", key=key[:12],
                   reason=reason)
        destination = self._quarantine_dir / (
            f"{key}.{os.getpid()}.{next(_TMP_COUNTER)}.rec")
        try:
            os.replace(path, destination)
        except OSError:
            path.unlink(missing_ok=True)  # raced: drop instead of keep
        else:
            try:
                destination.with_suffix(".reason").write_text(
                    reason + "\n", encoding="utf-8")
            except OSError:  # pragma: no cover - best-effort breadcrumb
                pass
        with self._lock:
            index = self._load_index_locked()
            if index["entries"].pop(key, None) is not None:
                self._write_index_locked(index)
        self._count("quarantined")

    def quarantined_files(self) -> list[Path]:
        """The quarantined records currently on disk (sorted)."""
        return sorted(self._quarantine_dir.glob("*.rec"))

    # ------------------------------------------------------------------
    # index + eviction (under the advisory lock)
    # ------------------------------------------------------------------
    def _load_index_locked(self) -> dict:
        try:
            index = json.loads(self._index_path.read_text(encoding="utf-8"))
            if (isinstance(index, dict)
                    and index.get("version") == _INDEX_VERSION
                    and isinstance(index.get("entries"), dict)):
                return index
        except FileNotFoundError:
            pass
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            pass  # corrupt index: fall through to the rebuild
        return self._rebuild_index_locked()

    def _rebuild_index_locked(self) -> dict:
        """Reconstruct the index from the object tree (source of truth)."""
        entries: dict[str, int] = {}
        for path in sorted(self._objects.glob("*/*.rec")):
            try:
                entries[path.stem] = path.stat().st_size
            except OSError:
                continue  # concurrently removed
        return {"version": _INDEX_VERSION, "entries": entries}

    def _write_index_locked(self, index: dict) -> None:
        tmp = self._tmp / f"index.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(json.dumps(index, sort_keys=True).encode())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._index_path)
        finally:
            tmp.unlink(missing_ok=True)
        _fsync_directory(self.root)

    def _evict_locked(self, index: dict, protect: str) -> None:
        """Unlink LRU records until the store fits ``max_bytes``.

        The just-written key is never a victim (a put must not evict
        itself), and a record larger than the whole budget therefore
        still lands -- the bound is honored again on the next put.
        """
        if self.max_bytes is None:
            return
        entries: dict[str, int] = index["entries"]
        total = sum(entries.values())
        if total <= self.max_bytes:
            return
        clock: list[tuple[float, str]] = []
        for key in sorted(entries):
            if key == protect:
                continue
            try:
                clock.append((self._object_path(key).stat().st_mtime, key))
            except OSError:
                total -= entries.pop(key)  # file already gone: prune
        for _, key in sorted(clock):
            if total <= self.max_bytes:
                break
            self._object_path(key).unlink(missing_ok=True)
            total -= entries.pop(key)
            self._count("evictions")
            obs_record("store.evict", kind="store", key=key[:12])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Live record keys, sorted (scans the object tree)."""
        for path in sorted(self._objects.glob("*/*.rec")):
            yield path.stem

    def stats(self) -> dict:
        """Occupancy and counter snapshot of *this* handle.

        Entry/byte occupancy reads the shared on-disk index (what every
        process sees); the hit/miss/eviction counters are local to this
        handle -- per-worker evidence, merged by the shard reduce.
        """
        with self._lock:
            index = self._load_index_locked()
        entries = index["entries"]
        return {"entries": len(entries),
                "bytes": sum(entries.values()),
                "max_bytes": self.max_bytes,
                **{name: counter.value
                   for name, counter in self._counters.items()}}
