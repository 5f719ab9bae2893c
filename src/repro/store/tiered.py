"""Tiered stage caching: in-memory L1 over a persistent on-disk L2.

The pipeline executor speaks the small ``CacheTier`` surface
(``get(stage, signature)`` / ``put(stage, signature, outputs)`` plus the
``snapshot``/``stats`` counter window protocol of
:class:`repro.flow.pipeline.StageCache`).  This module adds the two
tiers that make stage outputs survive the process:

* :class:`PersistentCache` -- the L2: serializes each stage's output
  mapping (values *with* their fingerprints) and publishes it to
  an :class:`~repro.store.disk.ArtifactStore` under a key derived from
  ``(stage name, input-fingerprint signature, cache schema version)``.
  Because the stored entry carries the fingerprints that were computed
  when the outputs were first produced, a restore feeds the exact same
  fingerprints back into the flow context -- downstream stage signatures
  match across processes and restarts.
* :class:`TieredCache` -- composes an L1 (any ``CacheTier``; in practice
  a :class:`StageCache`) with a :class:`PersistentCache` L2: L1 hits are
  free, L2 hits are *promoted* into L1, and fresh results are written
  through to both tiers.

Values that cannot be pickled are skipped (counted, never raised), and a
record whose payload no longer unpickles is invalidated and treated as a
miss -- the cache may only ever cost a recompute.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from ..obs import Counter
from ..obs import record as obs_record
from ..obs import span as obs_span
from .disk import ArtifactStore

__all__ = ["CacheTier", "PersistentCache", "TieredCache",
           "PIPELINE_CACHE_SCHEMA"]

#: Schema version of the *serialized stage-output* payload.  Folded into
#: every store key (so old-schema records are simply never looked up)
#: and stamped into every record header (so a forced lookup still
#: refuses a cross-version decode).  Bump when the output serialization
#: or the fingerprint definition changes incompatibly.  Version 2:
#: ``CompositionCheck`` dropped its sampled-tier, BDD and fallback fields.
#: Version 3: ``Transition`` dropped its ``guard`` slot (pickled ``Stg``
#: outputs carry their cached kernel automaton).  Version 4: the
#: ``hls_results`` artifact is fingerprinted through
#: ``SharedDatapathResult.fingerprint()`` instead of structurally.
#: Version 5: ``CompositionCheck.pairs_checked`` counts the all-visible
#: pass (plus the per-class fixpoints only when it fails).  Version 6:
#: stage outputs other than the partitioning results, the minimized STG
#: and the system controller are named by their stage's input
#: fingerprints (``derived_fingerprint``), not by their content.
#: Version 7: a pickled ``SharedDatapathResult`` keeps per node only its
#: latency and area, not the node's full ``HlsResult`` (the HLS records
#: of a 52-design store fall from 1 543 173 to 28 175 payload bytes).
PIPELINE_CACHE_SCHEMA = 7

#: Highest pickle protocol guaranteed on every supported interpreter;
#: pinned so records written by different Python patch versions stay
#: byte-compatible.
_PICKLE_PROTOCOL = 4


@runtime_checkable
class CacheTier(Protocol):
    """What the pipeline executor needs from any cache tier."""

    def get(self, stage: str,
            signature: tuple[str, ...]) -> dict[str, tuple[Any, str]] | None:
        """Cached outputs of ``stage`` for this input signature, or None."""

    def put(self, stage: str, signature: tuple[str, ...],
            outputs: dict[str, tuple[Any, str]]) -> None:
        """Record the outputs ``stage`` produced for this signature."""

    def snapshot(self) -> Mapping:
        """Counter snapshot opening a measurement window (see ``stats``)."""

    def stats(self, since: Mapping | None = None) -> dict:
        """Counters and occupancy; windowed when ``since`` is a snapshot."""


def cache_key(stage: str, signature: Iterable[str],
              schema: int = PIPELINE_CACHE_SCHEMA) -> str:
    """Content-addressed store key of one ``(stage, signature)`` entry."""
    token = repr(("stage-outputs", schema, stage, tuple(signature)))
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


class PersistentCache:
    """L2 tier: stage outputs in a content-addressed disk store.

    Many handles (threads, worker processes) may wrap stores pointing at
    one root; the store's atomic writes and advisory-locked index keep
    them coherent.  Hit/miss counters are handle-local -- shard reduce
    merges the per-worker windows.
    """

    #: Counter names, also the keys of :meth:`snapshot`.
    _COUNTERS = ("hits", "misses", "unstorable", "decode_failures")

    def __init__(self, store: ArtifactStore,
                 schema: int = PIPELINE_CACHE_SCHEMA) -> None:
        self.store = store
        self.schema = schema
        self._counters = {name: Counter(name) for name in self._COUNTERS}

    @property
    def hits(self) -> int:
        return self._counters["hits"].value

    @property
    def misses(self) -> int:
        return self._counters["misses"].value

    @property
    def unstorable(self) -> int:
        return self._counters["unstorable"].value

    @property
    def decode_failures(self) -> int:
        return self._counters["decode_failures"].value

    # -- CacheTier -----------------------------------------------------
    def get(self, stage: str,
            signature: tuple[str, ...]) -> dict[str, tuple[Any, str]] | None:
        with obs_span("cache.get", kind="cache", tier="l2",
                      stage=stage) as span:
            record = self.store.get(cache_key(stage, signature, self.schema))
            if record is None or record.schema != self.schema:
                self._counters["misses"].inc()
                span.set("result", "miss")
                return None
            try:
                rows = pickle.loads(record.payload)
                outputs = {str(key): (value, str(fingerprint))
                           for key, value, fingerprint in rows}
            except Exception:  # stale pickle (renamed class, ...): drop it
                self.store.invalidate(record.key)
                self._counters["decode_failures"].inc()
                self._counters["misses"].inc()
                span.set("result", "decode_failure")
                return None
            self._counters["hits"].inc()
            span.set("result", "hit")
            return outputs

    def put(self, stage: str, signature: tuple[str, ...],
            outputs: dict[str, tuple[Any, str]]) -> None:
        with obs_span("cache.put", kind="cache", tier="l2",
                      stage=stage) as span:
            rows = sorted((key, value, fingerprint)
                          for key, (value, fingerprint) in outputs.items())
            try:
                payload = pickle.dumps(rows, protocol=_PICKLE_PROTOCOL)
            except Exception:  # unpicklable artifact: skip, never raise
                self._counters["unstorable"].inc()
                span.set("result", "unstorable")
                return
            span.set("bytes", len(payload))
            self.store.put(cache_key(stage, signature, self.schema),
                           payload, self.schema,
                           meta={"stage": stage,
                                 "outputs": sorted(outputs)})

    # -- counter window protocol ----------------------------------------
    def snapshot(self) -> dict[str, int]:
        return {name: counter.value
                for name, counter in self._counters.items()}

    def stats(self, since: Mapping | None = None) -> dict:
        counters = self.snapshot()
        if since is not None:
            for key in counters:
                counters[key] -= since.get(key, 0)
        total = counters["hits"] + counters["misses"]
        store_stats = self.store.stats()
        counters.update(
            hit_rate=round(counters["hits"] / total, 4) if total else 0.0,
            entries=store_stats["entries"],
            bytes=store_stats["bytes"],
            evictions=store_stats["evictions"],
            quarantined=store_stats["quarantined"])
        return counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PersistentCache(root={str(self.store.root)!r}, "
                f"schema={self.schema})")


class TieredCache:
    """L1 memory tier over an L2 persistent tier.

    * ``get``: L1 first; an L2 hit is deserialized once and *promoted*
      into L1 so the rest of the run pays memory-lookup prices.
    * ``put``: write-through -- the result lands in L1 for this process
      and is published to L2 for every process (and run) after it.

    Top-level ``hits``/``misses`` count *requests the tier pair served /
    failed*, so existing hit-rate reports stay meaningful; the nested
    ``l1``/``l2`` views break the answer down per tier.
    """

    def __init__(self, l1: CacheTier, l2: PersistentCache) -> None:
        self.l1 = l1
        self.l2 = l2
        self._promotions = Counter("promotions")

    @property
    def promotions(self) -> int:
        """L2-to-L1 promotion count."""
        return self._promotions.value

    # -- CacheTier -----------------------------------------------------
    def get(self, stage: str,
            signature: tuple[str, ...]) -> dict[str, tuple[Any, str]] | None:
        outputs = self.l1.get(stage, signature)
        if outputs is not None:
            return outputs
        outputs = self.l2.get(stage, signature)
        if outputs is not None:
            self.l1.put(stage, signature, outputs)
            self._promotions.inc()
            obs_record("cache.promote", kind="cache", stage=stage)
        return outputs

    def put(self, stage: str, signature: tuple[str, ...],
            outputs: dict[str, tuple[Any, str]]) -> None:
        self.l1.put(stage, signature, outputs)
        self.l2.put(stage, signature, outputs)

    def clear(self) -> None:
        """Drop the memory tier; the persistent tier is durable state."""
        clear = getattr(self.l1, "clear", None)
        if callable(clear):
            clear()

    # -- counter window protocol ----------------------------------------
    def snapshot(self) -> dict:
        return {"l1": self.l1.snapshot(), "l2": self.l2.snapshot(),
                "promotions": self.promotions}

    def stats(self, since: Mapping | None = None) -> dict:
        l1 = self.l1.stats((since or {}).get("l1"))
        l2 = self.l2.stats((since or {}).get("l2"))
        promotions = self.promotions - (since or {}).get("promotions", 0)
        hits = l1["hits"] + l2["hits"]          # served from either tier
        misses = l2["misses"]                   # missed both tiers
        total = hits + misses
        return {"hits": hits, "misses": misses,
                "hit_rate": round(hits / total, 4) if total else 0.0,
                "promotions": promotions, "l1": l1, "l2": l2}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieredCache(l1={self.l1!r}, l2={self.l2!r})"
