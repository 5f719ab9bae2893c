"""Stage-graph pipeline engine underlying the COOL flow.

The paper's design flow (Fig. 1) is a staged pipeline: partitioning,
co-synthesis, controller synthesis, HLS, code generation.  This module
gives that structure a first-class runtime:

* :class:`Stage` -- one pipeline step with *declared* input and output
  artifact keys and a pure ``run(ctx)`` body;
* :class:`FlowContext` -- a typed artifact store that records a
  fingerprint (the artifact's name) for every artifact;
* :class:`PipelineExecutor` -- a demand-driven executor: requesting a
  set of output keys runs exactly the stages whose input fingerprints
  changed since they last ran, skipping everything that is still fresh;
* :class:`StageCache` -- an optional cross-run memo of stage outputs
  keyed by ``(stage name, input fingerprints)`` so re-running the flow
  on an unchanged (graph, architecture) pair costs a dictionary lookup.

A driver's ``put`` (the flow's roots) content-hashes the value.  The
outputs of a stage run are *input-addressed*: named by
:func:`derived_fingerprint` of the stage, the key and the input
signature, which is sound because stage bodies are pure, and never
walked.  A stage's ``content_addressed`` outputs and the outputs of
:meth:`PipelineExecutor.refine` are content-hashed instead.

The executor accepts any :class:`~repro.store.tiered.CacheTier`, not
just a :class:`StageCache`: the in-memory cache is the L1 tier of the
stack, and wrapping it in a :class:`~repro.store.tiered.TieredCache`
over a :class:`~repro.store.tiered.PersistentCache` makes stage outputs
survive the process (see :mod:`repro.store`).

Artifacts are treated as immutable once stored: a stage must never
mutate an input in place, it returns fresh outputs instead.  The
executor relies on that contract -- fingerprints are fixed when an
artifact is installed and cached stage outputs are shared by reference.
"""

from __future__ import annotations

import threading
import weakref
from itertools import count
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

from ..fingerprint import content_hash
from ..obs import Counter
from ..obs import span as obs_span
from ..store.tiered import CacheTier

__all__ = ["PipelineError", "fingerprint_of", "derived_fingerprint", "Stage",
           "FlowContext", "StageCache", "CacheTier", "PipelineExecutor"]


class PipelineError(RuntimeError):
    """Raised for malformed pipelines: missing inputs, bad stage outputs."""


# ----------------------------------------------------------------------
# content fingerprints
# ----------------------------------------------------------------------
def fingerprint_of(value: Any) -> str:
    """Content fingerprint of an artifact.

    Objects exposing a ``fingerprint()`` method (task graphs, partitions,
    schedules, STGs, architectures, partitioners) are asked directly;
    plain containers and dataclasses are hashed structurally.  Anything
    else falls back to an identity token drawn from a monotonic
    registry: unlike a raw ``id()``, a token is never reused for a
    different object, so a stale cache key can never alias a new
    artifact that happens to land on a recycled address.
    """
    hook = getattr(value, "fingerprint", None)
    if callable(hook):
        return hook()
    return content_hash(_canonical(value))


def derived_fingerprint(stage: str, key: str,
                        signature: tuple[str, ...]) -> str:
    """Name of output ``key`` of ``stage`` run on inputs whose
    fingerprints are ``signature`` (pure stages: ``PUR4xx``, ``DET102``)."""
    return content_hash(("derived", stage, key, signature))


def _canonical(value: Any) -> str:
    """Deterministic string form of ``value`` for hashing."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return f"{type(value).__name__}:{value!r}"
    hook = getattr(value, "fingerprint", None)
    if callable(hook):
        return f"fp:{hook()}"
    if isinstance(value, Enum):
        return f"enum:{type(value).__qualname__}.{value.name}"
    if isinstance(value, (tuple, list)):
        body = ",".join(_canonical(v) for v in value)
        return f"{type(value).__name__}[{body}]"
    if isinstance(value, (set, frozenset)):
        body = ",".join(sorted(_canonical(v) for v in value))
        return f"set[{body}]"
    if isinstance(value, Mapping):
        items = sorted((_canonical(k), _canonical(v))
                       for k, v in value.items())
        body = ",".join(f"{k}={v}" for k, v in items)
        return f"map[{body}]"
    if is_dataclass(value) and not isinstance(value, type):
        body = ",".join(f"{f.name}={_canonical(getattr(value, f.name))}"
                        for f in fields(value))
        return f"{type(value).__qualname__}({body})"
    return f"@{type(value).__qualname__}:{_identity_token(value)}"


_IDENTITY_COUNTER = count()
_identity_registry: dict[int, tuple[int, Callable[[], Any]]] = {}
_identity_lock = threading.Lock()


def _identity_token(value: Any) -> int:
    """A process-unique token for ``value``, never reused after its death.

    Weakref-able objects are tracked with a finalizer that retires the
    token when they are collected; objects that cannot be weak-referenced
    are pinned by the registry instead, which equally guarantees their
    token (and address) outlives every cache key mentioning it.
    """
    # repro-lint: ignore[DET102] -- identity tokens are process-local by
    # design: they key same-process cache entries for unfingerprintable
    # values and never reach a shard payload or cross-process fingerprint
    key = id(value)
    with _identity_lock:
        entry = _identity_registry.get(key)
        if entry is not None and entry[1]() is value:
            return entry[0]
        token = next(_IDENTITY_COUNTER)
        try:
            ref: Callable[[], Any] = weakref.ref(
                value, lambda _, key=key: _identity_registry.pop(key, None))
        except TypeError:
            ref = (lambda value=value: value)  # pin: id can never recycle
        _identity_registry[key] = (token, ref)
        return token


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------
class FlowContext:
    """Typed artifact store with fingerprints.

    Keys are artifact names (``"graph"``, ``"schedule"``, ...); the
    fingerprint of each artifact is fixed when it is stored and is what
    the executor compares to decide whether a stage must re-run.
    """

    def __init__(self, **artifacts: Any) -> None:
        self._values: dict[str, Any] = {}
        self._fingerprints: dict[str, str] = {}
        for key, value in artifacts.items():
            self.put(key, value)

    def put(self, key: str, value: Any) -> None:
        """Store (or replace) an artifact, fingerprinting its content."""
        self._values[key] = value
        self._fingerprints[key] = fingerprint_of(value)

    def put_fingerprinted(self, key: str, value: Any,
                          fingerprint: str) -> None:
        """Store an artifact whose fingerprint is already known."""
        self._values[key] = value
        self._fingerprints[key] = fingerprint

    def get(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise PipelineError(f"unknown artifact {key!r}") from None

    def fingerprint(self, key: str) -> str:
        try:
            return self._fingerprints[key]
        except KeyError:
            raise PipelineError(f"unknown artifact {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def keys(self) -> list[str]:
        return list(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowContext({sorted(self._values)})"


@dataclass(frozen=True)
class Stage:
    """One pipeline step with declared inputs and outputs.

    ``run(ctx)`` must be pure with respect to the declared ``inputs``:
    it reads them from the context and returns a mapping containing at
    least every declared output key.  Undeclared reads break caching.
    The outputs listed in ``content_addressed`` are content-hashed
    instead of named by :func:`derived_fingerprint`, so the stages that
    read them are shared by runs whose different inputs give equal ones.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    run: Callable[[FlowContext], Mapping[str, Any]]
    content_addressed: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.outputs:
            raise PipelineError(f"stage {self.name!r} declares no outputs")
        if not set(self.content_addressed) <= set(self.outputs):
            raise PipelineError(f"stage {self.name!r} content-addresses "
                                f"undeclared outputs")


class StageCache:
    """Cross-run LRU memo: ``(stage, input fingerprints) -> outputs``.

    Cached output values are shared by reference between runs, which is
    safe because pipeline artifacts are immutable by contract.  The
    cache is lock-protected, so one instance can be shared across
    threads.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise PipelineError("stage cache needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, dict[str, tuple[Any, str]]] = \
            OrderedDict()
        self._lock = threading.Lock()
        self._hits = Counter("hits")
        self._misses = Counter("misses")

    @property
    def hits(self) -> int:
        """Lifetime hit count."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Lifetime miss count."""
        return self._misses.value

    def get(self, stage: str,
            signature: tuple[str, ...]) -> dict[str, tuple[Any, str]] | None:
        key = (stage, signature)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry

    def put(self, stage: str, signature: tuple[str, ...],
            outputs: dict[str, tuple[Any, str]]) -> None:
        key = (stage, signature)
        with self._lock:
            self._entries[key] = outputs
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        """Counter snapshot marking the start of a measurement window.

        Pass the returned mapping to :meth:`stats` as ``since`` to get
        the *delta* view of everything that happened after this call.
        Benchmarks use this to report a warm re-sweep's hit rate
        honestly: the lifetime counters accumulate across the cold and
        warm passes (a fully-warm pass reads ~0.5 overall), while the
        windowed view isolates the warm pass itself (~1.0).
        """
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}

    def stats(self, since: Mapping[str, int] | None = None) -> dict:
        """Consistent snapshot of occupancy and hit counters.

        Callers sharing one cache across threads read this for their
        reports; taking the lock keeps the numbers coherent mid-sweep.
        With ``since`` (a :meth:`snapshot`), the hit/miss counters and
        the hit rate cover only the window after the snapshot was taken;
        occupancy is always current.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            if since is not None:
                hits -= since["hits"]
                misses -= since["misses"]
            total = hits + misses
            return {"entries": len(self._entries),
                    "max_entries": self.max_entries,
                    "hits": hits, "misses": misses,
                    "hit_rate": round(hits / total, 4) if total else 0.0}

    @staticmethod
    def merge_stats(stats: Iterable[Mapping]) -> dict:
        """Aggregate several :meth:`stats` dicts into one summary.

        Sharded sweeps run one cache per worker process; the reduce
        stage merges their per-shard windows into a single sweep-wide
        report.  The merge is shape-generic so tiered views fold too:
        numeric counters are summed (per-process caches are disjoint;
        a *shared* L2 store's occupancy therefore appears once per
        worker view), nested per-tier mappings (``l1``/``l2``) are
        merged recursively, the hit rate is recomputed over the merged
        counters, and ``caches`` records how many views were merged.
        """
        merged: dict = {"entries": 0, "max_entries": 0,
                        "hits": 0, "misses": 0}
        nested: dict[str, list[Mapping]] = {}
        caches = 0
        for entry in stats:
            caches += 1
            for key, value in entry.items():
                if key in ("hit_rate", "caches"):
                    continue  # recomputed / recounted below
                if isinstance(value, Mapping):
                    nested.setdefault(key, []).append(value)
                elif isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        for key, views in nested.items():
            merged[key] = StageCache.merge_stats(views)
        total = merged["hits"] + merged["misses"]
        merged["hit_rate"] = round(merged["hits"] / total, 4) if total \
            else 0.0
        merged["caches"] = caches
        return merged

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class PipelineExecutor:
    """Demand-driven executor over an ordered list of stages.

    ``request(ctx, keys)`` walks the stage list backwards from the
    requested artifact keys to find the producing stages, then executes
    them in declared order.  A stage actually runs only when the
    fingerprints of its inputs differ from the last execution; otherwise
    its previous outputs (still in the context, or in the cross-run
    cache tier) are reused.  ``stage_runs`` counts real executions;
    ``stage_seconds`` adds up the durations of each stage's ``stage``
    spans (:func:`repro.obs.span`), so the seconds reported here are
    exactly the stage times a trace of the run shows.  A run span
    covers the stage body, naming its outputs and the cache write; a
    hit span covers installing the cached outputs.

    ``cache`` may be any :class:`~repro.store.tiered.CacheTier`: a bare
    :class:`StageCache` (memory only) or a
    :class:`~repro.store.tiered.TieredCache` whose persistent tier makes
    warm starts survive the process.
    """

    def __init__(self, stages: Iterable[Stage],
                 cache: CacheTier | None = None) -> None:
        self._order: list[Stage] = []
        self._producer: dict[str, Stage] = {}
        self._by_name: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._by_name:
                raise PipelineError(f"duplicate stage name {stage.name!r}")
            for key in stage.outputs:
                if key in self._producer:
                    raise PipelineError(
                        f"artifact {key!r} produced by both "
                        f"{self._producer[key].name!r} and {stage.name!r}")
                self._producer[key] = stage
            self._by_name[stage.name] = stage
            self._order.append(stage)
        self.cache = cache
        self.stage_seconds: dict[str, float] = {}
        self.stage_runs: dict[str, int] = {s.name: 0 for s in self._order}
        self.cache_hits: dict[str, int] = {s.name: 0 for s in self._order}
        self._last_inputs: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    def request(self, ctx: FlowContext, outputs: Iterable[str]) -> None:
        """Bring every requested artifact up to date in ``ctx``."""
        outputs = list(outputs)
        unknown = [k for k in outputs
                   if k not in self._producer and k not in ctx]
        if unknown:
            raise PipelineError(f"no stage produces requested artifacts "
                                f"{unknown}")
        needed_keys = set(outputs)
        needed: list[Stage] = []
        for stage in reversed(self._order):
            if needed_keys & set(stage.outputs):
                needed.append(stage)
                needed_keys |= set(stage.inputs)
        for stage in reversed(needed):
            self._execute(ctx, stage)

    def refine(self, ctx: FlowContext, stage_name: str,
               body: Callable[[FlowContext], Mapping[str, Any]]) -> None:
        """Replace a stage's outputs in ``ctx`` with ``body(ctx)``.

        For drivers that refine a stage's outputs after running it (the
        HLS area-repair loop re-maps the partitioning results).  The
        refinement is timed like a run of the stage: one ``stage`` span
        (``cache="refine"``) whose duration is charged to the stage.
        ``body`` is not the stage's own function, so its outputs are
        content-hashed.
        """
        stage = self._stage(stage_name)
        with obs_span(stage.name, kind="stage", cache="refine") as timed:
            self._install(ctx, stage, body(ctx), None)
        self._charge(stage.name, timed.duration)

    def commit_outputs(self, ctx: FlowContext, stage_name: str) -> None:
        """Overwrite the cache entry of a stage with the context's artifacts.

        After a :meth:`refine`, committing stores the refined artifacts
        under the stage's current input signature, so the next run with
        the same inputs is served the refined outputs directly instead
        of repeating the refinement.
        """
        stage = self._stage(stage_name)
        self._publish(ctx, stage, self._signature(ctx, stage))

    # ------------------------------------------------------------------
    def _signature(self, ctx: FlowContext, stage: Stage) -> tuple[str, ...]:
        missing = [k for k in stage.inputs
                   if k not in ctx and k not in self._producer]
        if missing:
            raise PipelineError(f"stage {stage.name!r}: missing inputs "
                                f"{missing} (not in context, no producer)")
        return tuple(ctx.fingerprint(k) for k in stage.inputs)

    def _stage(self, stage_name: str) -> Stage:
        try:
            return self._by_name[stage_name]
        except KeyError:
            raise PipelineError(f"unknown stage {stage_name!r}") from None

    def _charge(self, stage_name: str, seconds: float) -> None:
        self.stage_seconds[stage_name] = \
            self.stage_seconds.get(stage_name, 0.0) + seconds

    @staticmethod
    def _install(ctx: FlowContext, stage: Stage,
                 produced: Mapping[str, Any],
                 signature: tuple[str, ...] | None) -> None:
        """Store ``produced``, named by ``signature`` unless that is None
        (a refinement) or the output is ``content_addressed``."""
        missing = [k for k in stage.outputs if k not in produced]
        if missing:
            raise PipelineError(f"stage {stage.name!r} did not produce "
                                f"declared outputs {missing}")
        for key in stage.outputs:
            if signature is None or key in stage.content_addressed:
                ctx.put(key, produced[key])
            else:
                ctx.put_fingerprinted(key, produced[key], derived_fingerprint(
                    stage.name, key, signature))

    def _publish(self, ctx: FlowContext, stage: Stage,
                 signature: tuple[str, ...]) -> None:
        """Mark the stage fresh for ``signature`` and cache its outputs."""
        self._last_inputs[stage.name] = signature
        if self.cache is not None:
            self.cache.put(stage.name, signature,
                           {k: (ctx.get(k), ctx.fingerprint(k))
                            for k in stage.outputs})

    def _execute(self, ctx: FlowContext, stage: Stage) -> None:
        signature = self._signature(ctx, stage)
        if (self._last_inputs.get(stage.name) == signature
                and all(k in ctx for k in stage.outputs)):
            return  # still fresh from an earlier request of this run
        cached = self.cache.get(stage.name, signature) \
            if self.cache is not None else None
        with obs_span(stage.name, kind="stage",
                      cache="miss" if cached is None else "hit") as timed:
            if cached is None:
                self._install(ctx, stage, stage.run(ctx), signature)
                self.stage_runs[stage.name] += 1
                self._publish(ctx, stage, signature)
            else:
                for key, (value, fp) in cached.items():
                    ctx.put_fingerprinted(key, value, fp)
                self._last_inputs[stage.name] = signature
                self.cache_hits[stage.name] += 1
        self._charge(stage.name, timed.duration)
