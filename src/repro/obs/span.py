"""Span-based tracing with a no-op default and cross-process adoption.

A :class:`Span` is one timed region of work -- a pipeline stage, a
batch job, a store read -- with a name, a kind, a parent link and a
small bag of primitive attributes.  A :class:`Tracer` collects finished
spans; the *active* tracer is thread-local and defaults to ``None``, in
which case the module-level :func:`span` / :func:`record` helpers
return a shared no-op handle -- uninstrumented callers pay one
attribute lookup and nothing else, which is what lets the hot paths
(stage-cache lookups, store reads) stay instrumented unconditionally.

Time is read from :func:`time.perf_counter` relative to the tracer's
epoch, so span starts are meaningful *within* one tracer only.  Spans
from another process (shard workers) come back as compact tuple rows
(:meth:`Tracer.compact`) and are re-based and re-parented into the
coordinator's trace by :meth:`Tracer.adopt` -- worker clocks and
coordinator clocks never mix raw.

Wall-clock values live only in the ``start``/``duration`` fields (and
the per-process ``pid``), never in attributes: everything else in a
trace is deterministic, which is what the trace-determinism tests and
the ``OBS501`` lint rule (no span data in fingerprint-reachable code)
hold the subsystem to.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

__all__ = ["Span", "Tracer", "span", "record", "current_tracer",
           "activate", "tracing_active"]

#: Attribute values are restricted to JSON-stable primitives; anything
#: else is rendered with ``str`` at set time (never lazily, so a
#: mutable object cannot change between set and export).
_PRIMITIVES = (str, int, float, bool, type(None))


def _coerce(value: Any) -> Any:
    return value if isinstance(value, _PRIMITIVES) else str(value)


@dataclass
class Span:
    """One finished timed region of work."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    #: Seconds since the owning tracer's epoch (monotonic clock).
    start: float
    duration: float
    #: Process that recorded the span (adopted spans keep the worker's).
    pid: int
    attributes: dict[str, Any] = field(default_factory=dict)

    def compact(self) -> tuple:
        """The picklable tuple row shipped across process boundaries."""
        return (self.span_id, self.parent_id, self.name, self.kind,
                self.start, self.duration, self.pid,
                tuple(sorted(self.attributes.items())))


class _Stopwatch:
    """Span handle when tracing is off: times the block, records nothing."""

    __slots__ = ("_start", "duration")

    def set(self, key: str, value: Any) -> None:
        return None

    def __enter__(self) -> "_Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration = time.perf_counter() - self._start
        return False


class _OpenSpan:
    """Context-manager handle of one in-flight span."""

    __slots__ = ("_tracer", "_parent", "span_id", "name", "kind",
                 "attributes", "_start", "duration")

    def __init__(self, tracer: "Tracer", name: str, kind: str,
                 parent: int | None, attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self._parent = parent
        self.span_id = tracer._next_id()
        self.name = name
        self.kind = kind
        self.attributes = attributes

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span (primitives, else ``str``)."""
        self.attributes[key] = _coerce(value)

    def __enter__(self) -> "_OpenSpan":
        if self._parent is None:
            self._parent = self._tracer._stack_top()
        self._tracer._stack_push(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration = time.perf_counter() - self._start
        self._tracer._stack_pop()
        self._tracer._finish(Span(
            span_id=self.span_id, parent_id=self._parent, name=self.name,
            kind=self.kind, start=self._start - self._tracer.epoch,
            duration=self.duration, pid=self._tracer.pid,
            attributes=self.attributes))
        return False


class Tracer:
    """Collects spans; thread-safe; per-thread parent stacks.

    Span IDs are allocated in open order starting at 1, so a
    single-threaded run produces identical IDs on every execution --
    the property the trace-determinism tests pin.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._id = 0
        self._spans: list[Span] = []
        self._local = threading.local()

    # -- internal plumbing used by _OpenSpan ---------------------------
    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stack_top(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack_push(self, span_id: int) -> None:
        self._stack().append(span_id)

    def _stack_pop(self) -> None:
        self._stack().pop()

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- recording ------------------------------------------------------
    def span(self, name: str, kind: str = "span",
             parent: int | None = None, **attributes: Any) -> _OpenSpan:
        """Open a span as a context manager.

        The parent defaults to the innermost span open *on this thread*;
        pass ``parent=`` to attach elsewhere (batch runners parent
        worker-side spans under the sweep span this way).
        """
        return _OpenSpan(self, name, kind, parent,
                         {k: _coerce(v) for k, v in attributes.items()})

    def record(self, name: str, kind: str = "span", duration: float = 0.0,
               parent: int | None = None, **attributes: Any) -> Span:
        """Record an already-finished region (duration measured elsewhere).

        Used where the work happened somewhere a context manager could
        not wrap -- a pool future that completed, a shard whose
        in-worker seconds came back in its outcome.
        """
        if parent is None:
            parent = self._stack_top()
        span = Span(span_id=self._next_id(), parent_id=parent, name=name,
                    kind=kind,
                    start=time.perf_counter() - self.epoch - duration,
                    duration=duration, pid=self.pid,
                    attributes={k: _coerce(v)
                                for k, v in attributes.items()})
        self._finish(span)
        return span

    # -- reading --------------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans in deterministic (span id) order."""
        with self._lock:
            return sorted(self._spans, key=lambda s: s.span_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- cross-process transport ----------------------------------------
    def compact(self) -> tuple[tuple, ...]:
        """Every finished span as compact picklable rows (id order)."""
        return tuple(span.compact() for span in self.spans())

    def adopt(self, rows: Sequence[tuple], parent_id: int | None = None,
              pid: int | None = None, start_at: float | None = None) -> int:
        """Re-parent compact worker rows into this trace.

        Worker span IDs are local to the worker's tracer, and worker
        ``start`` values are relative to the worker's epoch -- a
        different monotonic clock.  Adoption allocates fresh IDs
        (preserving the worker's open order), hangs worker *roots*
        under ``parent_id``, and re-bases starts so the worker's
        earliest span begins at ``start_at`` (default: the parent
        span's recorded start, else 0).  ``pid`` overrides the recorded
        process id (workers already stamp their own; the override is
        for rows produced by tracer-less recorders).

        Returns the number of spans adopted.
        """
        if not rows:
            return 0
        ordered = sorted(rows, key=lambda row: row[0])
        offset = 0.0
        if start_at is not None:
            offset = start_at - min(row[4] for row in ordered)
        id_map: dict[int, int] = {}
        adopted: list[Span] = []
        for row in ordered:
            (old_id, old_parent, name, kind, start, duration,
             row_pid, attrs) = row
            new_id = self._next_id()
            id_map[old_id] = new_id
            parent = id_map.get(old_parent, parent_id) \
                if old_parent is not None else parent_id
            adopted.append(Span(
                span_id=new_id, parent_id=parent, name=str(name),
                kind=str(kind), start=float(start) + offset,
                duration=float(duration),
                pid=int(row_pid) if pid is None else pid,
                attributes=dict(attrs)))
        with self._lock:
            self._spans.extend(adopted)
        return len(adopted)


# ----------------------------------------------------------------------
# the thread-local active tracer and the module-level fast paths
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


def current_tracer() -> Tracer | None:
    """The tracer active on this thread, or ``None`` (the default)."""
    return getattr(_ACTIVE, "tracer", None)


def tracing_active() -> bool:
    """Cheap predicate for callers that must *plan* for tracing (the
    shard coordinator decides whether workers should collect spans)."""
    return getattr(_ACTIVE, "tracer", None) is not None


@contextmanager
def activate(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Make ``tracer`` the active tracer of this thread for the block.

    ``activate(None)`` explicitly disables tracing inside the block
    (used by overhead benchmarks to get an honest uninstrumented run).
    """
    previous = getattr(_ACTIVE, "tracer", None)
    _ACTIVE.tracer = tracer
    try:
        yield tracer
    finally:
        _ACTIVE.tracer = previous


def span(name: str, kind: str = "span", parent: int | None = None,
         **attributes: Any):
    """Open a span on the active tracer; a bare stopwatch when tracing
    is off.  Either way the handle's ``duration`` holds the block's
    seconds after it exits.  This is the one spelling instrumented code
    uses."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return _Stopwatch()
    return tracer.span(name, kind=kind, parent=parent, **attributes)


def record(name: str, kind: str = "span", duration: float = 0.0,
           parent: int | None = None, **attributes: Any) -> Span | None:
    """Record a finished region on the active tracer (None when off)."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return None
    return tracer.record(name, kind=kind, duration=duration, parent=parent,
                         **attributes)
