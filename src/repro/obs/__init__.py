"""``repro.obs`` -- tracing, counters and profiling for the runtime.

Three small pieces, zero dependencies:

* :mod:`repro.obs.span` -- span-based tracing, and the one clock of
  the runtime.  A thread-local :class:`Tracer` is *off by default*:
  until a caller wraps work in ``with activate(Tracer()) as tracer:
  ...``, :func:`record` no-ops and :func:`span` returns a stopwatch
  that records nothing, so every runtime layer is instrumented
  unconditionally and uninstrumented runs pay two clock reads per
  span.  Every span handle reports its ``duration``; stage and job
  seconds are read from it.  Shard workers trace locally and ship
  compact rows home in ``ShardOutcome.spans``; the coordinator
  re-parents them with :meth:`Tracer.adopt`.
* :mod:`repro.obs.metrics` -- the :class:`Counter` the artifact store
  and cache tiers hold for their event counts.
* :mod:`repro.obs.export` / :mod:`repro.obs.report` -- deterministic
  JSONL traces and the ``python -m repro.obs report trace.jsonl``
  breakdown (per-stage self-time, critical path, slowest spans).

Spans carry wall-clock data, so lint rule OBS501 bans the tracing API
from fingerprint- and stage-signature-reachable code; counters are
timestamp-free and unrestricted.  See docs/OBSERVABILITY.md.
"""

from .export import (NONDETERMINISTIC_FIELDS, canonical_trace, dump_trace,
                     load_trace, span_to_dict, write_trace)
from .metrics import Counter
from .report import (critical_path, render_report, slowest_spans,
                     stage_breakdown)
from .span import (Span, Tracer, activate, current_tracer, record, span,
                   tracing_active)

__all__ = [
    "Span", "Tracer", "span", "record", "activate", "current_tracer",
    "tracing_active",
    "Counter",
    "NONDETERMINISTIC_FIELDS", "span_to_dict", "dump_trace", "write_trace",
    "load_trace", "canonical_trace",
    "stage_breakdown", "critical_path", "slowest_spans", "render_report",
]
