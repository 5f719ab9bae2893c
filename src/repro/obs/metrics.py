"""Event counters for the runtime layers.

The store and cache tiers count their hits, misses, evictions and the
like with :class:`Counter` instruments they hold directly -- one set
per instance, never a process-global registry, so stores created side
by side (as tests do) never bleed counts into each other.  Their
``stats()`` payloads (and the BENCH gates that read them) snapshot the
counters into plain dicts.

Nothing here touches the wall clock -- counters are pure event counts
and are safe anywhere, including fingerprint-adjacent code (unlike
spans, which carry timestamps and are banned from it by lint rule
OBS501).
"""

from __future__ import annotations

import threading

__all__ = ["Counter"]


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += delta

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"
