"""Timing in reference seconds, steady on a shared and unsteady host.

On a shared host the same pure-Python work runs up to twice as slow for
seconds at a time, and the mix of slow and fast stretches changes from
minute to minute: raw seconds of two runs of the same code then differ
by more than any useful regression bound.  :class:`HostClock` samples
the host's speed while a phase runs: every ``INTERVAL_S`` a ``SIGALRM``
handler times :func:`probe`, a small fixed pure-Python kernel that uses
nothing of the program under test.  The speed of a sample is
``REFERENCE_PROBE_S`` over the probe's time, and :meth:`HostClock.seconds`
turns work measured within an interval into *reference seconds*: the
work less its share of the probes run inside the interval, times the
mean speed of the samples in it.  A slow stretch of the host slows the
probe about as much as the program and cancels out; a change to the
program moves reference seconds as it moves raw seconds, since the
probe does not depend on it.  Time the process spends waiting for a
CPU, rather than running slowly on one, is not corrected.

The handler runs in the main thread of the process that owns the clock;
processes forked while it runs inherit no timer and are not sampled.
A clock built from another process's samples (``HostClock(stamps,
costs)``) converts that process's intervals: ``perf_counter`` is one
clock for every process of the host.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

#: Sampling period: about 2% of a phase goes to probes.
INTERVAL_S = 0.025
#: The probe's time at full speed on the 2-vCPU host the bounds in
#: ``BENCHMARK.json`` were set on; only a scale, it cancels in ratios.
REFERENCE_PROBE_S = 0.0004
#: An interval with fewer samples inside borrows the nearest ones.
MIN_SAMPLES = 8


def probe(n: int = 300) -> int:
    """Fixed dict, tuple, string and sort work (about 0.4 ms)."""
    counts: dict = {}
    for i in range(n):
        key = (i & 31, i >> 5)
        counts[key] = counts.get(key, 0) + len(str(i))
    items = frozenset(counts.items())
    return len(sorted(items, key=lambda kv: (kv[1], kv[0])))


class HostClock:
    """Samples the host's speed from ``__enter__`` to ``__exit__``."""

    def __init__(self, stamps: list[float] | None = None,
                 costs: list[float] | None = None) -> None:
        self.stamps: list[float] = stamps or []   # end of each probe
        self.costs: list[float] = costs or []     # its duration

    def _sample(self, signum, frame) -> None:
        # a collection that the probe's allocations would trigger is
        # left to the program, which owns the garbage
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            probe()
            ended = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.stamps.append(ended)
        self.costs.append(ended - started)

    def __enter__(self) -> "HostClock":
        for _ in range(20):
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < min(MIN_SAMPLES, len(self.stamps)):
            # widen towards the nearer neighbour of the interval
            before = start - self.stamps[lo - 1] if lo > 0 else None
            after = self.stamps[hi] - end if hi < len(self.stamps) else None
            if after is None or (before is not None and before <= after):
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over ``[start, end]`` (1.0 = reference)."""
        if not self.costs:
            raise RuntimeError("the host clock took no samples")
        lo, hi = self._window(start, end)
        return statistics.fmean(REFERENCE_PROBE_S / cost
                                for cost in self.costs[lo:hi])

    def seconds(self, start: float, end: float,
                busy: float | None = None) -> float:
        """Reference seconds of ``busy`` raw seconds of work done within
        ``[start, end]`` by the sampled process (default: the whole
        interval), less the share of it the probes took."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        probed = min(1.0, sum(self.costs[lo:hi]) / max(end - start, 1e-9))
        busy = end - start if busy is None else busy
        return busy * (1.0 - probed) * self.speed(start, end)
