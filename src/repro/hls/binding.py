"""Resource binding: functional units and registers.

* **FU binding** -- operations of one category whose execution intervals
  do not overlap share a functional unit; intervals are coloured with
  the left-edge algorithm (interval graphs are perfect, so left-edge is
  optimal and meets the peak-concurrency bound of the schedule).  The
  intervals are taken in start order, and each takes the lowest colour
  whose previous interval has ended: a min-heap of busy ``(until,
  colour)`` pairs releases colours into a min-heap of free ones.
* **Register binding** -- every operation result lives from the end of
  its producer to the last start of its consumers (or its own end for
  outputs); the same left-edge colouring assigns registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .dfg import Dfg
from .schedule import HlsSchedule

__all__ = ["Binding", "bind"]


@dataclass
class Binding:
    """FU and register assignment of one scheduled DFG."""

    #: op uid -> (category, fu index within category)
    fu_of: dict[int, tuple[str, int]]
    #: op uid -> register index holding its result
    register_of: dict[int, int]

    @property
    def fu_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for category, index in self.fu_of.values():
            counts[category] = max(counts.get(category, 0), index + 1)
        return counts

    @property
    def register_count(self) -> int:
        if not self.register_of:
            return 0
        return max(self.register_of.values()) + 1

    def ops_on_fu(self, category: str, index: int) -> list[int]:
        return [uid for uid, (cat, i) in self.fu_of.items()
                if cat == category and i == index]


def _left_edge(intervals: list[tuple[int, int, int]]) -> dict[int, int]:
    """Colour half-open intervals ``(start, end, key)``; returns key->colour."""
    colour: dict[int, int] = {}
    busy: list[tuple[int, int]] = []  # (until, colour)
    free: list[int] = []
    for start, end, key in sorted(intervals):
        while busy and busy[0][0] <= start:
            heappush(free, heappop(busy)[1])
        colour[key] = heappop(free) if free else len(busy)
        heappush(busy, (end, colour[key]))
    return colour


def bind(schedule: HlsSchedule) -> Binding:
    """Bind a scheduled DFG to shared FUs and registers."""
    dfg: Dfg = schedule.dfg
    start = schedule.start
    latency_of = schedule.latency_of

    # FU binding per category
    by_category: dict[str, list[tuple[int, int, int]]] = {}
    for uid, op in dfg.ops.items():
        by_category.setdefault(op.category, []).append(
            (start[uid], start[uid] + latency_of[op.category], uid))
    fu_of: dict[int, tuple[str, int]] = {}
    for category, intervals in by_category.items():
        for uid, index in _left_edge(intervals).items():
            fu_of[uid] = (category, index)

    # register binding on value lifetimes: a value dies one step after
    # its last reader starts
    last_read: dict[int, int] = {}
    for op in dfg.ops.values():
        at = start[op.uid]
        for dep in op.inputs:
            if last_read.get(dep, at) <= at:
                last_read[dep] = at
    intervals = []
    for uid, op in dfg.ops.items():
        born = start[uid] + latency_of[op.category]
        # output value: held one step for the store
        dies = last_read[uid] + 1 if uid in last_read else born + 1
        intervals.append((born, max(dies, born + 1), uid))
    register_of = _left_edge(intervals)

    return Binding(fu_of, register_of)
