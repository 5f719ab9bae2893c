"""Resource binding: functional units and registers.

* **FU binding** -- operations of one category whose execution intervals
  do not overlap share a functional unit; intervals are coloured with
  the left-edge algorithm (interval graphs are perfect, so left-edge is
  optimal and meets the peak-concurrency bound of the schedule).
* **Register binding** -- every operation result lives from the end of
  its producer to the last start of its consumers (or its own end for
  outputs); the same left-edge colouring assigns registers.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    busy_until: list[int] = []  # per colour
    for start, end, key in sorted(intervals):
        for index, until in enumerate(busy_until):
            if until <= start:
                colour[key] = index
                busy_until[index] = end
                break
        else:
            colour[key] = len(busy_until)
            busy_until.append(end)
    return colour


def bind(schedule: HlsSchedule) -> Binding:
    """Bind a scheduled DFG to shared FUs and registers."""
    dfg: Dfg = schedule.dfg

    # FU binding per category
    fu_of: dict[int, tuple[str, int]] = {}
    for category in dfg.categories():
        intervals = []
        for uid, op in dfg.ops.items():
            if op.category != category:
                continue
            start = schedule.start[uid]
            end = start + schedule.latency_of[category]
            intervals.append((start, end, uid))
        for uid, index in _left_edge(intervals).items():
            fu_of[uid] = (category, index)

    # register binding on value lifetimes
    successor_map = dfg.successor_map()
    intervals = []
    for uid, op in dfg.ops.items():
        born = schedule.start[uid] + schedule.latency_of[op.category]
        successors = successor_map[uid]
        if successors:
            dies = max(schedule.start[s] for s in successors) + 1
        else:
            dies = born + 1  # output value: held one step for the store
        intervals.append((born, max(dies, born + 1), uid))
    register_of = _left_edge(intervals)

    return Binding(fu_of, register_of)
