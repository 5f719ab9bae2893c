"""Operation scheduling for high-level synthesis.

The flow's one HLS path: :func:`allocate_minimal` gives every used
category one functional unit, and resource-constrained **list
scheduling** orders the operations by ALAP urgency.  ASAP and ALAP
schedules supply that urgency and the mobility analysis.

A schedule maps every DFG operation to a start step; an operation of
category ``c`` occupies one unit of the ``c`` functional-unit pool for
``latency(c)`` consecutive steps (units are not pipelined here --
conservative, and matching the datapath controller's step counting).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dfg import Dfg, HlsError

__all__ = ["HlsSchedule", "asap_schedule", "alap_schedule",
           "allocate_minimal", "list_schedule_ops"]


@dataclass
class HlsSchedule:
    """Start step of every operation plus derived quantities."""

    dfg: Dfg
    start: dict[int, int]
    latency_of: dict[str, int]

    @property
    def length(self) -> int:
        """Total schedule length in steps."""
        return max((self.start[uid] + self.latency_of[op.category]
                    for uid, op in self.dfg.ops.items()), default=0)

    def ops_active_at(self, step: int) -> list[int]:
        return [uid for uid, op in self.dfg.ops.items()
                if self.start[uid] <= step
                < self.start[uid] + self.latency_of[op.category]]

    def fu_usage(self) -> dict[str, int]:
        """Peak concurrent operations per category (= FUs needed)."""
        usage: dict[str, int] = {}
        for step in range(self.length):
            per_cat: dict[str, int] = {}
            for uid in self.ops_active_at(step):
                cat = self.dfg.ops[uid].category
                per_cat[cat] = per_cat.get(cat, 0) + 1
            for cat, n in per_cat.items():
                usage[cat] = max(usage.get(cat, 0), n)
        return usage

    def validate(self, fu_limits: dict[str, int] | None = None) -> list[str]:
        problems = []
        for uid, op in self.dfg.ops.items():
            for dep in op.inputs:
                dep_cat = self.dfg.ops[dep].category
                if self.start[uid] < self.start[dep] \
                        + self.latency_of[dep_cat]:
                    problems.append(f"op {uid} starts before input {dep} "
                                    f"finishes")
        if fu_limits is not None:
            for cat, peak in self.fu_usage().items():
                if peak > fu_limits.get(cat, 0):
                    problems.append(f"category {cat}: {peak} concurrent ops "
                                    f"exceed {fu_limits.get(cat, 0)} FUs")
        return problems


def _latency_table(dfg: Dfg, latency_of) -> dict[str, int]:
    return {cat: latency_of(cat) for cat in dfg.categories()}


def asap_schedule(dfg: Dfg, latency_of) -> HlsSchedule:
    """Unconstrained earliest-start schedule."""
    table = _latency_table(dfg, latency_of)
    start: dict[int, int] = {}
    for uid in dfg.topological_order():
        op = dfg.ops[uid]
        start[uid] = max((start[d] + table[dfg.ops[d].category]
                          for d in op.inputs), default=0)
    return HlsSchedule(dfg, start, table)


def alap_schedule(dfg: Dfg, latency_of) -> HlsSchedule:
    """Latest-start schedule within the ASAP length."""
    table = _latency_table(dfg, latency_of)
    horizon = asap_schedule(dfg, latency_of).length
    successors = dfg.successor_map()
    start: dict[int, int] = {}
    for uid in reversed(dfg.topological_order()):
        op = dfg.ops[uid]
        latest = horizon - table[op.category]
        for succ in successors[uid]:
            latest = min(latest, start[succ] - table[op.category])
        start[uid] = latest
    return HlsSchedule(dfg, start, table)


def allocate_minimal(dfg: Dfg) -> dict[str, int]:
    """One functional unit per category present in the DFG."""
    return {category: 1 for category in dfg.categories()}


def list_schedule_ops(dfg: Dfg, latency_of,
                      fu_limits: dict[str, int]) -> HlsSchedule:
    """Resource-constrained list scheduling, priority = ALAP urgency."""
    table = _latency_table(dfg, latency_of)
    missing = set(table) - set(fu_limits)
    if missing:
        raise HlsError(f"no FU limit for categories {sorted(missing)}")
    if any(fu_limits[c] < 1 for c in table):
        raise HlsError("every used category needs at least one FU")

    alap = alap_schedule(dfg, latency_of)
    priority = alap.start  # smaller ALAP start = more urgent

    start: dict[int, int] = {}
    finished: dict[int, int] = {}
    successors = dfg.successor_map()
    # distinct inputs: a value read twice has its reader listed once
    pending = {uid: len(set(op.inputs)) for uid, op in dfg.ops.items()}
    #: ready op -> step at which its last input has finished
    data_ready = {uid: 0 for uid, k in pending.items() if k == 0}
    ready = sorted(data_ready, key=lambda u: (priority[u], u))
    busy_until: dict[str, list[int]] = {
        cat: [0] * fu_limits[cat] for cat in table}

    def earliest(uid: int) -> int:
        """First step ``uid`` could start at, given the FU bookings so far."""
        return max(data_ready[uid], min(busy_until[dfg.ops[uid].category]))

    step = 0
    guard = 0
    while ready or len(finished) < len(dfg.ops):
        guard += 1
        if guard > 10 * (len(dfg.ops) + 1) * (max(table.values(), default=1) + 1):
            raise HlsError("list scheduler failed to make progress")
        for uid in list(ready):
            if data_ready[uid] > step:
                continue
            op = dfg.ops[uid]
            pool = busy_until[op.category]
            fu = pool.index(min(pool))
            if pool[fu] > step:
                continue
            start[uid] = step
            finished[uid] = step + table[op.category]
            pool[fu] = finished[uid]
            ready.remove(uid)
            for succ in successors[uid]:
                pending[succ] -= 1
                if pending[succ] == 0:
                    data_ready[succ] = max(finished[d]
                                           for d in dfg.ops[succ].inputs)
                    ready.append(succ)
            ready.sort(key=lambda u: (priority[u], u))
        # nothing starts before the next input or FU frees up: skip the
        # steps in between, which could schedule nothing
        step = max(step + 1, min(map(earliest, ready), default=0))
    return HlsSchedule(dfg, start, table)
