"""Operation scheduling for high-level synthesis.

The flow's one HLS path: :func:`allocate_minimal` gives every used
category one functional unit, and resource-constrained **list
scheduling** orders the operations by ALAP urgency.  ASAP and ALAP
schedules supply that urgency and the mobility analysis.

A schedule maps every DFG operation to a start step; an operation of
category ``c`` occupies one unit of the ``c`` functional-unit pool for
``latency(c)`` consecutive steps (units are not pipelined here --
conservative, and matching the datapath controller's step counting).

:func:`list_schedule_ops` walks the DFG a constant number of times:
one dependency pass (:meth:`Dfg.dependencies`) gives the readers and
the topological order, from which the ASAP length, the ALAP priority
and the list schedule follow.  The list scheduler is event-driven.
Each category keeps its units' busy-until steps in a min-heap and two
heaps of ready operations: *waiting* ones, keyed ``(data_ready,
alap_start, uid)``, and *available* ones, whose inputs have all
finished, keyed ``(alap_start, uid)``.  At each visited step every
category moves the waiting operations whose data is ready into its
available heap, then starts the most urgent ones (smallest ALAP start,
ties to the smaller uid) while its least-busy unit is free.  An
operation made ready by a start joins the heaps only after the step,
so it starts one step later at the soonest, even behind a latency-0
producer.  The next visited step is ``max(step + 1, e)``, where ``e``
is the earliest step at which some category could start an operation:
the later of the step its first unit frees up and the step its first
ready operation's data is ready, minimised over the categories.

This gives the start steps of a global scan of the ready list in
``(alap_start, uid)`` order, re-sorted after every start, which is what
the scheduler did before: categories share no units, and an operation
started in a step cannot ready a successor for that same step, so the
scan's interleaving of categories decides nothing.  ``start`` keeps the
scan's order too: by step, then by ``(alap_start, uid)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

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

    def fu_usage(self) -> dict[str, int]:
        """Peak concurrent operations per category (= FUs needed).

        One sweep per category over its operations' start and end
        steps; an end sorts before a start at the same step, because an
        operation occupies its unit over the half-open ``[start, end)``.
        """
        marks: dict[str, list[tuple[int, int]]] = {}
        for uid, op in self.dfg.ops.items():
            begin = self.start[uid]
            end = begin + self.latency_of[op.category]
            if begin < end:
                marks.setdefault(op.category, []).extend(
                    ((begin, 1), (end, -1)))
        usage: dict[str, int] = {}
        for cat, events in marks.items():
            active = peak = 0
            for _, delta in sorted(events):
                active += delta
                peak = max(peak, active)
            usage[cat] = peak
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


def _asap_start(dfg: Dfg, order: list[int],
                table: dict[str, int]) -> dict[int, int]:
    """Earliest start steps, in topological ``order``."""
    start: dict[int, int] = {}
    for uid in order:
        op = dfg.ops[uid]
        start[uid] = max((start[d] + table[dfg.ops[d].category]
                          for d in op.inputs), default=0)
    return start


def _alap_start(dfg: Dfg, successors: dict[int, list[int]],
                order: list[int], table: dict[str, int]) -> dict[int, int]:
    """Latest start steps within the ASAP length."""
    asap = _asap_start(dfg, order, table)
    horizon = max((asap[uid] + table[op.category]
                   for uid, op in dfg.ops.items()), default=0)
    start: dict[int, int] = {}
    for uid in reversed(order):
        latency = table[dfg.ops[uid].category]
        latest = horizon - latency
        for succ in successors[uid]:
            latest = min(latest, start[succ] - latency)
        start[uid] = latest
    return start


def asap_schedule(dfg: Dfg, latency_of) -> HlsSchedule:
    """Unconstrained earliest-start schedule."""
    table = _latency_table(dfg, latency_of)
    return HlsSchedule(dfg, _asap_start(dfg, dfg.topological_order(),
                                        table), table)


def alap_schedule(dfg: Dfg, latency_of) -> HlsSchedule:
    """Latest-start schedule within the ASAP length."""
    table = _latency_table(dfg, latency_of)
    return HlsSchedule(dfg, _alap_start(dfg, *dfg.dependencies(), table),
                       table)


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

    successors, order = dfg.dependencies()
    # smaller ALAP start = more urgent
    priority = _alap_start(dfg, successors, order, table)

    #: category -> (latency, units' busy-until heap, waiting, available)
    pools = {cat: (table[cat], [0] * fu_limits[cat], [], [])
             for cat in table}
    waiting_of = {uid: pools[op.category][2] for uid, op in dfg.ops.items()}
    # distinct inputs: a value read twice has its reader listed once
    pending = {uid: len(set(op.inputs)) for uid, op in dfg.ops.items()}
    #: op uid -> step at which its last input so far finishes
    data_ready = dict.fromkeys(dfg.ops, 0)
    started: list[tuple[int, int, int]] = []
    readied = [uid for uid in order if not pending[uid]]
    step = 0
    while True:
        # the previous step's starts readied these: they join only now
        for uid in readied:
            heappush(waiting_of[uid], (data_ready[uid], priority[uid], uid))
        # nothing starts before the next input or unit frees up: skip
        # the steps in between, which could start nothing
        earliest = None
        for _, units, waiting, available in pools.values():
            if available:  # its data is ready: it waits for a unit
                free = units[0]
            elif waiting:
                free = max(waiting[0][0], units[0])
            else:
                continue
            if earliest is None or free < earliest:
                earliest = free
        if earliest is None:
            break
        step = max(step, earliest)
        readied = []
        for latency, units, waiting, available in pools.values():
            while waiting and waiting[0][0] <= step:
                _, urgency, uid = heappop(waiting)
                heappush(available, (urgency, uid))
            while available and units[0] <= step:
                urgency, uid = heappop(available)
                finish = step + latency
                heapreplace(units, finish)
                started.append((step, urgency, uid))
                for succ in successors[uid]:
                    if data_ready[succ] < finish:
                        data_ready[succ] = finish
                    pending[succ] -= 1
                    if not pending[succ]:
                        readied.append(succ)
        step += 1
    return HlsSchedule(dfg, {uid: at for at, _, uid in sorted(started)},
                       table)
