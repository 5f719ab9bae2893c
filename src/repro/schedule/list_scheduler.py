"""Resource-constrained list scheduling.

Produces the static schedule of COOL's partitioning phase: every
processing unit executes one node at a time; payloads of cut edges move
over the single system bus (write burst by the producer side, later a
read burst for the consumer side), and the bus carries one burst at a
time.  Priorities are critical-path lengths, so the scheduler is the
classic latency-weighted list scheduler of the HLS literature applied at
task granularity.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heappush

from ..estimate.model import CostModel
from ..graph.partition import Partition
from .schedule import Schedule, ScheduleEntry, ScheduleError, TransferEntry

__all__ = ["list_schedule"]


class _Timeline:
    """Busy time of one exclusive resource as sorted disjoint intervals.

    Every booking is at least one tick long and lands where nothing is
    booked, and a booking that touches a neighbour is fused with it, so
    the intervals stay disjoint, their ends are sorted along with their
    starts, and back-to-back work is one interval.  First fit depends
    only on the union of the busy time, so fusing changes no slot.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []

    def book(self, after: int, duration: int) -> int:
        """Reserve the first free [start, start+duration) with start >=
        after and return its start."""
        starts, ends = self.starts, self.ends
        start = after
        i = bisect_right(ends, after)  # first interval ending after ``after``
        n = len(starts)
        while i < n and starts[i] < start + duration:
            start = ends[i]
            i += 1
        end = start + duration
        if i and ends[i - 1] == start:
            if i < n and starts[i] == end:
                ends[i - 1] = ends[i]
                del starts[i], ends[i]
            else:
                ends[i - 1] = end
        elif i < n and starts[i] == end:
            starts[i] = start
        else:
            starts.insert(i, start)
            ends.insert(i, end)
        return start


def list_schedule(partition: Partition, model: CostModel) -> Schedule:
    """Compute a static schedule for a coloured partitioning graph.

    The topological order, the per-node in-edge rows ``(src, edge,
    write ticks, read ticks)`` and out-edge rows ``(dst, transfer
    ticks)`` and the ``(node, resource)`` latencies are mapping-
    independent, so they come from :meth:`CostModel.schedule_tables`,
    computed once per model; each call only reads the mapping.  A node's
    priority is its critical-path-to-sink length, and the ready nodes
    wait in a heap keyed ``(-priority, name)``: ties between
    equal-priority nodes break on the (unique) node name, so repeated
    runs produce identical schedules (important for reproducible STGs
    and memory maps downstream).
    """
    graph = partition.graph
    if model.graph is not graph:
        raise ScheduleError("cost model was built for a different graph")

    tables = model.schedule_tables()
    in_rows, out_rows = tables.in_rows, tables.out_rows
    where = {n: partition.resource_of(n) for n in tables.order}
    latency = {n: tables.latency[n, r] for n, r in where.items()}

    prio: dict[str, int] = {}
    for name in reversed(tables.order):
        resource = where[name]
        downstream = 0
        for dst, transfer in out_rows[name]:
            delay = prio[dst] if where[dst] == resource \
                else transfer + prio[dst]
            if delay > downstream:
                downstream = delay
        prio[name] = latency[name] + downstream

    schedule = Schedule(partition)
    entries, transfers = schedule.entries, schedule.transfers
    timelines: dict[str, _Timeline] = {}
    bus = _Timeline()
    ends: dict[str, int] = {}

    remaining_preds = {n: len(in_rows[n]) for n in tables.order}
    ready = [(-prio[n], n) for n, k in remaining_preds.items() if k == 0]
    heapify(ready)

    while ready:
        _, node = heappop(ready)
        resource = where[node]
        duration = latency[node]

        earliest = 0
        pending_reads: list[tuple[str, int, int]] = []  # (edge, write_end, read_ticks)
        for src, edge_name, write_ticks, read_ticks in in_rows[node]:
            producer_end = ends[src]
            if where[src] == resource:
                if producer_end > earliest:
                    earliest = producer_end
                continue
            # cut edge: write burst after the producer finished ...
            write_start = bus.book(producer_end, write_ticks)
            transfers.append(TransferEntry(
                edge_name, "write", write_start, write_start + write_ticks))
            # ... then a read burst for this consumer
            pending_reads.append((edge_name, write_start + write_ticks,
                                  read_ticks))

        for edge_name, write_end, read_ticks in pending_reads:
            read_start = bus.book(write_end, read_ticks)
            read_end = read_start + read_ticks
            transfers.append(TransferEntry(edge_name, "read", read_start,
                                           read_end))
            if read_end > earliest:
                earliest = read_end

        line = timelines.get(resource)
        if line is None:
            line = timelines[resource] = _Timeline()
        start = line.book(earliest, duration)
        entries[node] = ScheduleEntry(node, resource, start, start + duration)
        ends[node] = start + duration

        for dst, _ in out_rows[node]:
            remaining_preds[dst] -= 1
            if remaining_preds[dst] == 0:
                heappush(ready, (-prio[dst], dst))

    if len(schedule.entries) != len(graph.node_names):
        missing = set(graph.node_names) - set(schedule.entries)
        raise ScheduleError(f"unschedulable nodes (cycle?): {sorted(missing)}")
    return schedule
