"""Static schedules: the second output of COOL's partitioning phase.

A :class:`Schedule` fixes, for every task-graph node, a start/end time on
its processing unit, and for every *cut* edge (endpoints on different
units) a write burst and a read burst on the system bus into/out of
shared memory.  Times are in bus clock ticks, the common time base
established by :class:`repro.estimate.CostModel`.

Transfers are mediated over the bus while the producing/consuming units
are idle -- in the synthesized system the system controller walks the
memory map exactly in this order, so schedule order is also the order of
the STG construction (paper Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fingerprint import content_hash
from ..graph.partition import Partition
from ..graph.taskgraph import DataEdge, GraphError

__all__ = ["ScheduleEntry", "TransferEntry", "Schedule", "ScheduleError"]


class ScheduleError(GraphError):
    """Raised for malformed or inconsistent schedules."""


@dataclass(frozen=True)
class ScheduleEntry:
    """Execution slot of one node on its processing unit."""

    node: str
    resource: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ScheduleError(
                f"node {self.node!r}: bad slot [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TransferEntry:
    """One bus burst moving a cut edge's payload to or from shared memory.

    ``direction`` is ``"write"`` (producer unit -> memory) or ``"read"``
    (memory -> consumer unit).
    """

    edge: str
    direction: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.direction not in ("write", "read"):
            raise ScheduleError(f"transfer {self.edge}: bad direction "
                                f"{self.direction!r}")
        if self.start < 0 or self.end <= self.start:
            raise ScheduleError(
                f"transfer {self.edge}: bad slot [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Schedule:
    """A complete static schedule for a partitioned task graph."""

    partition: Partition
    entries: dict[str, ScheduleEntry] = field(default_factory=dict)
    transfers: list[TransferEntry] = field(default_factory=list)
    _fingerprint: str | None = field(default=None, init=False, repr=False,
                                     compare=False)

    # ------------------------------------------------------------------
    def add(self, entry: ScheduleEntry) -> None:
        if entry.node in self.entries:
            raise ScheduleError(f"node {entry.node!r} scheduled twice")
        self.entries[entry.node] = entry
        self._fingerprint = None

    def add_transfer(self, transfer: TransferEntry) -> None:
        self.transfers.append(transfer)
        self._fingerprint = None

    # ------------------------------------------------------------------
    def entry(self, node: str) -> ScheduleEntry:
        try:
            return self.entries[node]
        except KeyError:
            raise ScheduleError(f"node {node!r} is not scheduled") from None

    def transfers_of(self, edge: DataEdge | str) -> list[TransferEntry]:
        name = edge if isinstance(edge, str) else edge.name
        return [t for t in self.transfers if t.edge == name]

    def on_resource(self, resource: str) -> list[ScheduleEntry]:
        """Entries of one processing unit, ordered by start time."""
        slots = [e for e in self.entries.values() if e.resource == resource]
        return sorted(slots, key=lambda e: (e.start, e.node))

    @property
    def makespan(self) -> int:
        """End of the last activity (node slot or bus transfer)."""
        ends = [e.end for e in self.entries.values()]
        ends += [t.end for t in self.transfers]
        return max(ends, default=0)

    @property
    def bus_busy_ticks(self) -> int:
        return sum(t.duration for t in self.transfers)

    def utilization(self, resource: str) -> float:
        """Fraction of the makespan during which ``resource`` computes."""
        span = self.makespan
        if span == 0:
            return 0.0
        busy = sum(e.duration for e in self.on_resource(resource))
        return busy / span

    def fingerprint(self) -> str:
        """Content hash over slots, transfers and the underlying partition.

        The STG and communication-refinement pipeline stages key their
        caches on this: identical schedules (same partition, same slot
        times, same bus bursts) produce identical co-synthesis results.
        Memoized until the next :meth:`add` or :meth:`add_transfer`: a
        built schedule is not edited, and the partitioning stage hashes
        it as an output of its own and inside its partitioning result.
        """
        if self._fingerprint is None:
            self._fingerprint = content_hash((
                self.partition.fingerprint(),
                tuple(sorted((e.node, e.resource, e.start, e.end)
                             for e in self.entries.values())),
                tuple((t.edge, t.direction, t.start, t.end)
                      for t in self.transfers)))
        return self._fingerprint

    def summary(self) -> dict:
        per_resource = {r: len(self.on_resource(r))
                        for r in self.partition.resources_used}
        return {
            "makespan": self.makespan,
            "nodes": len(self.entries),
            "transfers": len(self.transfers),
            "bus_busy_ticks": self.bus_busy_ticks,
            "nodes_per_resource": per_resource,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Schedule({len(self.entries)} nodes, "
                f"{len(self.transfers)} transfers, makespan={self.makespan})")
