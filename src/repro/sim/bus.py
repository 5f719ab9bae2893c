"""Bus model with arbitration for co-simulation.

One burst at a time; pending requests are granted by a pluggable
arbiter (:mod:`repro.controllers.bus_arbiter`).  A read request of an
edge is only grantable after that edge's write burst completed -- the
data-valid ordering the static schedule guarantees and the simulator
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..controllers.bus_arbiter import Arbiter, FixedPriorityArbiter

__all__ = ["BusRequest", "BusModel"]


@dataclass
class BusRequest:
    """One queued burst."""

    edge: str
    kind: str          # "write" | "read"
    master: str        # requesting unit (arbitration identity)
    duration: int      # bus ticks once granted
    payload: list[int] = field(default_factory=list)  # for writes


class BusModel:
    """Single shared bus; grants one burst at a time.

    ``write_interlocks`` encodes the cell-reuse ordering of the memory
    map: a write to a cell that an earlier edge occupied (disjoint
    *static* lifetimes) may only be granted once that edge's read burst
    completed.  The static schedule guarantees this order on the board;
    the self-timed simulation must enforce it explicitly, otherwise a
    fast producer could clobber a reused cell early.
    """

    def __init__(self, arbiter: Arbiter | None = None,
                 write_interlocks: dict[str, set[str]] | None = None) -> None:
        self.arbiter = arbiter if arbiter is not None \
            else FixedPriorityArbiter(["sysctl"])
        self.write_interlocks = write_interlocks or {}
        self.pending: list[BusRequest] = []
        self.active: BusRequest | None = None
        self.remaining = 0
        self.busy_ticks = 0
        self.granted_bursts = 0
        self.written_edges: set[str] = set()
        self.read_edges: set[str] = set()

    # ------------------------------------------------------------------
    def request(self, req: BusRequest) -> None:
        self.pending.append(req)

    def mark_written(self, edge: str) -> None:
        self.written_edges.add(edge)

    def _grantable(self, req: BusRequest) -> bool:
        if req.kind == "read":
            return req.edge in self.written_edges
        blockers = self.write_interlocks.get(req.edge, set())
        return blockers <= self.read_edges

    # ------------------------------------------------------------------
    def step(self) -> BusRequest | None:
        """Advance one tick; returns a completed burst (or ``None``)."""
        completed: BusRequest | None = None
        if self.active is not None:
            self.busy_ticks += 1
            self.remaining -= 1
            if self.remaining <= 0:
                completed = self.active
                if completed.kind == "write":
                    self.written_edges.add(completed.edge)
                else:
                    self.read_edges.add(completed.edge)
                self.active = None
        if self.active is None and self.pending:
            candidates = [r for r in self.pending if self._grantable(r)]
            if candidates:
                masters = {r.master for r in candidates}
                known = set(self.arbiter.masters)
                winner_master = self.arbiter.grant(masters & known) \
                    if masters & known else None
                if winner_master is None:
                    # master not in the arbiter's list: FIFO fallback
                    winner = candidates[0]
                else:
                    winner = next(r for r in candidates
                                  if r.master == winner_master)
                self.pending.remove(winner)
                self.active = winner
                self.remaining = max(winner.duration, 1)
                self.granted_bursts += 1
        return completed

    def grantable(self) -> bool:
        """Whether the next :meth:`step` grants a burst: the bus is idle
        and some pending request is grantable."""
        return self.active is None \
            and any(self._grantable(r) for r in self.pending)

    def stats(self) -> dict:
        return {"busy_ticks": self.busy_ticks,
                "granted_bursts": self.granted_bursts}
