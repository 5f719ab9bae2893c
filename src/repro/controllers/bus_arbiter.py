"""Bus-arbiter synthesis.

Paper Section 2: COOL adds "bus arbiters to prevent conflicts".  Two
policies are provided; both expose the same interface to the
co-simulator (``grant``) and both can be exported as an FSM for code
generation (``to_fsm``):

* :class:`FixedPriorityArbiter` -- masters are ranked once (the system
  controller first, then processors, FPGAs, I/O);
* :class:`RoundRobinArbiter` -- the grant pointer advances past the last
  winner, guaranteeing starvation freedom.
"""

from __future__ import annotations

from ..fingerprint import content_hash
from .fsm import Fsm

__all__ = ["Arbiter", "FixedPriorityArbiter", "RoundRobinArbiter"]


class Arbiter:
    """Common interface of bus arbiters over a fixed master list."""

    policy = "abstract"

    def __init__(self, masters: list[str]) -> None:
        if not masters:
            raise ValueError("arbiter needs at least one master")
        if len(set(masters)) != len(masters):
            raise ValueError("duplicate master names")
        self.masters = list(masters)

    def fingerprint(self) -> str:
        """Content hash of the arbitration contract (policy + masters).

        The grant policy and the master list fully determine the
        exported FSM, so this is the arbiter's structural content for
        :func:`repro.flow.pipeline.fingerprint_of` -- the same before
        and after a store round-trip.  Scheduling state (the
        round-robin pointer) is deliberately excluded: it is simulation
        progress, not content.
        """
        return content_hash(("arbiter", self.policy, tuple(self.masters)))

    def grant(self, requests: set[str]) -> str | None:
        """Pick the winning master among ``requests`` (None if empty)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the power-up arbitration state."""

    def to_fsm(self) -> Fsm:
        """Export as an FSM: one grant state per master plus idle."""
        fsm = Fsm(f"arbiter_{self.policy}")
        fsm.add_state("idle")
        for master in self.masters:
            fsm.add_state(f"grant_{master}",
                          outputs=(f"gnt_{master}",))
        for rank, master in enumerate(self.masters):
            # priority order encodes the policy: earlier masters are
            # checked first (list order = transition priority)
            fsm.add_transition("idle", f"grant_{master}",
                               conditions=(f"req_{master}",))
            fsm.add_transition(f"grant_{master}", "idle",
                               conditions=(f"release_{master}",))
        return fsm


class FixedPriorityArbiter(Arbiter):
    """Lower list index wins."""

    policy = "fixed_priority"

    def grant(self, requests: set[str]) -> str | None:
        unknown = requests - set(self.masters)
        if unknown:
            raise ValueError(f"unknown masters request the bus: "
                             f"{sorted(unknown)}")
        for master in self.masters:
            if master in requests:
                return master
        return None


class RoundRobinArbiter(Arbiter):
    """The pointer starts after the previous winner."""

    policy = "round_robin"

    def __init__(self, masters: list[str]) -> None:
        super().__init__(masters)
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def grant(self, requests: set[str]) -> str | None:
        unknown = requests - set(self.masters)
        if unknown:
            raise ValueError(f"unknown masters request the bus: "
                             f"{sorted(unknown)}")
        n = len(self.masters)
        for offset in range(n):
            candidate = self.masters[(self._next + offset) % n]
            if candidate in requests:
                self._next = (self.masters.index(candidate) + 1) % n
                return candidate
        return None
