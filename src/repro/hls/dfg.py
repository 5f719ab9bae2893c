"""Operator-level data-flow graphs for high-level synthesis.

The COOL flow hands every hardware-mapped task node to high-level
synthesis (the paper uses the authors' OSCAR tool).  The HLS works on a
DFG whose operations are the primitive categories of
:mod:`repro.graph.semantics` (``mov`` operations become wires and are
not scheduled).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["DfgOp", "Dfg", "HlsError"]


class HlsError(ValueError):
    """Raised for malformed HLS inputs or infeasible constraints."""


@dataclass(frozen=True)
class DfgOp:
    """One primitive operation: category plus data predecessors."""

    uid: int
    category: str
    inputs: tuple[int, ...] = ()


@dataclass
class Dfg:
    """A DAG of primitive operations."""

    name: str
    ops: dict[int, DfgOp] = field(default_factory=dict)

    def add_op(self, category: str, inputs: tuple[int, ...] = ()) -> int:
        uid = len(self.ops)
        for dep in inputs:
            if dep not in self.ops:
                raise HlsError(f"dfg {self.name!r}: op {uid} depends on "
                               f"unknown op {dep}")
        self.ops[uid] = DfgOp(uid, category, tuple(inputs))
        return uid

    def __len__(self) -> int:
        return len(self.ops)

    def successor_map(self) -> dict[int, list[int]]:
        """Every op's distinct readers, in ascending uid order.

        One pass over the ops; callers that walk many ops build it once
        instead of scanning the whole DFG per op.
        """
        succs: dict[int, list[int]] = {uid: [] for uid in self.ops}
        for op in self.ops.values():
            for dep in dict.fromkeys(op.inputs):
                succs[dep].append(op.uid)
        return succs

    def categories(self) -> dict[str, int]:
        """Operation count per category."""
        counts: dict[str, int] = {}
        for op in self.ops.values():
            counts[op.category] = counts.get(op.category, 0) + 1
        return counts

    def dependencies(self) -> tuple[dict[int, list[int]], list[int]]:
        """The :meth:`successor_map` and the topological order, from one
        pass: the order starts with the input-free ops in ascending uid
        and then takes ops first-in first-out as their last input is
        placed, each op's readers joining in ascending uid.

        Raises :class:`HlsError` when the DFG contains a cycle.
        """
        succs = self.successor_map()
        indeg = {uid: 0 for uid in self.ops}
        for readers in succs.values():
            for succ in readers:
                indeg[succ] += 1
        ready = deque(sorted(uid for uid, d in indeg.items() if d == 0))
        order: list[int] = []
        while ready:
            uid = ready.popleft()
            order.append(uid)
            for succ in succs[uid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.ops):
            raise HlsError(f"dfg {self.name!r} contains a cycle")
        return succs, order

    def topological_order(self) -> list[int]:
        return self.dependencies()[1]

    def critical_path(self, latency_of) -> int:
        """Longest path weighted by ``latency_of(category)``."""
        finish: dict[int, int] = {}
        for uid in self.topological_order():
            op = self.ops[uid]
            start = max((finish[d] for d in op.inputs), default=0)
            finish[uid] = start + latency_of(op.category)
        return max(finish.values(), default=0)
