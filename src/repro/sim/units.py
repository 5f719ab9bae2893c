"""Processing-unit models for co-simulation.

One :class:`UnitSim` instance per processing resource (processor, FPGA,
I/O controller).  A unit is a server: the system controller starts one
node at a time on it; the unit gathers that node's operand values
(local values stay inside the unit, cross-unit values are delivered by
bus reads or direct-channel transfers), computes for the node's latency,
then raises a ``done`` pulse with the produced value.

The *functional* behaviour is the shared executable semantics of
:mod:`repro.graph.semantics` -- software and hardware implement the same
function, so the simulator evaluates the same code with different
timing, which is exactly the abstraction level of a co-simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..graph.semantics import evaluate_node
from ..graph.taskgraph import TaskGraph

__all__ = ["UnitSim", "SimError"]


class SimError(RuntimeError):
    """Raised when the simulated system reaches an inconsistent state."""


@dataclass
class _Activation:
    node: str
    waiting_for: set[str]      # edge names still to be delivered
    remaining: int             # compute ticks left once inputs present


@dataclass
class UnitSim:
    """One processing unit."""

    resource: str
    graph: TaskGraph
    #: node -> compute latency in bus ticks
    latency: dict[str, int]
    #: stimuli for input nodes owned by this unit (I/O controller)
    stimuli: dict[str, list[int]] = field(default_factory=dict)

    active: _Activation | None = None
    local_values: dict[str, list[int]] = field(default_factory=dict)
    delivered: dict[str, list[int]] = field(default_factory=dict)
    outputs: dict[str, list[int]] = field(default_factory=dict)
    busy_ticks: int = 0
    completions: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.active = None
        self.local_values.clear()
        self.delivered.clear()
        self.outputs.clear()
        self.completions.clear()

    def start(self, node_name: str, cross_edges: Iterable[str]) -> None:
        """System-controller start command for one node."""
        if self.active is not None:
            raise SimError(f"unit {self.resource}: start {node_name!r} "
                           f"while {self.active.node!r} is active")
        waiting = {e for e in cross_edges if e not in self.delivered}
        self.active = _Activation(node_name, waiting,
                                  max(self.latency[node_name], 1))

    def deliver(self, edge_name: str, values: list[int]) -> None:
        """A cross-unit payload arrives (bus read or direct channel)."""
        self.delivered[edge_name] = list(values)
        if self.active is not None:
            self.active.waiting_for.discard(edge_name)

    def value_of(self, node_name: str) -> list[int]:
        """Produced value of a node that ran on this unit."""
        try:
            return self.local_values[node_name]
        except KeyError:
            raise SimError(f"unit {self.resource}: no value for "
                           f"{node_name!r}") from None

    # ------------------------------------------------------------------
    def _gather_inputs(self, node_name: str) -> list[list[int]]:
        inputs: list[list[int]] = []
        for edge in self.graph.in_edges(node_name):
            if edge.name in self.delivered:
                inputs.append(self.delivered[edge.name])
            elif edge.src in self.local_values:
                inputs.append(self.local_values[edge.src])
            else:
                raise SimError(f"unit {self.resource}: operand {edge.name} "
                               f"of {node_name!r} unavailable")
        return inputs

    def _compute(self, node_name: str) -> list[int]:
        node = self.graph.node(node_name)
        if node.is_input:
            if node_name not in self.stimuli:
                raise SimError(f"no stimulus for input {node_name!r}")
            return [v & ((1 << node.width) - 1)
                    for v in self.stimuli[node_name]]
        return evaluate_node(node, self._gather_inputs(node_name))

    def step(self) -> str | None:
        """One tick; returns a completed node name when done fires."""
        if self.active is None:
            return None
        act = self.active
        if act.waiting_for:
            return None  # stalled on operand delivery
        self.busy_ticks += 1
        act.remaining -= 1
        if act.remaining > 0:
            return None
        value = self._compute(act.node)
        self.local_values[act.node] = value
        node = self.graph.node(act.node)
        if node.is_output:
            self.outputs[act.node] = value
        self.completions.append(act.node)
        self.active = None
        return act.node
