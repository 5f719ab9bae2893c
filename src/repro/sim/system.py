"""Full-system co-simulation.

Executes the *synthesized* system: the
:class:`repro.controllers.ControllerHarness` (phase FSM + sequencers,
derived from the minimized STG) steers unit models over a bus/memory
model, using the co-synthesis memory map and the refined communication
plan.  The simulation ends when the controller reaches its global done
state; the values left at the output units are compared against the
reference interpreter in the tests -- the end-to-end correctness
statement of the whole reproduction.

Timing base: one simulation tick = one bus clock cycle (the CostModel
time unit), so simulated makespans are directly comparable with the
static schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..comm.refine import CommPlan
from ..controllers.bus_arbiter import RoundRobinArbiter
from ..controllers.system_controller import (ControllerHarness,
                                             SystemController)
from ..estimate.model import CostModel
from ..graph.partition import Partition
from ..graph.taskgraph import TaskGraph
from ..platform.architecture import TargetArchitecture
from ..schedule.schedule import Schedule
from .bus import BusModel, BusRequest
from .memory import MemoryModel
from .units import SimError, UnitSim

__all__ = ["CoSimulation", "SimResult"]

#: Direct-channel register transfer: fixed latency in ticks.
DIRECT_TRANSFER_TICKS = 2


@dataclass
class SimResult:
    """Outcome of one co-simulated system activation."""

    outputs: dict[str, list[int]]
    cycles: int
    bus_busy_ticks: int
    unit_busy_ticks: dict[str, int]
    memory_reads: int
    memory_writes: int
    trace_len: int

    def summary(self) -> dict:
        return {
            "cycles": self.cycles,
            "bus_busy_ticks": self.bus_busy_ticks,
            "unit_busy_ticks": dict(self.unit_busy_ticks),
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
        }


@dataclass
class _DirectTransfer:
    edge: str
    remaining: int
    payload: list[int]


class CoSimulation:
    """Cycle-stepped simulation of one synthesized implementation."""

    def __init__(self, graph: TaskGraph, partition: Partition,
                 schedule: Schedule, plan: CommPlan,
                 controller: SystemController,
                 arch: TargetArchitecture,
                 stimuli: Mapping[str, list[int]],
                 latencies: Mapping[str, Mapping[str, int]] | None = None
                 ) -> None:
        """``latencies`` optionally overrides per-resource node latencies
        (e.g. exact post-HLS cycle counts); defaults to the CostModel."""
        self.graph = graph
        self.partition = partition
        self.schedule = schedule
        self.plan = plan
        self.arch = arch
        self.controller = controller
        self.harness = ControllerHarness(controller)
        model = CostModel(graph, arch)

        self.units: dict[str, UnitSim] = {}
        for resource in partition.resources_used:
            table: dict[str, int] = {}
            for name in partition.nodes_on(resource):
                if latencies and resource in latencies \
                        and name in latencies[resource]:
                    table[name] = latencies[resource][name]
                else:
                    table[name] = model.latency(name, resource)
            unit_stimuli = {}
            if resource == "io":
                unit_stimuli = {n.name: list(stimuli[n.name])
                                for n in graph.inputs()}
            self.units[resource] = UnitSim(resource, graph, table,
                                           unit_stimuli)

        masters = ["sysctl"] + list(self.units)
        interlocks: dict[str, set[str]] = {}
        cells = plan.memory_map.cells
        for later_name, later in cells.items():
            for earlier_name, earlier in cells.items():
                if earlier_name == later_name:
                    continue
                if earlier.overlaps_in_space(later) \
                        and earlier.live_until <= later.live_from:
                    interlocks.setdefault(later_name, set()).add(
                        earlier_name)
        self.bus = BusModel(RoundRobinArbiter(masters), interlocks)
        self.memory = MemoryModel(arch.memory, plan.memory_map)
        self.model = model
        self.direct_in_flight: list[_DirectTransfer] = []
        self.cycles = 0
        self._edge_by_name = {e.name: e for e in graph.edges}
        self._pending_done: set[str] = set()
        self.trace: list[tuple[int, str]] = []

    # ------------------------------------------------------------------
    def _producer_unit(self, edge_name: str) -> UnitSim:
        edge = self._edge_by_name[edge_name]
        return self.units[self.partition.resource_of(edge.src)]

    def _consumer_unit(self, edge_name: str) -> UnitSim:
        edge = self._edge_by_name[edge_name]
        return self.units[self.partition.resource_of(edge.dst)]

    def _handle_action(self, action: str) -> None:
        if action.startswith("reset_"):
            resource = action[len("reset_"):]
            if resource in self.units:
                self.units[resource].reset()
            return
        if action.startswith("start_"):
            node = action[len("start_"):]
            resource = self.partition.resource_of(node)
            cross = {e.name for e in self.graph.in_edges(node)
                     if self.partition.resource_of(e.src) != resource}
            self.units[resource].start(node, cross)
            self.trace.append((self.cycles, action))
            return
        if action.startswith("write_"):
            edge_name = action[len("write_"):]
            channel = self.plan.channel(edge_name)
            producer = self._producer_unit(edge_name)
            edge = self._edge_by_name[edge_name]
            payload = producer.value_of(edge.src)
            if channel.is_direct:
                self.direct_in_flight.append(_DirectTransfer(
                    edge_name, DIRECT_TRANSFER_TICKS, payload))
            else:
                self.bus.request(BusRequest(
                    edge_name, "write", producer.resource,
                    self.model.write_ticks(edge), payload))
            self.trace.append((self.cycles, action))
            return
        if action.startswith("read_"):
            edge_name = action[len("read_"):]
            channel = self.plan.channel(edge_name)
            if channel.is_direct:
                return  # delivery rides on the direct write transfer
            edge = self._edge_by_name[edge_name]
            consumer = self._consumer_unit(edge_name)
            self.bus.request(BusRequest(
                edge_name, "read", consumer.resource,
                self.model.read_ticks(edge)))
            self.trace.append((self.cycles, action))
            return
        # system_done and friends need no simulation effect

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole system by one bus tick."""
        done_signals = {f"done_{n}" for n in self._pending_done}
        self._pending_done.clear()
        actions = self.harness.cycle(done_signals)
        for action in actions:
            self._handle_action(action)

        completed = self.bus.step()
        if completed is not None:
            if completed.kind == "write":
                self.memory.write_cell(completed.edge, completed.payload)
            else:
                edge = self._edge_by_name[completed.edge]
                values = self.memory.read_cell(completed.edge, edge.words)
                self._consumer_unit(completed.edge).deliver(
                    completed.edge, values)

        still_flying: list[_DirectTransfer] = []
        for transfer in self.direct_in_flight:
            transfer.remaining -= 1
            if transfer.remaining <= 0:
                self._consumer_unit(transfer.edge).deliver(
                    transfer.edge, transfer.payload)
            else:
                still_flying.append(transfer)
        self.direct_in_flight = still_flying

        for unit in self.units.values():
            finished = unit.step()
            if finished is not None:
                self._pending_done.add(finished)
                self.trace.append((self.cycles, f"done_{finished}"))
        self.cycles += 1

    def run(self, max_cycles: int = 1_000_000) -> SimResult:
        """Run one activation to the controller's done state."""
        stall_window = 0
        last_progress = self.cycles
        while not self.harness.system_done:
            if self.cycles >= max_cycles:
                raise SimError(f"simulation exceeded {max_cycles} cycles")
            before = len(self.trace)
            self.step()
            active_work = (self.bus.active is not None
                           or any(u.active is not None
                                  and not u.active.waiting_for
                                  for u in self.units.values()))
            if len(self.trace) > before or active_work \
                    or self._pending_done:
                last_progress = self.cycles
            stall_window = self.cycles - last_progress
            if stall_window > 50_000:
                raise SimError(
                    f"deadlock: no progress since cycle {last_progress}")
        # final cycles let the controller observe the last done pulses
        outputs = {}
        for unit in self.units.values():
            outputs.update(unit.outputs)
        return SimResult(
            outputs=outputs,
            cycles=self.cycles,
            bus_busy_ticks=self.bus.busy_ticks,
            unit_busy_ticks={r: u.busy_ticks
                             for r, u in self.units.items()},
            memory_reads=self.memory.reads,
            memory_writes=self.memory.writes,
            trace_len=len(self.trace),
        )

    # ------------------------------------------------------------------
    def restart(self, stimuli: Mapping[str, list[int]]) -> None:
        """Arm the next activation (block processing / streaming mode).

        Pulses the controller's ``restart`` input -- the phase FSM walks
        done -> reset -> run, re-clearing the done flags and re-issuing
        the unit resets -- and loads the next stimulus block into the
        I/O controller.  Bus bookkeeping of the previous activation is
        cleared exactly as the system controller's reset phase does on
        the board.
        """
        if not self.harness.system_done:
            raise SimError("restart requested before the activation finished")
        if "io" in self.units:
            self.units["io"].stimuli = {
                n.name: list(stimuli[n.name]) for n in self.graph.inputs()}
        self.bus.written_edges.clear()
        self.bus.read_edges.clear()
        self.direct_in_flight.clear()
        self._pending_done.clear()
        actions = self.harness.cycle(external={"restart"})
        for action in actions:
            self._handle_action(action)
        self.cycles += 1

    def run_stream(self, blocks: list[Mapping[str, list[int]]],
                   max_cycles_per_block: int = 1_000_000
                   ) -> list[SimResult]:
        """Process a sequence of stimulus blocks back to back.

        The first block must match the stimuli the simulation was
        constructed with; each subsequent block re-arms the controller
        via :meth:`restart`.  Returns one :class:`SimResult` per block;
        all counters (cycles, busy ticks, memory traffic, trace length)
        are cumulative across the stream, so per-block figures are the
        difference of consecutive results.  The restart path driven
        here -- phase FSM done -> reset -> run, flag-register clear,
        ``go`` re-arming -- is the same one
        :func:`repro.controllers.verify.verify_composition` proves
        equivalent to a fresh STG activation (the pair fixpoint follows
        the ``restart`` edge on both sides), so streamed blocks compute
        exactly what cold activations would.
        """
        results: list[SimResult] = []
        for index, block in enumerate(blocks):
            if index > 0:
                self.restart(block)
            results.append(self.run(max_cycles=self.cycles
                                    + max_cycles_per_block))
        return results
