"""The cost model: cached per-node estimates for a whole architecture.

Partitioning algorithms query costs for every (node, resource) pair many
times; :class:`CostModel` computes them once per pair and normalizes
everything to a single *time unit* -- one system-bus clock cycle -- so
heterogeneous clock domains become comparable, which is what the static
schedule and the MILP formulation need.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..graph.partition import IO_RESOURCE
from ..graph.taskgraph import DataEdge, TaskGraph, TaskNode
from ..platform.architecture import TargetArchitecture
from . import communication, hardware, software

__all__ = ["CostModel", "NodeCost", "ScheduleTables"]


@dataclass(frozen=True)
class NodeCost:
    """All estimates for one node: execution per resource, area per FPGA."""

    node: str
    #: resource name -> execution latency in bus clock ticks
    latency_ticks: tuple
    #: fpga name -> estimated CLB area
    area_clbs: tuple

    def latency_on(self, resource: str) -> int:
        for name, ticks in self.latency_ticks:
            if name == resource:
                return ticks
        raise KeyError(f"no latency estimate of {self.node!r} on {resource!r}")

    def area_on(self, fpga: str) -> int:
        for name, clbs in self.area_clbs:
            if name == fpga:
                return clbs
        raise KeyError(f"no area estimate of {self.node!r} on {fpga!r}")


@dataclass(frozen=True)
class ScheduleTables:
    """Mapping-independent inputs of the list scheduler, built once per model.

    A schedule for any mapping reads its latencies and edge costs from
    here instead of resolving them through the graph on every call.
    """

    #: node names in the graph's topological order
    order: tuple
    #: node -> ``((src, edge name, write ticks, read ticks), ...)`` by port
    in_rows: dict
    #: node -> ``((dst, transfer ticks), ...)`` in edge insertion order
    out_rows: dict
    #: ``(node, resource)`` -> execution latency in bus ticks; I/O nodes
    #: appear only under :data:`repro.graph.partition.IO_RESOURCE`
    latency: dict


class CostModel:
    """Per-(node, resource) execution/area/communication estimates.

    All latencies are expressed in *bus clock ticks* (the common time
    base of the board).  A node running on a 20 MHz DSP while the bus
    runs at 10 MHz therefore has its cycle count halved, rounding up.
    """

    def __init__(self, graph: TaskGraph, arch: TargetArchitecture) -> None:
        self.graph = graph
        self.arch = arch
        self._node_cache: dict[str, NodeCost] = {}
        self._edge_cache: dict[str, int] = {}
        self._schedule_tables: ScheduleTables | None = None

    # ------------------------------------------------------------------
    def _to_ticks(self, cycles: int, clock_hz: float) -> int:
        """Convert device cycles into bus clock ticks (ceil, >= 1)."""
        seconds = cycles / clock_hz
        return max(1, ceil(seconds * self.arch.bus.clock_hz))

    def node_cost(self, node_name: str) -> NodeCost:
        """Estimates of one node on every resource of the architecture."""
        cached = self._node_cache.get(node_name)
        if cached is not None:
            return cached
        node = self.graph.node(node_name)
        latencies: list[tuple[str, int]] = []
        areas: list[tuple[str, int]] = []
        for proc in self.arch.processors:
            cycles = software.sw_cycles(node, proc)
            latencies.append((proc.name, self._to_ticks(cycles, proc.clock_hz)))
        for fpga in self.arch.fpgas:
            cycles = hardware.hw_cycles(node, fpga)
            latencies.append((fpga.name, self._to_ticks(cycles, fpga.clock_hz)))
            areas.append((fpga.name, hardware.hw_area_clbs(node, fpga)))
        cost = NodeCost(node_name, tuple(latencies), tuple(areas))
        self._node_cache[node_name] = cost
        return cost

    def latency(self, node_name: str, resource: str) -> int:
        """Execution latency of ``node_name`` on ``resource`` in bus ticks.

        I/O nodes execute on the I/O controller; their latency is the bus
        cost of moving the payload in or out of the system.
        """
        node = self.graph.node(node_name)
        if node.is_io:
            return max(1, self.arch.bus.transfer_cycles(node.width, node.words))
        return self.node_cost(node_name).latency_on(resource)

    def area(self, node_name: str, fpga: str) -> int:
        """Estimated CLB area of ``node_name`` if mapped to ``fpga``."""
        return self.node_cost(node_name).area_on(fpga)

    def transfer_ticks(self, edge: DataEdge) -> int:
        """Bus ticks of a full write+read transfer of ``edge``."""
        cached = self._edge_cache.get(edge.name)
        if cached is None:
            cached = communication.transfer_cycles(edge, self.arch)
            self._edge_cache[edge.name] = cached
        return cached

    def write_ticks(self, edge: DataEdge) -> int:
        return communication.write_cycles(edge, self.arch)

    def read_ticks(self, edge: DataEdge) -> int:
        return communication.read_cycles(edge, self.arch)

    def schedule_tables(self) -> ScheduleTables:
        """The list scheduler's per-graph tables (computed on first use)."""
        if self._schedule_tables is not None:
            return self._schedule_tables
        graph = self.graph
        order = tuple(graph.topological_order())
        in_rows: dict[str, tuple] = {}
        out_rows: dict[str, tuple] = {}
        latency: dict[tuple[str, str], int] = {}
        for node in graph.nodes:
            name = node.name
            in_rows[name] = tuple(
                (e.src, e.name, self.write_ticks(e), self.read_ticks(e))
                for e in graph.in_edges(name))
            out_rows[name] = tuple((e.dst, self.transfer_ticks(e))
                                   for e in graph.out_edges(name))
            if node.is_io:
                latency[name, IO_RESOURCE] = self.latency(name, IO_RESOURCE)
            else:
                for resource, ticks in self.node_cost(name).latency_ticks:
                    latency[name, resource] = ticks
        self._schedule_tables = ScheduleTables(order, in_rows, out_rows,
                                               latency)
        return self._schedule_tables

    # ------------------------------------------------------------------
    def software_bound(self, processor: str | None = None) -> int:
        """Makespan lower bound: every internal node serial on one CPU."""
        procs = [processor] if processor else list(self.arch.processor_names)
        if not procs:
            raise ValueError("architecture has no processor")
        best = None
        for proc in procs:
            total = sum(self.latency(n.name, proc)
                        for n in self.graph.internal_nodes())
            best = total if best is None else min(best, total)
        return int(best or 0)

    def summary(self) -> dict:
        """Per-node cost table used by reports."""
        rows = []
        for node in self.graph.internal_nodes():
            cost = self.node_cost(node.name)
            rows.append({
                "node": node.name,
                "kind": node.kind,
                "latency": dict(cost.latency_ticks),
                "area": dict(cost.area_clbs),
            })
        return {"nodes": rows, "arch": self.arch.name}
