"""High-level synthesis drivers: per node and per shared resource.

:func:`synthesize_node` runs the full OSCAR-style pipeline for one task
node: DFG expansion, one functional unit per used category, ALAP-priority
list scheduling, left-edge binding, RTL assembly, CLB pricing.

:func:`synthesize_resource` implements the *hardware sharing* the
paper's data-path controllers exist for: all nodes mapped to one FPGA
share a single datapath.  The shared functional-unit set is the
per-category maximum over the nodes (they execute mutually exclusively
under the data-path controller), registers are likewise shared, and the
multiplexing cost of sharing is accounted by summing the per-node mux
sources on each shared unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.partition import Partition
from ..graph.taskgraph import TaskGraph, TaskNode
from ..platform.fpgas import Fpga
from .area import controller_area_clbs, datapath_area_clbs
from .binding import Binding, bind
from .dfg import Dfg
from .expand import expand_node
from .rtl import RtlDatapath, RtlFu, build_rtl
from .schedule import HlsSchedule, allocate_minimal, list_schedule_ops

__all__ = ["HlsResult", "SharedDatapathResult", "synthesize_node",
           "synthesize_resource"]


@dataclass
class HlsResult:
    """Complete HLS output for one task node."""

    node: str
    dfg: Dfg
    schedule: HlsSchedule
    binding: Binding
    rtl: RtlDatapath
    area_clbs: int

    @property
    def latency_cycles(self) -> int:
        return self.rtl.latency_cycles

    def stats(self) -> dict:
        return {"node": self.node, "ops": len(self.dfg),
                "latency_cycles": self.latency_cycles,
                "area_clbs": self.area_clbs,
                "fus": self.rtl.fu_counts,
                "registers": self.rtl.register_count}


def synthesize_node(node: TaskNode, fpga: Fpga) -> HlsResult:
    """Synthesize one task node into an RTL datapath on ``fpga``."""
    dfg = expand_node(node)
    if len(dfg) == 0:
        # pure-move nodes (copy/concat/IO) degenerate to wiring
        empty_schedule = HlsSchedule(dfg, {}, {})
        empty_binding = Binding({}, {})
        rtl = RtlDatapath(node.name, node.width, [], 0, 1, {})
        return HlsResult(node.name, dfg, empty_schedule, empty_binding,
                         rtl, 1)

    schedule = list_schedule_ops(dfg, fpga.latency_for,
                                 allocate_minimal(dfg))
    binding = bind(schedule)
    rtl = build_rtl(node.name, node.width, schedule, binding)
    area = datapath_area_clbs(rtl, fpga)
    return HlsResult(node.name, dfg, schedule, binding, rtl, area)


@dataclass
class SharedDatapathResult:
    """HLS output for all nodes sharing one hardware resource."""

    resource: str
    node_results: dict[str, HlsResult] = field(default_factory=dict)
    shared_rtl: RtlDatapath | None = None
    datapath_area_clbs: int = 0
    controller_area_clbs: int = 0

    @property
    def total_area_clbs(self) -> int:
        return self.datapath_area_clbs + self.controller_area_clbs

    @property
    def latencies(self) -> dict[str, int]:
        """Per-node execution latency in FPGA cycles (for the DPC)."""
        return {name: r.latency_cycles
                for name, r in self.node_results.items()}

    def stats(self) -> dict:
        return {
            "resource": self.resource,
            "nodes": len(self.node_results),
            "datapath_clbs": self.datapath_area_clbs,
            "controller_clbs": self.controller_area_clbs,
            "total_clbs": self.total_area_clbs,
            "shared_fus": self.shared_rtl.fu_counts
            if self.shared_rtl else {},
        }


def synthesize_resource(graph: TaskGraph, partition: Partition,
                        resource: str, fpga: Fpga) -> SharedDatapathResult:
    """Synthesize the shared datapath of one hardware resource."""
    result = SharedDatapathResult(resource)
    node_names = partition.nodes_on(resource)
    if not node_names:
        return result

    width = 0
    for name in node_names:
        node = graph.node(name)
        width = max(width, node.width)
        result.node_results[name] = synthesize_node(node, fpga)

    # shared FU set: per-category maximum over the nodes; the mux in
    # front of a shared unit must accept every node's sources
    shared_counts: dict[str, int] = {}
    for r in result.node_results.values():
        for category, count in r.rtl.fu_counts.items():
            shared_counts[category] = max(shared_counts.get(category, 0),
                                          count)
    fus: list[RtlFu] = []
    for category, count in sorted(shared_counts.items()):
        for index in range(count):
            sources = 0
            for r in result.node_results.values():
                for fu in r.rtl.fus:
                    if fu.category == category \
                            and fu.name == f"{category}{index}":
                        sources += fu.input_sources
            fus.append(RtlFu(f"{category}{index}", category, width,
                             max(sources, 1)))

    registers = max((r.rtl.register_count
                     for r in result.node_results.values()), default=0)
    latency = max((r.latency_cycles
                   for r in result.node_results.values()), default=1)
    result.shared_rtl = RtlDatapath(
        name=f"dp_{resource}", width=width, fus=fus,
        register_count=registers, latency_cycles=latency, micro_schedule={})
    result.datapath_area_clbs = datapath_area_clbs(result.shared_rtl, fpga)
    # data-path controller: idle + one busy state per node
    result.controller_area_clbs = controller_area_clbs(
        len(node_names) + 1, fpga)
    return result
