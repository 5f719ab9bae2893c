"""Coloured partitioning graphs.

The result of COOL's partitioning phase is "(1) a coloured partitioning
graph where each colour either represents a hardware or software resource
and (2) a static schedule" (paper Section 2).  This module implements the
colouring: a mapping from task-graph nodes to resource names of a
:class:`repro.platform.TargetArchitecture`.

I/O nodes are always coloured with the pseudo-resource :data:`IO_RESOURCE`
-- they are implemented by the synthesized I/O controller, never by a CPU
or an ASIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..fingerprint import content_hash
from .taskgraph import DataEdge, GraphError, TaskGraph

__all__ = ["IO_RESOURCE", "Partition", "PartitionError", "all_software", "all_hardware"]

#: Pseudo-resource name for environment I/O (the I/O controller).
IO_RESOURCE = "io"


class PartitionError(GraphError):
    """Raised for inconsistent colourings."""


@dataclass
class Partition:
    """A colouring of ``graph`` onto the resources of an architecture.

    Parameters
    ----------
    graph:
        The task graph that was partitioned.
    mapping:
        node name -> resource name.  I/O nodes may be omitted; they are
        implicitly mapped to :data:`IO_RESOURCE`.
    hw_resources / sw_resources:
        Names of the hardware (ASIC/FPGA) and software (processor)
        resources of the target architecture.  Kept here so a Partition is
        self-describing without dragging the full architecture along.
    """

    graph: TaskGraph
    mapping: dict[str, str] = field(default_factory=dict)
    hw_resources: tuple[str, ...] = ()
    sw_resources: tuple[str, ...] = ()
    _fingerprint: str | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        self.mapping = dict(self.mapping)
        for node in self.graph.nodes:
            if node.is_io:
                self.mapping[node.name] = IO_RESOURCE
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the colouring is total and uses only known resources."""
        known = set(self.hw_resources) | set(self.sw_resources) | {IO_RESOURCE}
        if set(self.hw_resources) & set(self.sw_resources):
            raise PartitionError("a resource cannot be both hardware and software")
        for node in self.graph.nodes:
            colour = self.mapping.get(node.name)
            if colour is None:
                raise PartitionError(f"node {node.name!r} has no colour")
            if colour not in known:
                raise PartitionError(
                    f"node {node.name!r} mapped to unknown resource {colour!r}")
            if node.is_io and colour != IO_RESOURCE:
                raise PartitionError(
                    f"I/O node {node.name!r} must map to {IO_RESOURCE!r}")
            if not node.is_io and colour == IO_RESOURCE:
                raise PartitionError(
                    f"internal node {node.name!r} cannot map to the I/O controller")
        extra = set(self.mapping) - {n.name for n in self.graph.nodes}
        if extra:
            raise PartitionError(f"colouring mentions unknown nodes {sorted(extra)}")

    # ------------------------------------------------------------------
    def resource_of(self, node_name: str) -> str:
        try:
            return self.mapping[node_name]
        except KeyError:
            raise PartitionError(f"node {node_name!r} has no colour") from None

    def nodes_on(self, resource: str) -> list[str]:
        """Node names coloured with ``resource`` in graph insertion order."""
        return [n.name for n in self.graph.nodes if self.mapping[n.name] == resource]

    def is_hardware(self, node_name: str) -> bool:
        return self.resource_of(node_name) in self.hw_resources

    def is_software(self, node_name: str) -> bool:
        return self.resource_of(node_name) in self.sw_resources

    @property
    def resources_used(self) -> list[str]:
        """Resources that actually received at least one node (plus IO)."""
        seen: list[str] = []
        for node in self.graph.nodes:
            colour = self.mapping[node.name]
            if colour not in seen:
                seen.append(colour)
        return seen

    def hw_nodes(self) -> list[str]:
        return [n for n, r in self.mapping.items() if r in self.hw_resources]

    def sw_nodes(self) -> list[str]:
        return [n for n, r in self.mapping.items() if r in self.sw_resources]

    # ------------------------------------------------------------------
    def cut_edges(self) -> list[DataEdge]:
        """Edges whose endpoints sit on *different* processing units.

        These are exactly the transfers that receive memory cells during
        co-synthesis (paper Fig. 3).
        """
        return [e for e in self.graph.edges
                if self.mapping[e.src] != self.mapping[e.dst]]

    def local_edges(self) -> list[DataEdge]:
        """Edges that stay inside one processing unit (no memory cell)."""
        return [e for e in self.graph.edges
                if self.mapping[e.src] == self.mapping[e.dst]]

    def cut_bits(self) -> int:
        """Total inter-unit traffic per system activation, in bits."""
        return sum(e.bits for e in self.cut_edges())

    # ------------------------------------------------------------------
    def with_moved(self, node_name: str, resource: str) -> "Partition":
        """Return a copy with one node recoloured (used by heuristics)."""
        mapping = dict(self.mapping)
        mapping[node_name] = resource
        return Partition(self.graph, mapping, self.hw_resources, self.sw_resources)

    def fingerprint(self) -> str:
        """Content hash of the colouring (graph + mapping + resources).

        Used by the flow pipeline to detect that a partition actually
        changed (e.g. during HLS area repair) before re-running the
        stages that depend on it.  Memoized: a partition is not edited
        after construction (:meth:`with_moved` returns a copy), and the
        partitioning stage hashes it as an output of its own, inside its
        schedule and inside its partitioning result.
        """
        if self._fingerprint is None:
            self._fingerprint = content_hash((
                self.graph.fingerprint(),
                tuple(sorted(self.mapping.items())),
                self.hw_resources, self.sw_resources))
        return self._fingerprint

    def summary(self) -> dict:
        per_resource = {r: len(self.nodes_on(r)) for r in self.resources_used}
        return {
            "resources": per_resource,
            "hw_nodes": len(self.hw_nodes()),
            "sw_nodes": len(self.sw_nodes()),
            "cut_edges": len(self.cut_edges()),
            "cut_bits": self.cut_bits(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Partition({self.graph.name!r}, hw={len(self.hw_nodes())}, "
                f"sw={len(self.sw_nodes())}, cut={len(self.cut_edges())})")


def all_software(graph: TaskGraph, processor: str,
                 hw_resources: Iterable[str] = (),
                 sw_resources: Iterable[str] | None = None) -> Partition:
    """Colour every internal node onto one processor (pure-SW baseline)."""
    sw = tuple(sw_resources) if sw_resources is not None else (processor,)
    mapping = {n.name: processor for n in graph.internal_nodes()}
    return Partition(graph, mapping, tuple(hw_resources), sw)


def all_hardware(graph: TaskGraph, fpga: str,
                 hw_resources: Iterable[str] | None = None,
                 sw_resources: Iterable[str] = ()) -> Partition:
    """Colour every internal node onto one hardware resource."""
    hw = tuple(hw_resources) if hw_resources is not None else (fpga,)
    mapping = {n.name: fpga for n in graph.internal_nodes()}
    return Partition(graph, mapping, hw, tuple(sw_resources))


def from_mapping(graph: TaskGraph, mapping: Mapping[str, str],
                 hw_resources: Iterable[str], sw_resources: Iterable[str]) -> Partition:
    """Build a partition from an explicit node -> resource mapping."""
    return Partition(graph, dict(mapping), tuple(hw_resources), tuple(sw_resources))
