"""Task graphs: the fundamental data structure of the COOL flow.

A :class:`TaskGraph` is a directed acyclic graph of coarse-grained
*functions* (paper: "nodes of the partitioning graph").  Every node
produces exactly one value -- a vector of ``words`` integers of ``width``
bits -- which may be consumed by several successors.  Edges are *data
transfers*; when source and destination end up on different processing
units after partitioning, the transfer is implemented through shared
memory cells allocated by the co-synthesis step (paper Fig. 3).

External inputs and outputs of the system are ordinary nodes with kind
``"input"`` / ``"output"``.  They are pinned to the I/O controller during
partitioning, exactly as COOL keeps environment communication inside a
dedicated I/O controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..fingerprint import content_hash

__all__ = ["TaskNode", "DataEdge", "TaskGraph", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid task graphs or invalid queries."""


@dataclass(frozen=True)
class TaskNode:
    """A coarse-grained function of the system specification.

    Parameters
    ----------
    name:
        Unique node identifier, e.g. ``"band0"``.
    kind:
        Operation kind registered in :mod:`repro.graph.semantics`
        (``"fir"``, ``"gain"``, ``"sum"``, ``"fuzzify"``, ...).
    params:
        Kind-specific parameters, e.g. ``{"taps": (1, 2, 1)}`` for a FIR
        node.  Stored as a tuple-of-pairs internally so nodes stay
        hashable; access through :attr:`params`.
    width:
        Bit width of each produced data word.
    words:
        Number of data words produced per activation.
    """

    name: str
    kind: str
    params_items: tuple = field(default_factory=tuple)
    width: int = 16
    words: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("node name must be non-empty")
        if self.width <= 0:
            raise GraphError(f"node {self.name!r}: width must be positive")
        if self.words <= 0:
            raise GraphError(f"node {self.name!r}: words must be positive")

    @property
    def params(self) -> dict:
        """Kind-specific parameters as a plain dictionary."""
        return dict(self.params_items)

    @property
    def is_input(self) -> bool:
        """True for environment-input nodes."""
        return self.kind == "input"

    @property
    def is_output(self) -> bool:
        """True for environment-output nodes."""
        return self.kind == "output"

    @property
    def is_io(self) -> bool:
        """True for nodes handled by the I/O controller."""
        return self.kind in ("input", "output")

    @property
    def bits(self) -> int:
        """Total payload size of one activation in bits."""
        return self.width * self.words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskNode({self.name!r}, kind={self.kind!r}, {self.words}x{self.width}b)"


def make_node(name: str, kind: str, params: Mapping | None = None,
              width: int = 16, words: int = 1) -> TaskNode:
    """Convenience constructor turning a params mapping into a TaskNode."""
    items = tuple(sorted((params or {}).items()))
    return TaskNode(name=name, kind=kind, params_items=items,
                    width=width, words=words)


@dataclass(frozen=True)
class DataEdge:
    """A data transfer from ``src`` to input port ``dst_port`` of ``dst``.

    ``width`` and ``words`` mirror the producing node; they are stored on
    the edge because memory allocation (paper Fig. 3) is per-edge.
    """

    src: str
    dst: str
    dst_port: int
    width: int
    words: int

    def __post_init__(self) -> None:
        if self.dst_port < 0:
            raise GraphError(f"edge {self.src}->{self.dst}: negative port")
        if self.width <= 0 or self.words <= 0:
            raise GraphError(f"edge {self.src}->{self.dst}: bad payload shape")

    @property
    def name(self) -> str:
        """Stable identifier used for memory cells and signals."""
        return f"{self.src}__to__{self.dst}_p{self.dst_port}"

    @property
    def bits(self) -> int:
        """Total payload size transported per activation in bits."""
        return self.width * self.words


class TaskGraph:
    """Directed acyclic graph of :class:`TaskNode` joined by :class:`DataEdge`.

    The class maintains adjacency both ways and offers the queries the
    rest of the flow needs: topological order, predecessors ordered by
    input port, transitive reachability and simple structural metrics.
    """

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self._nodes: dict[str, TaskNode] = {}
        self._edges: list[DataEdge] = []
        self._out: dict[str, list[DataEdge]] = {}
        self._in: dict[str, list[DataEdge]] = {}
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: TaskNode | None = None, /, **kwargs) -> TaskNode:
        """Add a node; accepts a TaskNode or make_node keyword arguments."""
        if node is None:
            node = make_node(**kwargs)
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._out[node.name] = []
        self._in[node.name] = []
        self._fingerprint = None
        return node

    def add_edge(self, src: str, dst: str, dst_port: int | None = None) -> DataEdge:
        """Connect ``src`` to the next free (or given) input port of ``dst``."""
        if src not in self._nodes:
            raise GraphError(f"unknown source node {src!r}")
        if dst not in self._nodes:
            raise GraphError(f"unknown destination node {dst!r}")
        if src == dst:
            raise GraphError(f"self loop on {src!r} not allowed")
        if dst_port is None:
            dst_port = len(self._in[dst])
        if any(e.dst_port == dst_port for e in self._in[dst]):
            raise GraphError(f"input port {dst_port} of {dst!r} already driven")
        producer = self._nodes[src]
        edge = DataEdge(src=src, dst=dst, dst_port=dst_port,
                        width=producer.width, words=producer.words)
        self._edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self._in[dst].sort(key=lambda e: e.dst_port)
        self._fingerprint = None
        return edge

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[TaskNode]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    @property
    def edges(self) -> list[DataEdge]:
        """All edges in insertion order."""
        return list(self._edges)

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes)

    def node(self, name: str) -> TaskNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def in_edges(self, name: str) -> list[DataEdge]:
        """Incoming edges of ``name`` sorted by destination port."""
        self.node(name)
        return list(self._in[name])

    def out_edges(self, name: str) -> list[DataEdge]:
        self.node(name)
        return list(self._out[name])

    def predecessors(self, name: str) -> list[str]:
        """Predecessor names ordered by the input port they drive."""
        return [e.src for e in self.in_edges(name)]

    def successors(self, name: str) -> list[str]:
        return [e.dst for e in self.out_edges(name)]

    def inputs(self) -> list[TaskNode]:
        """Environment input nodes in insertion order."""
        return [n for n in self.nodes if n.is_input]

    def outputs(self) -> list[TaskNode]:
        """Environment output nodes in insertion order."""
        return [n for n in self.nodes if n.is_output]

    def internal_nodes(self) -> list[TaskNode]:
        """Nodes subject to HW/SW partitioning (everything but I/O)."""
        return [n for n in self.nodes if not n.is_io]

    def sources(self) -> list[str]:
        """Names of nodes without predecessors."""
        return [n for n in self._nodes if not self._in[n]]

    def sinks(self) -> list[str]:
        return [n for n in self._nodes if not self._out[n]]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn topological order; raises :class:`GraphError` on cycles."""
        indeg = {n: len(self._in[n]) for n in self._nodes}
        ready = [n for n in self._nodes if indeg[n] == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for edge in self._out[name]:
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self._nodes):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except GraphError:
            return False

    def reachable_from(self, name: str) -> set[str]:
        """All nodes reachable from ``name`` (excluding ``name`` itself)."""
        seen: set[str] = set()
        stack = [e.dst for e in self.out_edges(name)]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(e.dst for e in self._out[cur])
        return seen

    def depth(self) -> int:
        """Length (in nodes) of the longest path through the graph."""
        level: dict[str, int] = {}
        for name in self.topological_order():
            preds = self.predecessors(name)
            level[name] = 1 + max((level[p] for p in preds), default=0)
        return max(level.values(), default=0)

    def edge_between(self, src: str, dst: str) -> list[DataEdge]:
        """All edges from ``src`` to ``dst`` (several ports are possible)."""
        return [e for e in self.out_edges(src) if e.dst == dst]

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash over nodes and edges.

        Two graphs built the same way (same names, kinds, parameters,
        payload shapes, edges) share one fingerprint regardless of the
        instances involved; the hash is invalidated by any mutation.
        The pipeline engine uses it as a stage-cache key.
        """
        if self._fingerprint is None:
            self._fingerprint = content_hash((
                self.name,
                tuple((n.name, n.kind, n.params_items, n.width, n.words)
                      for n in self._nodes.values()),
                tuple((e.src, e.dst, e.dst_port, e.width, e.words)
                      for e in self._edges)))
        return self._fingerprint

    def stats(self) -> dict:
        """Structural summary used by reports and benchmarks."""
        return {
            "name": self.name,
            "nodes": len(self._nodes),
            "edges": len(self._edges),
            "inputs": len(self.inputs()),
            "outputs": len(self.outputs()),
            "internal": len(self.internal_nodes()),
            "depth": self.depth(),
            "payload_bits": sum(e.bits for e in self._edges),
        }

    def copy(self) -> "TaskGraph":
        dup = TaskGraph(self.name)
        for node in self.nodes:
            dup.add_node(node)
        for edge in self._edges:
            dup.add_edge(edge.src, edge.dst, edge.dst_port)
        return dup

    def __iter__(self) -> Iterator[TaskNode]:
        return iter(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskGraph({self.name!r}, {len(self._nodes)} nodes, {len(self._edges)} edges)"


def linear_chain(kinds: Iterable[str], width: int = 16, words: int = 4,
                 name: str = "chain") -> TaskGraph:
    """Build ``input -> k0 -> k1 -> ... -> output`` as a quick test helper."""
    graph = TaskGraph(name)
    graph.add_node(name="in0", kind="input", width=width, words=words)
    prev = "in0"
    for i, kind in enumerate(kinds):
        node = f"n{i}"
        graph.add_node(name=node, kind=kind, width=width, words=words)
        graph.add_edge(prev, node)
        prev = node
    graph.add_node(name="out0", kind="output", width=width, words=words)
    graph.add_edge(prev, "out0")
    return graph
