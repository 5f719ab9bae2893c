"""Seeded synthetic task-graph generators (TGFF-style workload families).

The paper evaluates COOL on a handful of hand-built designs; the batch
layer wants *thousands* of scenarios.  Every generator here is a frozen
:class:`WorkloadSpec` dataclass: a pure description of one graph family
member with TGFF-style knobs (node count, shape, communication-to-
computation ratio, hw/sw cost spread) plus the seed.  ``build()`` is
deterministic in the spec -- identical specs produce structurally
identical graphs -- and ``fingerprint()`` hashes the spec itself, so a
spec is a cacheable pipeline artifact exactly like the graph it denotes.

Families
--------
* :class:`LayeredDagSpec` -- layered random DAG, the classic TGFF shape;
* :class:`ForkJoinSpec` -- one source fanned over parallel branches and
  joined (the map-reduce silhouette of parallel synthesis workloads);
* :class:`ChainSpec` -- a linear pipeline of stages;
* :class:`TreeSpec` -- leaves reduced by a balanced operator tree;
* :class:`EqualizerSpec` / :class:`DctSpec` -- parameterized families of
  the paper's own applications (Fig. 2 equalizer, the DCT stage);
* :class:`RandomDagSpec` -- the unconstrained TGFF-style generator of
  :func:`repro.apps.random_task_graph` as a spec family, the shape the
  scale sweeps use for 200..500-node designs whose reachable products
  only the production (lazy) verifier can prove.

All generated graphs pass :func:`repro.graph.check_graph` and use node
kinds with executable semantics, so a generated workload can run the
*whole* flow including co-simulation against the golden interpreter.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from ..apps.dct import dct_stage
from ..apps.equalizer import four_band_equalizer
from ..apps.random_graphs import random_task_graph
from ..fingerprint import content_hash
from ..graph.taskgraph import TaskGraph, make_node
from ..graph.validate import check_graph

__all__ = ["WorkloadError", "WorkloadSpec", "LayeredDagSpec", "ForkJoinSpec",
           "ChainSpec", "TreeSpec", "EqualizerSpec", "DctSpec",
           "RandomDagSpec"]

#: Bump when a generator's construction changes shape for the same spec,
#: so stale cross-run cache entries keyed on a spec can never alias the
#: new topology.
GENERATOR_VERSION = 1


class WorkloadError(ValueError):
    """Raised for inconsistent workload specifications."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Base class of all workload descriptions.

    Concrete families add their knobs as dataclass fields and implement
    :meth:`_build`; the public :meth:`build` validates the result once.
    """

    seed: int = 0

    @property
    def family(self) -> str:
        """Short family tag, e.g. ``"layered"``."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Compact display name without building the graph.

        Suite specs carry distinct seeds (:func:`workload_suite`), so
        the label is unique within a suite -- sweep drivers use it to
        name spec-based jobs whose graphs are only built in-worker.
        """
        return f"{self.family}_s{self.seed}"

    def fingerprint(self) -> str:
        """Stable content hash of the family, generator version and knobs."""
        config = tuple((f.name, repr(getattr(self, f.name)))
                       for f in dataclasses.fields(self))
        return content_hash((type(self).__qualname__, GENERATOR_VERSION,
                             config))

    def _build(self) -> TaskGraph:
        raise NotImplementedError

    def build(self) -> TaskGraph:
        """Construct the task graph; deterministic in the spec."""
        graph = self._build()
        check_graph(graph)
        return graph

    def _rng(self) -> random.Random:
        """The family RNG: seeded by the *whole* spec, not just ``seed``,
        so two specs differing in any knob draw independent streams."""
        return random.Random(self.fingerprint())


# ----------------------------------------------------------------------
# shared construction helpers
# ----------------------------------------------------------------------
def _cost_mix(rng: random.Random, words: int, hw_bias: float,
              cost_spread: float) -> tuple:
    """One node's op mix: MAC-heavy (hardware-friendly) with probability
    ``hw_bias``, control-heavy otherwise; magnitudes span ``cost_spread``."""
    spread = max(float(cost_spread), 1.0)
    base = rng.randint(4, 12)
    heavy = max(base, round(base * spread * rng.uniform(0.5, 1.0)))
    if rng.random() < hw_bias:
        return (("mac", heavy * words), ("add", base * words),
                ("mov", 4 * words))
    return (("cmp", heavy * words), ("add", base * words),
            ("div", rng.randint(0, 2)), ("mov", 6 * words))


def _payload_words(rng: random.Random, ccr: float) -> int:
    """Edge payload size implementing the CCR knob.

    Node compute cost is held in a fixed band by :func:`_cost_mix`, so
    scaling the *words* each node produces scales the communication side
    of the ratio: ``ccr=1`` gives the 2..6-word payloads of the bundled
    apps, larger values stress the bus and shared memory.
    """
    if ccr <= 0:
        raise WorkloadError(f"ccr must be positive, got {ccr}")
    lo = max(1, round(2 * ccr))
    hi = max(lo, round(6 * ccr))
    return rng.randint(lo, hi)


def _generic(name: str, rng: random.Random, words: int, width: int,
             hw_bias: float, cost_spread: float):
    return make_node(name, "generic",
                     {"mix": _cost_mix(rng, words, hw_bias, cost_spread),
                      "seed": rng.randint(0, 2**31)},
                     width=width, words=words)


def _with_name(graph: TaskGraph, name: str) -> TaskGraph:
    """A structural copy of ``graph`` under a new name (fresh fingerprint)."""
    out = TaskGraph(name)
    for node in graph.nodes:
        out.add_node(node)
    for edge in graph.edges:
        out.add_edge(edge.src, edge.dst, edge.dst_port)
    return out


# ----------------------------------------------------------------------
# synthetic families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayeredDagSpec(WorkloadSpec):
    """Layered random DAG (the TGFF shape).

    Parameters
    ----------
    nodes:
        Internal (partitionable) node count.
    layers:
        Topological depth; nodes are spread over the layers with random
        jitter, every layer keeps at least one node.
    inputs / outputs:
        Environment interface size.
    max_fanin:
        Upper bound on predecessor count of internal nodes.
    ccr:
        Communication-to-computation ratio knob: scales the per-node
        payload words against the fixed op-mix band (1.0 = app-like).
    hw_bias:
        Probability that a node's op mix is MAC-heavy (hardware leaning)
        instead of control-heavy (software leaning).
    cost_spread:
        Ratio between the heaviest and lightest node cost magnitudes --
        the TGFF "cost multiplier" that makes partitioning non-trivial.
    width:
        Bit width of every data word.
    """

    nodes: int = 12
    layers: int = 4
    inputs: int = 2
    outputs: int = 2
    max_fanin: int = 3
    ccr: float = 1.0
    hw_bias: float = 0.5
    cost_spread: float = 4.0
    width: int = 16

    @property
    def family(self) -> str:
        return "layered"

    def _build(self) -> TaskGraph:
        if self.nodes < self.layers or self.layers < 1:
            raise WorkloadError(
                f"need nodes >= layers >= 1, got {self.nodes}/{self.layers}")
        if self.inputs < 1 or self.outputs < 1:
            raise WorkloadError("need at least one input and output")
        rng = self._rng()
        graph = TaskGraph(f"layered_n{self.nodes}_l{self.layers}_s{self.seed}")

        for i in range(self.inputs):
            graph.add_node(make_node(f"in{i}", "input", width=self.width,
                                     words=_payload_words(rng, self.ccr)))

        # spread internal nodes over layers: one guaranteed per layer,
        # the rest land on rng-chosen layers
        per_layer = [1] * self.layers
        for _ in range(self.nodes - self.layers):
            per_layer[rng.randrange(self.layers)] += 1

        layer_names: list[list[str]] = []
        index = 0
        for layer, count in enumerate(per_layer):
            names: list[str] = []
            earlier = [f"in{i}" for i in range(self.inputs)] if layer == 0 \
                else [n for names_ in layer_names for n in names_]
            previous = layer_names[-1] if layer_names else earlier
            for _ in range(count):
                name = f"n{index}"
                index += 1
                words = _payload_words(rng, self.ccr)
                graph.add_node(_generic(name, rng, words, self.width,
                                        self.hw_bias, self.cost_spread))
                fanin = rng.randint(1, min(self.max_fanin, len(earlier)))
                # locality bias: first predecessor from the previous
                # layer, extras from anywhere earlier
                preds = {rng.choice(previous)}
                while len(preds) < fanin:
                    preds.add(rng.choice(earlier))
                for pred in sorted(preds):
                    graph.add_edge(pred, name)
                names.append(name)
            layer_names.append(names)

        # every input must feed the dataflow; attach unused ones to
        # first-layer nodes (variable-arity "generic" accepts extras)
        for i in range(self.inputs):
            if not graph.out_edges(f"in{i}"):
                graph.add_edge(f"in{i}", rng.choice(layer_names[0]))

        # outputs read from distinct late producers where possible
        internal = [n for names in layer_names for n in names]
        tail = internal[-self.outputs:] if len(internal) >= self.outputs \
            else [internal[i % len(internal)] for i in range(self.outputs)]
        for i, producer in enumerate(tail):
            words = graph.node(producer).words
            graph.add_node(make_node(f"out{i}", "output", width=self.width,
                                     words=words))
            graph.add_edge(producer, f"out{i}")

        # connect dangling sinks forward, layer-aware so the depth stays
        # bounded by the `layers` knob: a sink feeds the next layer, and
        # last-layer extras feed an output-driving node of their own
        # layer ("generic" has variable arity, extras are always legal)
        for layer, names in enumerate(layer_names):
            for name in names:
                if graph.out_edges(name) or name in tail:
                    continue
                if layer + 1 < len(layer_names):
                    target = rng.choice(layer_names[layer + 1])
                else:
                    target = rng.choice([t for t in tail if t != name])
                if not graph.edge_between(name, target):
                    graph.add_edge(name, target)
        return graph


@dataclass(frozen=True)
class ForkJoinSpec(WorkloadSpec):
    """Fork-join: a source fans over parallel branches that are joined.

    ``branches`` parallel chains of ``depth`` nodes between one source
    node and one joining node -- the natural shape for exercising
    multi-resource schedules and the bus arbiter.
    """

    branches: int = 4
    depth: int = 2
    ccr: float = 1.0
    hw_bias: float = 0.5
    cost_spread: float = 4.0
    width: int = 16

    @property
    def family(self) -> str:
        return "fork_join"

    def _build(self) -> TaskGraph:
        if self.branches < 1 or self.depth < 1:
            raise WorkloadError("fork-join needs branches >= 1, depth >= 1")
        rng = self._rng()
        graph = TaskGraph(f"forkjoin_b{self.branches}_d{self.depth}"
                          f"_s{self.seed}")
        words = _payload_words(rng, self.ccr)
        graph.add_node(make_node("in0", "input", width=self.width,
                                 words=words))
        graph.add_node(_generic("src", rng, words, self.width,
                                self.hw_bias, self.cost_spread))
        graph.add_edge("in0", "src")
        heads = []
        for b in range(self.branches):
            prev = "src"
            for d in range(self.depth):
                name = f"b{b}_{d}"
                graph.add_node(_generic(name, rng,
                                        _payload_words(rng, self.ccr),
                                        self.width, self.hw_bias,
                                        self.cost_spread))
                graph.add_edge(prev, name)
                prev = name
            heads.append(prev)
        join_words = _payload_words(rng, self.ccr)
        graph.add_node(_generic("join", rng, join_words, self.width,
                                self.hw_bias, self.cost_spread))
        for head in heads:
            graph.add_edge(head, "join")
        graph.add_node(make_node("out0", "output", width=self.width,
                                 words=join_words))
        graph.add_edge("join", "out0")
        return graph


@dataclass(frozen=True)
class ChainSpec(WorkloadSpec):
    """A linear pipeline of ``length`` processing stages."""

    length: int = 6
    ccr: float = 1.0
    hw_bias: float = 0.5
    cost_spread: float = 4.0
    width: int = 16

    @property
    def family(self) -> str:
        return "chain"

    def _build(self) -> TaskGraph:
        if self.length < 1:
            raise WorkloadError("chain needs length >= 1")
        rng = self._rng()
        graph = TaskGraph(f"chain_l{self.length}_s{self.seed}")
        graph.add_node(make_node("in0", "input", width=self.width,
                                 words=_payload_words(rng, self.ccr)))
        prev = "in0"
        for i in range(self.length):
            name = f"n{i}"
            graph.add_node(_generic(name, rng, _payload_words(rng, self.ccr),
                                    self.width, self.hw_bias,
                                    self.cost_spread))
            graph.add_edge(prev, name)
            prev = name
        graph.add_node(make_node("out0", "output", width=self.width,
                                 words=graph.node(prev).words))
        graph.add_edge(prev, "out0")
        return graph


@dataclass(frozen=True)
class TreeSpec(WorkloadSpec):
    """Balanced reduction tree: ``arity ** depth`` leaves folded to a root.

    One input block is de-interleaved by the leaf nodes, then reduced by
    ``arity``-ary combiner levels -- the adder-tree shape dominating
    transform codecs, with the heavy MAC leaves that make hardware
    mapping attractive.
    """

    depth: int = 2
    arity: int = 2
    ccr: float = 1.0
    hw_bias: float = 0.7
    cost_spread: float = 4.0
    width: int = 16

    @property
    def family(self) -> str:
        return "tree"

    def _build(self) -> TaskGraph:
        if self.depth < 1 or self.arity < 2:
            raise WorkloadError("tree needs depth >= 1, arity >= 2")
        rng = self._rng()
        leaves = self.arity ** self.depth
        graph = TaskGraph(f"tree_d{self.depth}_a{self.arity}_s{self.seed}")
        graph.add_node(make_node("in0", "input", width=self.width,
                                 words=_payload_words(rng, self.ccr)))
        level = []
        for i in range(leaves):
            name = f"leaf{i}"
            graph.add_node(_generic(name, rng, _payload_words(rng, self.ccr),
                                    self.width, self.hw_bias,
                                    self.cost_spread))
            graph.add_edge("in0", name)
            level.append(name)
        step = 0
        while len(level) > 1:
            next_level = []
            for i in range(0, len(level), self.arity):
                group = level[i:i + self.arity]
                if len(group) == 1:
                    next_level.append(group[0])
                    continue
                name = f"r{step}_{i // self.arity}"
                graph.add_node(_generic(name, rng,
                                        _payload_words(rng, self.ccr),
                                        self.width, self.hw_bias,
                                        self.cost_spread))
                for member in group:
                    graph.add_edge(member, name)
                next_level.append(name)
            level = next_level
            step += 1
        graph.add_node(make_node("out0", "output", width=self.width,
                                 words=graph.node(level[0]).words))
        graph.add_edge(level[0], "out0")
        return graph


# ----------------------------------------------------------------------
# parameterized families of the paper's applications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EqualizerSpec(WorkloadSpec):
    """Family of paper-Fig.-2 equalizers: bands x block size x FIR length.

    ``seed`` only disambiguates the graph name (the equalizer itself is
    fully determined by its knobs), keeping suite entries distinct.
    """

    bands: int = 4
    words: int = 16
    taps_per_band: int = 5
    width: int = 16

    @property
    def family(self) -> str:
        return "equalizer"

    def _build(self) -> TaskGraph:
        graph = four_band_equalizer(bands=self.bands, words=self.words,
                                    width=self.width,
                                    taps_per_band=self.taps_per_band)
        name = (f"eq_b{self.bands}_w{self.words}_t{self.taps_per_band}"
                f"_s{self.seed}")
        return _with_name(graph, name)


@dataclass(frozen=True)
class DctSpec(WorkloadSpec):
    """Family of DCT row-transform stages: points x computed coefficients."""

    points: int = 8
    coefficients: int | None = None
    width: int = 16

    @property
    def family(self) -> str:
        return "dct"

    def _build(self) -> TaskGraph:
        graph = dct_stage(points=self.points, coefficients=self.coefficients,
                          width=self.width)
        n_coeff = self.coefficients if self.coefficients is not None \
            else self.points
        return _with_name(graph, f"dct_p{self.points}_c{n_coeff}"
                                 f"_s{self.seed}")


@dataclass(frozen=True)
class RandomDagSpec(WorkloadSpec):
    """Family of unconstrained random layered DAGs at arbitrary size.

    Wraps :func:`repro.apps.random_task_graph` (the generator the
    partitioner-comparison scale sweeps always used) as a spec, so the
    200..500-node designs of the verification scale suite are first-
    class suite members: fingerprinted, cacheable and reproducible from
    the spec alone.  Unlike :class:`LayeredDagSpec` this family does
    not bound its width, which is what makes its reachable composition
    products outgrow the explicit oracle's state bound -- the
    population the lazy production verifier exists for.
    """

    nodes: int = 200
    inputs: int = 2
    outputs: int = 2
    max_fanin: int = 3
    words: int = 4
    width: int = 16
    mac_bias: float = 0.5

    @property
    def family(self) -> str:
        return "random"

    def _build(self) -> TaskGraph:
        if self.nodes < 3:
            raise WorkloadError(f"a random DAG needs at least 3 nodes, "
                                f"got {self.nodes}")
        return random_task_graph(self.nodes, seed=self.seed,
                                 n_inputs=self.inputs,
                                 n_outputs=self.outputs,
                                 max_fanin=self.max_fanin,
                                 words=self.words, width=self.width,
                                 mac_bias=self.mac_bias)
