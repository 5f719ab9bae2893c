"""Deterministic workload suites: many graphs from one seed.

:func:`workload_suite` samples specs across the generator families so a
single ``(count, seed)`` pair names a reproducible population of designs
-- the input side of a large batch sweep.  :func:`stimuli_for` derives a
deterministic stimulus vector per input node, so any suite member can be
co-simulated against the golden interpreter without hand-written data.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from ..graph.taskgraph import TaskGraph
from .generators import (ChainSpec, DctSpec, EqualizerSpec, ForkJoinSpec,
                         LayeredDagSpec, RandomDagSpec, TreeSpec,
                         WorkloadError, WorkloadSpec)

__all__ = ["DEFAULT_FAMILIES", "SCALE_SUITE_SIZES", "workload_suite",
           "scale_suite", "build_graphs", "stimuli_for"]

#: Family sampling order of :func:`workload_suite`.
DEFAULT_FAMILIES = ("layered", "fork_join", "chain", "tree", "equalizer",
                    "dct")

#: Node counts of the default :func:`scale_suite` -- the designs whose
#: reachable composition products outgrow the explicit oracle's state
#: bound and are only provable by the production (lazy) verifier.
SCALE_SUITE_SIZES = (200, 500)


def _sample(family: str, rng: random.Random, seed: int) -> WorkloadSpec:
    """Draw one spec of ``family`` with rng-chosen knobs."""
    ccr = rng.choice((0.5, 1.0, 2.0))
    hw_bias = rng.choice((0.3, 0.5, 0.7))
    spread = rng.choice((2.0, 4.0, 8.0))
    if family == "layered":
        layers = rng.randint(3, 5)
        return LayeredDagSpec(seed=seed, nodes=rng.randint(layers + 3, 16),
                              layers=layers, inputs=rng.randint(1, 2),
                              outputs=rng.randint(1, 2), ccr=ccr,
                              hw_bias=hw_bias, cost_spread=spread)
    if family == "fork_join":
        return ForkJoinSpec(seed=seed, branches=rng.randint(2, 5),
                            depth=rng.randint(1, 3), ccr=ccr,
                            hw_bias=hw_bias, cost_spread=spread)
    if family == "chain":
        return ChainSpec(seed=seed, length=rng.randint(4, 10), ccr=ccr,
                         hw_bias=hw_bias, cost_spread=spread)
    if family == "tree":
        return TreeSpec(seed=seed, depth=rng.randint(2, 3),
                        arity=rng.randint(2, 3), ccr=ccr, hw_bias=hw_bias,
                        cost_spread=spread)
    if family == "equalizer":
        return EqualizerSpec(seed=seed, bands=rng.randint(2, 6),
                             words=rng.choice((8, 16)),
                             taps_per_band=rng.choice((3, 5, 7)))
    if family == "dct":
        points = rng.choice((4, 8))
        return DctSpec(seed=seed, points=points,
                       coefficients=rng.randint(2, points))
    raise WorkloadError(f"unknown workload family {family!r}")


def workload_suite(count: int, seed: int = 0,
                   families: Sequence[str] = DEFAULT_FAMILIES
                   ) -> list[WorkloadSpec]:
    """``count`` specs cycling through ``families``, deterministic in seed.

    Every spec gets a distinct ``seed`` field derived from the suite
    seed, so the built graphs carry unique names and fingerprints even
    when two draws land on the same family and knobs.
    """
    if count < 1:
        raise WorkloadError("suite needs count >= 1")
    if not families:
        raise WorkloadError("suite needs at least one family")
    # string seeds use the hash-independent sha512 path of random.seed
    rng = random.Random(f"workload-suite:{seed}")
    return [_sample(families[i % len(families)], rng, seed=seed * 100_000 + i)
            for i in range(count)]


def scale_suite(sizes: Sequence[int] = SCALE_SUITE_SIZES
                ) -> list[RandomDagSpec]:
    """Beyond-the-oracle spec variants: one random DAG per size.

    The verification scale population: each spec seeds its generator
    with its own node count (matching the long-standing scale-graph
    convention of the benches, so ``sizes=(80,)`` reproduces the
    ``random_80_80`` design bit-for-bit).  Kept out of
    :func:`workload_suite`'s sampled rotation on purpose -- a 500-node
    member would dominate any sweep it appeared in; callers opt into
    scale explicitly.
    """
    if not sizes:
        raise WorkloadError("scale suite needs at least one size")
    return [RandomDagSpec(seed=size, nodes=size) for size in sizes]


def build_graphs(specs: Iterable[WorkloadSpec]) -> list[TaskGraph]:
    """Build every spec (convenience for sweep drivers)."""
    return [spec.build() for spec in specs]


def stimuli_for(graph: TaskGraph, seed: int = 0
                ) -> Mapping[str, list[int]]:
    """A deterministic stimulus vector for every input node of ``graph``.

    Values are drawn per (seed, node name), independent of node order,
    and fit the node's bit width -- ready for both the golden
    :func:`repro.graph.execute` interpreter and the co-simulator.
    """
    stimuli: dict[str, list[int]] = {}
    for node in graph.inputs():
        rng = random.Random(f"stimuli:{seed}:{graph.name}:{node.name}")
        stimuli[node.name] = [rng.randrange(1 << node.width)
                              for _ in range(node.words)]
    return stimuli
