"""The one partition-refinement minimizer behind every state-machine view.

Signature-based refinement with a worklist: states start partitioned by
their declared key + Moore outputs; a block is re-examined only when the
block of some successor changed, and each split enqueues exactly the
predecessor blocks it can have invalidated (Hopcroft-style scheduling).
This replaces two older implementations -- the whole-signature-recompute
loop of ``Fsm.minimize`` and the equivalence-merge pass of
``repro.stg.minimize`` -- which recomputed the signature of *every*
state on *every* iteration.

Signatures are syntactic: a transition contributes its positive
condition conjunction, its actions and the block of its successor.
They come in two flavours:

* ``ordered=False`` -- a frozenset of ``(conditions, actions,
  successor-block)`` triples: structural equivalence for concurrent
  token-semantics graphs (STGs);
* ``ordered=True`` -- the tuple of triples in declaration order:
  transition priority is observable for sequential Mealy machines, so
  two states merge only when their prioritized cascades agree.

Representative selection prefers the initial state of its block (the
canonical entry name callers reference must survive the merge) and is
otherwise the earliest-declared state, so minimization is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Automaton, AutomatonBuilder

__all__ = ["PartitionRefinement", "refine_partition", "quotient",
           "minimize_automaton"]


@dataclass(frozen=True)
class PartitionRefinement:
    """Result of refining an automaton's states into equivalence blocks.

    Blocks are numbered densely in order of their earliest member, so
    two runs over the same automaton produce identical numberings.
    """

    block_of: tuple[int, ...]        #: state index -> block id
    representative: tuple[int, ...]  #: block id -> representative state

    @property
    def n_blocks(self) -> int:
        return len(self.representative)

    @property
    def merged(self) -> int:
        """How many states the refinement removed."""
        return len(self.block_of) - len(self.representative)


def refine_partition(automaton: Automaton,
                     ordered: bool = False) -> PartitionRefinement:
    """Coarsest behaviour-preserving partition of the automaton's states.

    Two states share a block when their declared keys and Moore
    outputs agree and their signatures -- ``(conditions, actions,
    successor block)`` triples, a frozenset or, with ``ordered=True``,
    the declaration-order tuple -- coincide.
    """
    n = len(automaton)
    if n == 0:
        return PartitionRefinement((), ())

    # initial partition: declared key + Moore outputs
    seed: dict[tuple, int] = {}
    block_of = [0] * n
    blocks: dict[int, set[int]] = {}
    for state in range(n):
        key = (automaton.key_of(state), automaton.outputs_of(state))
        bid = seed.setdefault(key, len(seed))
        block_of[state] = bid
        blocks.setdefault(bid, set()).add(state)
    next_bid = len(seed)

    preds: list[list[int]] = [[] for _ in range(n)]
    for t in automaton.transitions:
        preds[t.dst].append(t.src)

    out = automaton.out
    wrap = tuple if ordered else frozenset

    def signature(state: int):
        return wrap((t.conditions, t.actions, block_of[t.dst])
                    for t in out(state))

    worklist: deque[int] = deque(b for b, members in blocks.items()
                                 if len(members) > 1)
    queued = set(worklist)
    while worklist:
        bid = worklist.popleft()
        queued.discard(bid)
        members = blocks[bid]
        if len(members) <= 1:
            continue
        groups: dict[object, list[int]] = {}
        for state in sorted(members):
            groups.setdefault(signature(state), []).append(state)
        if len(groups) == 1:
            continue
        # the largest group keeps the block id (fewest reassignments);
        # ties break on the smallest member for determinism
        split = sorted(groups.values(), key=lambda g: (-len(g), g[0]))
        blocks[bid] = set(split[0])
        touched: set[int] = set()
        for group in split[1:]:
            new_bid = next_bid
            next_bid += 1
            blocks[new_bid] = set(group)
            for state in group:
                block_of[state] = new_bid
                touched.update(preds[state])
            if len(group) > 1 and new_bid not in queued:
                worklist.append(new_bid)
                queued.add(new_bid)
        if len(blocks[bid]) > 1 and bid not in queued:
            worklist.append(bid)
            queued.add(bid)
        for pred in touched:
            pb = block_of[pred]
            if len(blocks[pb]) > 1 and pb not in queued:
                worklist.append(pb)
                queued.add(pb)

    # densify block ids in order of earliest member; pick representatives
    first_member: dict[int, int] = {}
    for state in range(n):
        first_member.setdefault(block_of[state], state)
    dense = {bid: rank for rank, bid in
             enumerate(sorted(first_member, key=first_member.get))}
    representative = [first_member[bid]
                      for bid in sorted(first_member, key=first_member.get)]
    initial = automaton.initial
    if initial is not None:
        representative[dense[block_of[initial]]] = initial
    return PartitionRefinement(
        tuple(dense[b] for b in block_of), tuple(representative))


def quotient(automaton: Automaton,
             refinement: PartitionRefinement) -> Automaton:
    """The merged automaton: representative-named states, transitions
    deduplicated in declaration (priority) order."""
    builder = AutomatonBuilder(automaton.name)
    sym = automaton.symbols
    for rep in refinement.representative:
        builder.add_state(automaton.name_of(rep),
                          outputs=sym.names_of(automaton.outputs_of(rep)),
                          key=automaton.key_of(rep))
    block_of = refinement.block_of
    rep_name = [automaton.name_of(r) for r in refinement.representative]
    seen: set[tuple] = set()
    for t in automaton.transitions:
        src = rep_name[block_of[t.src]]
        dst = rep_name[block_of[t.dst]]
        key = (src, dst, t.conditions, t.actions)
        if key in seen:
            continue
        seen.add(key)
        builder.add_transition(src, dst,
                               conditions=sym.names_of(t.conditions),
                               actions=sym.names_of(t.actions))
    initial = None
    if automaton.initial is not None:
        initial = rep_name[block_of[automaton.initial]]
    return builder.build(initial=initial)


def minimize_automaton(automaton: Automaton, ordered: bool = False
                       ) -> tuple[Automaton, PartitionRefinement]:
    """Minimize ``automaton``; returns the quotient and the refinement."""
    refinement = refine_partition(automaton, ordered=ordered)
    if refinement.merged == 0:
        return automaton, refinement
    return quotient(automaton, refinement), refinement
