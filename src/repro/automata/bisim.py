"""Kernel-level weak bisimulation between two step automata.

The composition verifier needs to compare two *reactive* transition
systems -- the STG's token-semantics step automaton and the
materialized product of the communicating controllers -- whose states
and cycle timings differ but whose observable behaviour must agree.
This module provides that comparison as a kernel operation:

1. **Observation normalization** -- every transition of a step
   automaton (conditions = the input letter of the step, actions = the
   outputs emitted during it) is unrolled into a chain of single-label
   edges: one ``?letter`` edge for the input, one ``!action`` edge per
   *observable* output.  Note the kernel interns a transition's actions
   sorted by signal name, so *within one step* the chain follows that
   canonical order, not emission order -- two observable actions of the
   same step are order-indistinguishable, and callers who need order
   must ensure at most one observable fires per step (as the composition
   verifier's projection classes do).  Order *across* steps is real.
   Hidden actions vanish; an edge with no labels left becomes an
   internal (τ) move.  Timing skew between the two systems -- the
   controller spreads over clock cycles what the STG fires in one
   burst -- therefore turns into τ-moves, which is exactly what weak
   equivalence abstracts.  A transition's input letter is its
   conjunction of positive conditions, rendered ``?a+b``.  The
   name-rendered transition rows are computed once per automaton and
   cached (projections only re-filter the action labels), and
   deterministic τ-chains are compressed away
   (:func:`_compress_tau_chains`): a state whose only move is a single
   τ-edge is weakly bisimilar to its target, so whole silent walks
   collapse to their endpoint before the quadratic-ish saturation
   runs.
2. **Weak saturation** -- the τ-closure of every state is computed and
   the weak transition relation ``s ⇒ℓ t  iff  s →τ* →ℓ →τ* t`` (plus
   the reflexive-transitive ``⇒τ``) is materialized.  By Milner's
   classic reduction, *strong* bisimilarity of the saturated systems
   coincides with *weak* bisimilarity of the originals.
3. **Partition refinement on the disjoint union** -- the saturated
   systems are dumped into one automaton (states prefixed per side) and
   handed to the one kernel minimizer,
   :func:`repro.automata.minimize.refine_partition`; the systems are
   weakly bisimilar iff both initial states land in the same block.

For diagnostics, :func:`distinguishing_trace` searches the shortest
observable trace present in exactly one side (a determinized BFS over
τ-closed state sets).  The step automata produced by
:func:`repro.automata.product.reachable_automaton` are deterministic
per input letter, and for determinate systems weak bisimilarity and
weak trace equivalence coincide -- so whenever the refinement check
fails, a concrete counterexample trace exists and is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Automaton, Transition
from .minimize import refine_partition
from .symbolic import INPUT_PREFIX, OUTPUT_PREFIX

__all__ = ["BisimResult", "weak_bisimilar", "distinguishing_trace"]

#: Reserved internal-move label of the saturated union (no signal may
#: carry this name).
TAU_LABEL = "τ"

#: Safety valve for the determinized counterexample search.
_MAX_SEARCH_PAIRS = 200_000


@dataclass(frozen=True)
class BisimResult:
    """Outcome of one weak-bisimulation check.

    ``observable`` echoes the action filter the check ran under
    (``None`` = every action observable).  When the systems are not
    bisimilar, ``counterexample`` is the shortest observable trace --
    ``?letter`` / ``!action`` labels -- that one side can perform and
    the other cannot, and ``missing_side`` names the side that cannot
    (``"left"`` / ``"right"``, matching the argument order).
    """

    bisimilar: bool
    left_states: int
    right_states: int
    blocks: int
    observable: tuple[str, ...] | None
    counterexample: tuple[str, ...] = ()
    missing_side: str | None = None

    def explain(self) -> str:
        if self.bisimilar:
            return "weakly bisimilar"
        if not self.counterexample:
            return "not weakly bisimilar (no linear counterexample found)"
        return (f"trace {' '.join(self.counterexample)} possible only in "
                f"the {'right' if self.missing_side == 'left' else 'left'} "
                f"system")


class _Lts:
    """Normalized single-label LTS (τ edges carry label ``None``)."""

    __slots__ = ("adjacency", "initial")

    def __init__(self, adjacency: list[list[tuple[str | None, int]]],
                 initial: int) -> None:
        self.adjacency = adjacency
        self.initial = initial

    def __len__(self) -> int:
        return len(self.adjacency)


def _observation_rows(automaton: Automaton) -> list[tuple]:
    """Name-rendered transition rows, computed once per automaton.

    Each row is ``(src, dst, letter label | None, action names)``.  The
    rows are projection-independent (input letters are always visible,
    hiding only filters the action names), so they are cached on the
    automaton and shared by every per-class projection of the
    composition verifier.
    """
    rows = automaton._obs_summary
    if rows is None:
        symbols = automaton.symbols
        rows = []
        for t in automaton.transitions:
            names = symbols.names_of(t.conditions)
            letter = INPUT_PREFIX + "+".join(names) if names else None
            rows.append((t.src, t.dst, letter, symbols.names_of(t.actions)))
        # repro-lint: ignore[FRZ303] -- sanctioned lazy memo: _obs_summary
        # is registered in KERNEL_MEMO_ATTRIBUTES, derived purely from
        # frozen content and invisible to equality and fingerprints
        automaton._obs_summary = rows
    return rows


def _normalized_lts(automaton: Automaton,
                    observable: frozenset[str] | None,
                    compress: bool = True) -> _Lts:
    """Unroll a step automaton into the single-label observation LTS.

    Deterministic τ-chains are compressed before the caller saturates
    (see :func:`_compress_tau_chains`); pass ``compress=False`` to get
    the raw unrolled system.
    """
    adjacency: list[list[tuple[str | None, int]]] = \
        [[] for _ in range(len(automaton))]
    for src, dst, letter, actions in _observation_rows(automaton):
        labels: list[str] = []
        if letter is not None:
            labels.append(letter)
        for action in actions:
            if observable is None or action in observable:
                labels.append(OUTPUT_PREFIX + action)
        if not labels:
            adjacency[src].append((None, dst))
            continue
        current = src
        for label in labels[:-1]:
            adjacency.append([])
            intermediate = len(adjacency) - 1
            adjacency[current].append((label, intermediate))
            current = intermediate
        adjacency[current].append((labels[-1], dst))
    lts = _Lts(adjacency, automaton.initial or 0)
    return _compress_tau_chains(lts) if compress else lts


def _compress_tau_chains(lts: _Lts) -> _Lts:
    """Collapse deterministic τ-chains before saturation.

    A state whose only move (ignoring a τ self-loop) is a single τ-edge
    is weakly bisimilar to that edge's target: everything it can ever
    do is the target's behaviour behind one internal move, and weak
    equivalence ignores internal moves and divergence alike.  Every
    such state is redirected to the terminal of its chain (τ-cycles
    collapse onto their first-visited member) and dropped from the
    system, which shrinks the τ-closure/saturation work on the long
    silent walks cycle-accurate products produce.
    """
    adjacency = lts.adjacency
    n = len(adjacency)
    chain_next: list[int | None] = [None] * n
    chains = 0
    for state, edges in enumerate(adjacency):
        real = [(label, dst) for label, dst in edges
                if not (label is None and dst == state)]
        if len(real) == 1 and real[0][0] is None:
            chain_next[state] = real[0][1]
            chains += 1
    # rebuilding the LTS is only worth it when chains make up a real
    # fraction of the system; scattered singletons cost more to strip
    # than their closures cost to saturate
    if chains * 16 < n:
        return lts
    terminal: list[int | None] = [None] * n
    for state in range(n):
        if terminal[state] is not None:
            continue
        path: list[int] = []
        on_path: set[int] = set()
        current = state
        while True:
            if terminal[current] is not None:
                end = terminal[current]
                break
            if chain_next[current] is None:
                end = current
                break
            if current in on_path:
                end = current  # pure τ-cycle: first revisited member
                break
            on_path.add(current)
            path.append(current)
            current = chain_next[current]
        for member in path:
            terminal[member] = end
        if terminal[current] is None:
            terminal[current] = end
    keep = sorted({terminal[state] for state in range(n)})
    remap = {old: new for new, old in enumerate(keep)}
    compact: list[list[tuple[str | None, int]]] = []
    for old in keep:
        compact.append([(label, remap[terminal[dst]])
                        for label, dst in adjacency[old]])
    return _Lts(compact, remap[terminal[lts.initial]])


def _tau_closures(lts: _Lts) -> list[frozenset[int]]:
    """Forward τ-reachability (reflexive-transitive) per state."""
    closures: list[frozenset[int]] = []
    for state in range(len(lts)):
        seen = {state}
        stack = [state]
        while stack:
            for label, dst in lts.adjacency[stack.pop()]:
                if label is None and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        closures.append(frozenset(seen))
    return closures


def _weak_edges(lts: _Lts, closures: list[frozenset[int]]
                ) -> list[dict[str, set[int]]]:
    """The saturated relation: per state, label -> weak successor set."""
    weak: list[dict[str, set[int]]] = []
    for state in range(len(lts)):
        by_label: dict[str, set[int]] = {}
        for reached in closures[state]:
            for label, dst in lts.adjacency[reached]:
                if label is None:
                    continue
                by_label.setdefault(label, set()).update(closures[dst])
        weak.append(by_label)
    return weak


class _SaturatedUnion:
    """Disjoint union of two τ-saturated LTSs, shaped like an automaton.

    Implements exactly the protocol :func:`refine_partition` consumes
    (``len``, ``out``, ``transitions``, ``key_of``, ``outputs_of``,
    ``initial``) without paying the name-interning cost of a full
    :class:`~.core.Automaton` -- the union exists only for one
    refinement run.  Labels are interned to dense IDs shared by both
    sides (τ is ID 0), encoded as single-condition transitions.
    """

    __slots__ = ("_out", "_transitions", "initial")

    def __init__(self, sides) -> None:
        labels: dict[str, int] = {TAU_LABEL: 0}
        out: list[list[Transition]] = []
        for offset, lts, closures, weak in sides:
            for state in range(len(lts)):
                edges = []
                source = offset + state
                for reached in sorted(closures[state]):
                    edges.append(Transition(source, offset + reached, (0,)))
                for label, successors in sorted(weak[state].items()):
                    label_id = labels.setdefault(label, len(labels))
                    for successor in sorted(successors):
                        edges.append(Transition(source, offset + successor,
                                                (label_id,)))
                out.append(edges)
        self._out = out
        self._transitions = [t for edges in out for t in edges]
        self.initial = None

    def __len__(self) -> int:
        return len(self._out)

    @property
    def transitions(self):
        return self._transitions

    def out(self, state: int):
        return self._out[state]

    def key_of(self, state: int):
        return None

    def outputs_of(self, state: int):
        return ()


def weak_bisimilar(left: Automaton, right: Automaton,
                   observable: Iterable[str] | None = None) -> BisimResult:
    """Are two step automata weakly bisimilar under the given hiding?

    ``observable`` restricts which *actions* stay visible (input
    letters are always visible -- the environments must be driven
    identically); ``None`` keeps every action.  The verdict comes from
    the kernel partition refinement on the τ-saturated disjoint union;
    on failure a shortest distinguishing trace is attached.
    """
    filter_ = frozenset(observable) if observable is not None else None
    left_lts = _normalized_lts(left, filter_)
    right_lts = _normalized_lts(right, filter_)
    left_closures = _tau_closures(left_lts)
    right_closures = _tau_closures(right_lts)
    left_weak = _weak_edges(left_lts, left_closures)
    right_weak = _weak_edges(right_lts, right_closures)

    union = _SaturatedUnion((
        (0, left_lts, left_closures, left_weak),
        (len(left_lts), right_lts, right_closures, right_weak)))

    refinement = refine_partition(union)
    block_of = refinement.block_of
    bisimilar = block_of[left_lts.initial] \
        == block_of[len(left_lts) + right_lts.initial]

    counterexample: tuple[str, ...] = ()
    missing: str | None = None
    if not bisimilar:
        found = _search_distinguishing(
            left_weak, right_weak,
            left_closures[left_lts.initial],
            right_closures[right_lts.initial])
        if found is not None:
            counterexample, missing = found
    return BisimResult(
        bisimilar=bisimilar,
        left_states=len(left_lts), right_states=len(right_lts),
        blocks=refinement.n_blocks,
        observable=tuple(sorted(filter_)) if filter_ is not None else None,
        counterexample=counterexample, missing_side=missing)


def distinguishing_trace(left: Automaton, right: Automaton,
                         observable: Iterable[str] | None = None
                         ) -> tuple[tuple[str, ...], str] | None:
    """Shortest observable trace possible in exactly one system.

    Returns ``(trace, missing_side)`` or ``None`` when the weak trace
    languages agree (trace *equivalence* -- inclusion in both
    directions; for the deterministic step automata the product
    explorers emit, this coincides with weak bisimilarity).
    """
    filter_ = frozenset(observable) if observable is not None else None
    left_lts = _normalized_lts(left, filter_)
    right_lts = _normalized_lts(right, filter_)
    left_closures = _tau_closures(left_lts)
    right_closures = _tau_closures(right_lts)
    return _search_distinguishing(
        _weak_edges(left_lts, left_closures),
        _weak_edges(right_lts, right_closures),
        left_closures[left_lts.initial],
        right_closures[right_lts.initial])


def _search_distinguishing(left_weak: list[dict[str, set[int]]],
                           right_weak: list[dict[str, set[int]]],
                           left_start: frozenset[int],
                           right_start: frozenset[int]
                           ) -> tuple[tuple[str, ...], str] | None:
    """Determinized BFS for the shortest one-sided observable trace.

    Operates on the saturated relation of :func:`_weak_edges`: for a
    τ-closed state set, the weak moves are just the union of its
    members' weak edges, so the same materialization backs both the
    refinement verdict and this counterexample search.
    """
    from collections import deque

    def successors(weak, states: frozenset[int]
                   ) -> dict[str, frozenset[int]]:
        by_label: dict[str, set[int]] = {}
        for state in states:
            for label, dsts in weak[state].items():
                by_label.setdefault(label, set()).update(dsts)
        return {label: frozenset(dsts)
                for label, dsts in by_label.items()}

    start = (left_start, right_start)
    queue: deque[tuple[frozenset[int], frozenset[int], tuple[str, ...]]] = \
        deque([(start[0], start[1], ())])
    seen = {start}
    while queue and len(seen) < _MAX_SEARCH_PAIRS:
        left_set, right_set, trace = queue.popleft()
        from_left = successors(left_weak, left_set)
        from_right = successors(right_weak, right_set)
        for label in sorted(set(from_left) | set(from_right)):
            if label not in from_right:
                return trace + (label,), "right"
            if label not in from_left:
                return trace + (label,), "left"
            pair = (from_left[label], from_right[label])
            if pair not in seen:
                seen.add(pair)
                queue.append((pair[0], pair[1], trace + (label,)))
    return None
