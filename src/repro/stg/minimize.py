"""STG state minimization (paper: "after the number of states of the STG
has been minimized, memory cells are allocated ...").

Three behaviour-preserving reductions:

1. **WAIT contraction** -- a WAIT state whose outgoing transition carries
   no guard conditions is redundant: the node may start as soon as its
   chain predecessor finishes.  The incoming transitions are redirected
   to the EXECUTION state, accumulating the start/read actions.
2. **DONE contraction** -- a DONE state always has exactly one outgoing
   chain edge (to the next WAIT on the unit, or to global D) with no
   guards; the state is folded into that edge.  Guards elsewhere
   reference the *done signal flags*, not the DONE state, so folding is
   observationally safe.
3. **Equivalence merging** -- partition refinement: states of the same
   kind on the same resource with structurally identical outgoing
   behaviour (conditions, actions, successor block) merge.  The
   refinement itself is the shared kernel minimizer
   (:func:`repro.automata.refine_partition`), the same worklist
   algorithm controller FSM minimization uses.

Reduction 1+2 shrink the canonical 3-states-per-node construction to
roughly one state per node plus the guarded waits -- the minimization
win the paper reports.  Every reduction is verified in the tests by
comparing the actions :class:`repro.stg.interp.StgExecutor` emits before
and after.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata import refine_partition
from .states import StateKind, Stg, StgError, StgState, StgTransition

__all__ = ["minimize_stg", "MinimizationReport"]


@dataclass(frozen=True)
class MinimizationReport:
    """What minimization achieved (consumed by the ablation benchmark)."""

    states_before: int
    states_after: int
    transitions_before: int
    transitions_after: int
    waits_contracted: int
    dones_contracted: int
    equivalents_merged: int

    @property
    def reduction(self) -> float:
        """Fraction of states removed."""
        if self.states_before == 0:
            return 0.0
        return 1.0 - self.states_after / self.states_before


def _rebuild(stg: Stg, keep: set[str],
             transitions: list[StgTransition], name: str) -> Stg:
    if stg.initial is not None and stg.initial not in keep:
        raise StgError(f"minimization dropped initial state {stg.initial!r}")
    out = Stg(name)
    for state in stg.states:
        if state.name in keep:
            out.add_state(state)
    out.initial = stg.initial
    for t in transitions:
        out.add_transition(t)
    return out


def _contract(stg: Stg, kind: StateKind) -> tuple[Stg, int]:
    """Fold states of ``kind`` with one unguarded exit into that edge.

    For WAIT states a guarded exit means the controller genuinely waits
    there, so only guard-free waits contract; DONE chain edges never
    carry conditions.  The exit's actions are folded into the merged
    transition -- they fired in the same executor step anyway (fixpoint
    semantics).  The initial state is never contracted: folding the
    entry state away would leave ``initial`` dangling.
    """
    removed = 0
    transitions = list(stg.transitions)
    keep = {s.name for s in stg.states}
    for state in stg.states_of_kind(kind):
        if state.name == stg.initial:
            continue
        outs = [t for t in transitions if t.src == state.name]
        if len(outs) != 1 or outs[0].conditions:
            continue
        exit_t = outs[0]
        ins = [t for t in transitions if t.dst == state.name]
        replacement = [StgTransition(t.src, exit_t.dst,
                                     conditions=t.conditions,
                                     actions=tuple(t.actions)
                                     + tuple(exit_t.actions))
                       for t in ins]
        transitions = [t for t in transitions
                       if t.src != state.name and t.dst != state.name]
        transitions.extend(replacement)
        keep.discard(state.name)
        removed += 1
    return _rebuild(stg, keep, transitions, stg.name), removed


def _merge_equivalent(stg: Stg) -> tuple[Stg, int]:
    """Merge states the kernel's partition refinement proves equivalent.

    The initial partition comes from the automaton view's state keys
    (kind + resource, initial state isolated -- see
    :meth:`~repro.stg.states.Stg.to_automaton`); unordered signatures,
    because STG transitions carry no priority.  The quotient is rebuilt
    as an :class:`Stg` so the representatives keep their full
    :class:`StgState` metadata (kind, node, resource).
    """
    automaton = stg.to_automaton(isolate_initial=True)
    refinement = refine_partition(automaton, ordered=False)
    if refinement.merged == 0:
        return stg, 0

    block_of = {automaton.name_of(i): b
                for i, b in enumerate(refinement.block_of)}
    representative = {b: automaton.name_of(r)
                      for b, r in enumerate(refinement.representative)}

    out = Stg(stg.name)
    for state in stg.states:
        if representative[block_of[state.name]] == state.name:
            out.add_state(state)
    out.initial = representative[block_of[stg.initial]] \
        if stg.initial else None
    seen: set[tuple] = set()
    for t in stg.transitions:
        src = representative[block_of[t.src]]
        dst = representative[block_of[t.dst]]
        key = (src, dst, t.conditions, t.actions)
        if key in seen:
            continue
        seen.add(key)
        out.add_transition(StgTransition(src, dst, t.conditions, t.actions))
    return out, refinement.merged


def minimize_stg(stg: Stg, contract_waits: bool = True,
                 contract_dones: bool = True,
                 merge_equivalent: bool = True) -> tuple[Stg,
                                                         MinimizationReport]:
    """Minimize ``stg``; returns the reduced graph and a report."""
    states_before = len(stg)
    transitions_before = len(stg.transitions)

    waits = dones = merged = 0
    current = stg
    if contract_waits:
        current, waits = _contract(current, StateKind.WAIT)
    if contract_dones:
        current, dones = _contract(current, StateKind.DONE)
    if merge_equivalent:
        current, merged = _merge_equivalent(current)

    report = MinimizationReport(
        states_before=states_before,
        states_after=len(current),
        transitions_before=transitions_before,
        transitions_after=len(current.transitions),
        waits_contracted=waits,
        dones_contracted=dones,
        equivalents_merged=merged,
    )
    return current, report
