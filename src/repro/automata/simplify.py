"""Symbolic cascade rewrite of one prioritized (Mealy) automaton state.

This module is where the :mod:`repro.symbolic` engine meets the
automaton kernel, and it has one consumer: the VHDL emitter's
``simplify=True`` path (:func:`repro.codegen.fsm_to_vhdl`).  Kernel
guards stay conjunctions of positive literals; the rewrite only
changes how a state's if/elsif cascade is *printed*.

The cascade of a state is first converted into its disjoint
*effective* guards (``g_i and not (g_1 or ... or g_{i-1})``) -- dead
branches vanish here -- and branches picking the same ``(successor,
actions)`` outcome are merged by guard disjunction.  Each surviving
branch is then re-covered by the ESPRESSO-lite extractor, with two
sources of don't-care freedom:

* the *cascade* don't-cares: a branch may overlap anything a
  higher-priority branch already takes (the if/elsif order resolves
  it), which is what keeps single-literal cascades single-literal
  instead of sprouting ``not`` terms;
* the *reachability* don't-cares of the observed valuations: input
  valuations that can never occur while residing in the state
  (harvested from the controller composition by
  :func:`repro.controllers.harvest_care_sets`) are free, so a join
  guard whose producer flag is always latched by the time the state is
  entered drops that literal.
"""

from __future__ import annotations

from typing import Iterable

from ..symbolic import FALSE, BddEngine, minimal_cover
from .core import Automaton

__all__ = ["effective_branches", "simplified_state_covers",
           "state_care_node"]


def state_care_node(engine: BddEngine, automaton: Automaton,
                    valuations: Iterable, support: Iterable[int]) -> int:
    """The BDD of the observed input valuations, as minterms over
    ``support``.

    ``valuations`` are the input sets (signal names or IDs) seen in the
    state on any reachable path; only the variables in ``support`` (the
    state's guard support) are constrained -- everything else stays
    free, which keeps the don't-care harvest cheap without giving up
    the literals it can actually remove.
    """
    support = sorted(set(support))
    symbols = automaton.symbols
    minterms = set()
    for valuation in valuations:
        ids = {symbols.id_of(v) if isinstance(v, str) else v
               for v in valuation}
        minterms.add(tuple((var, var in ids) for var in support))
    return engine.disj(engine.cube(minterm) for minterm in minterms)


def effective_branches(automaton: Automaton, state: int, engine: BddEngine
                       ) -> list[tuple[int, int, tuple[int, ...]]]:
    """Per-state ``(guard node, dst, actions)`` branches.

    The guards are the cascade's disjoint effective guards, with dead
    branches dropped and same-``(dst, actions)`` branches merged by
    disjunction (first-occurrence order).
    """
    taken = FALSE
    merged: dict[tuple[int, tuple[int, ...]], int] = {}
    order: list[tuple[int, tuple[int, ...]]] = []
    for t in automaton.out(state):
        node = engine.conj(t.conditions)
        effective = engine.diff(node, taken)
        taken = engine.or_(taken, node)
        if effective == FALSE:
            continue  # dead: fully shadowed by higher-priority branches
        key = (t.dst, t.actions)
        if key in merged:
            merged[key] = engine.or_(merged[key], effective)
        else:
            merged[key] = effective
            order.append(key)
    return [(merged[key], key[0], key[1]) for key in order]


def simplified_state_covers(automaton: Automaton, state: int,
                            engine: BddEngine, observed: Iterable | None
                            ) -> list[tuple[tuple, int, tuple[int, ...]]]:
    """Minimized ``(cover, dst, actions)`` branches of one state.

    Covers are minimized against the cascade don't-cares and, when
    ``observed`` valuations are given, the reachability don't-cares;
    the list ends at the first tautology cover (that arm always fires).
    Covers are in the automaton's signal-ID space.
    """
    branches = effective_branches(automaton, state, engine)
    dont_care = FALSE
    if observed is not None:
        support: set[int] = set()
        for node, _, _ in branches:
            support.update(engine.support(node))
        if support:
            care = state_care_node(engine, automaton, observed, support)
            dont_care = engine.not_(care)
    taken = FALSE
    simplified: list[tuple[tuple, int, tuple[int, ...]]] = []
    for node, dst, actions in branches:
        # anything a higher-priority branch takes is free here
        cover = minimal_cover(engine, node, engine.or_(taken, dont_care))
        taken = engine.or_(taken, node)
        simplified.append((cover, dst, actions))
        if any(not cube for cube in cover):
            break  # tautology arm always fires: the rest is dead
    return simplified
