"""Reachability don't-cares for controller guards.

The sequencer FSMs guard every hop on the done flags they need -- but
the flags are *latched*: once a producer finished, its flag stays up
until the reset phase clears it.  Inside the composition many of those
guards are therefore partially redundant: a join that waits on two
producers whose first done is always latched by the time the state is
entered only needs the second literal, and a repeated wait on a flag
the chain already consumed is unconditional.  Which literals are
redundant is exactly a *reachability* question, so this module answers
it from the same exploration the composition verifier proves
equivalence on:

* :func:`harvest_care_sets` walks every step of the reachable
  composition under the admissible environment closure
  (:func:`repro.controllers.verify.controller_step_system`) and
  records, per (FSM, state), every valuation of that state's guard
  signals the component can ever see there -- the *care set*;
  everything else is a reachability don't-care.
* :func:`simplify_controller_guards` drops condition literals that are
  constant over the care set (ESPRESSO's *expand* step against an
  explicitly enumerated care set).  Only positive literals are ever
  *removed*, never added or negated, so the result is still a plain
  :class:`~repro.controllers.fsm.Fsm` on the kernel's fast path and
  still monotone in the latched flags.

The simplified controller is behaviourally identical to the original
on every reachable configuration under every admissible environment --
``verify_composition`` re-proves it against the STG in the benchmark
gate -- while its VHDL cascade carries measurably fewer guard
literals.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

from ..automata import AutomataError, SynchronousComposition
from .fsm import Fsm
from .system_controller import SystemController, controller_composition
from .verify import controller_step_system

__all__ = ["harvest_care_sets", "simplify_controller_guards",
           "simplify_fsm_conditions"]

#: ``fsm name -> state name -> set of visible input-name frozensets``,
#: each projected onto the signals that state's guards read.
CareSets = dict


def harvest_care_sets(controller: SystemController) -> CareSets:
    """Every input valuation each FSM's guards can see, per state, reachably.

    Walks the step rows of the composition's step system
    (:func:`repro.controllers.verify.controller_step_system` -- the
    same exploration the verifier proves equivalence on, shared
    through its fingerprint cache): for a step out of a reachable
    configuration under input letter ``L``, component ``i`` sees
    ``flags ∪ L ∪ internal`` minus its consumed broadcast channels --
    the visibility rule of
    :meth:`repro.automata.SynchronousComposition.step`, where latched
    pulses and held command signals are equally visible in the cycle
    they arrive.  The step system has no state bound, so the harvest
    covers every design the verifier proves.

    What is recorded is that valuation projected onto the signals the
    guards out of the component's state read
    (:meth:`repro.automata.SynchronousComposition.guard_inputs`): a
    state's step, its guard rewrite and every literal test on it read
    nothing else, and the projection keeps one entry per distinct guard
    valuation instead of one per distinct flag register.  Each distinct
    valuation bitset is decoded to names once.
    """
    components, config = controller_composition(controller)
    system = controller_step_system(controller)
    # numbers every guard signal as the step system's composition does
    composition = SynchronousComposition(components, config)
    letters = [composition.mask_of(system.letter_of(letter_id))
               for letter_id in range(system.n_letters)]
    observed: list[dict[int, set[int]]] = [{} for _ in components]
    for state in range(len(system)):
        config_key, _env = system.key_of(state)
        states = SynchronousComposition.component_states(config_key)
        arriving = {letters[letter_id]
                    for letter_id, _actions, _succ in system.rows(state)}
        for index, by_state in enumerate(observed):
            by_state.setdefault(states[index], set()).update(
                composition.guard_inputs(index, config_key, mask)
                for mask in arriving)
    names_of = cache(composition.names_of)
    return {component.name: {component.name_of(state):
                             {names_of(mask) for mask in masks}
                             for state, masks in by_state.items()}
            for component, by_state in zip(components, observed)}


def simplify_fsm_conditions(fsm: Fsm, care_of: dict | None) -> Fsm:
    """Drop condition literals that are constant over the care set.

    For each state, a literal of an outgoing transition's conjunction
    is redundant when no *reachable* valuation distinguishes the guard
    with and without it -- i.e. every care valuation that satisfies the
    remaining literals also satisfies the dropped one.  Literals are
    tried in sorted order (deterministic output).  ``care_of`` maps
    state names to the observed valuations; states absent from it (or
    a ``None`` mapping) keep their guards untouched.
    """
    reduced = Fsm(fsm.name)
    for state in fsm.states:
        reduced.add_state(state, fsm.state_outputs.get(state, ()))
    reduced.initial = fsm.initial
    for t in fsm.transitions:
        conditions = t.conditions
        observed = care_of.get(t.src) if care_of else None
        if observed and conditions:
            kept = list(conditions)
            for literal in sorted(conditions):
                rest = [c for c in kept if c != literal]
                required = set(rest)
                # droppable iff no reachable valuation separates the
                # guard with and without the literal
                if all(literal in valuation
                       or not required <= valuation
                       for valuation in observed):
                    kept = rest
            conditions = tuple(kept)
        reduced.add_transition(t.src, t.dst, conditions, t.actions)
    return reduced


def simplify_controller_guards(
        controller: SystemController,
        care_sets: CareSets | None = None
        ) -> tuple[SystemController, dict]:
    """A controller with reachability-reduced guard literals + stats.

    ``care_sets`` defaults to a fresh :func:`harvest_care_sets`;
    should the harvest ever fail, the controller is returned
    unchanged with the reason in the stats -- don't-care simplification
    without the reachability evidence would be unsound.
    """
    if care_sets is None:
        try:
            care_sets = harvest_care_sets(controller)
        except AutomataError as exc:
            stats = {"simplified": False, "reason": str(exc),
                     "literals_before": _literals(controller),
                     "literals_after": _literals(controller)}
            return controller, stats
    phase = simplify_fsm_conditions(
        controller.phase_fsm, care_sets.get(controller.phase_fsm.name))
    sequencers = {
        resource: simplify_fsm_conditions(fsm, care_sets.get(fsm.name))
        for resource, fsm in controller.sequencers.items()}
    simplified = replace(controller, phase_fsm=phase, sequencers=sequencers)
    stats = {"simplified": True, "reason": None,
             "literals_before": _literals(controller),
             "literals_after": _literals(simplified)}
    return simplified, stats


def _literals(controller: SystemController) -> int:
    return sum(len(t.conditions)
               for fsm in controller.fsms for t in fsm.transitions)
