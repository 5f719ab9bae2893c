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
equivalence on.

:func:`harvest_care_sets` walks every step of the reachable composition
under the admissible environment closure
(:func:`repro.controllers.verify.controller_step_system`) and records,
per (FSM, state), every valuation of that state's guard signals the
component can ever see there -- the *care set*; everything else is a
reachability don't-care.  The VHDL emitter is the one consumer: the
flow's codegen stage passes each FSM's care set to
``fsm_to_vhdl(simplify=True, care_of=...)``, which re-covers every
state's guard cascade against it (:mod:`repro.automata.simplify`).

What is proved and what is checked: ``verify_composition`` proves the
*unsimplified* controller trace-equivalent to its STG.  The emitted
cascades are not proved; they are checked against the original cascade
on every harvested care valuation (the guard-simplification bench's
``rewrite`` gate and ``tests/test_verify_differential.py``), their
bytes are pinned, and the flow co-simulates them against the golden
interpreter.
"""

from __future__ import annotations

from functools import cache

from ..automata import SynchronousComposition
from .system_controller import SystemController, controller_composition
from .verify import controller_step_system

__all__ = ["harvest_care_sets"]

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
