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

:func:`harvest_care_sets` returns, per (FSM, state), every valuation of
that state's guard signals the component can ever see there -- the
*care set*; everything else is a reachability don't-care.  It walks
nothing itself: the care sets are the keys of the step memo of the
composition that built the verifier's step system
(:func:`repro.controllers.verify.controller_exploration`), decoded once
and cached next to it.  The VHDL emitter is the one consumer: the
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

from .system_controller import SystemController
from .verify import controller_exploration

__all__ = ["harvest_care_sets"]

#: ``fsm name -> state name -> frozenset of visible input-name
#: frozensets``, each projected onto the signals that state's guards
#: read.  Shared through the exploration cache: read-only.
CareSets = dict


def harvest_care_sets(controller: SystemController) -> CareSets:
    """Every input valuation each FSM's guards can see, per state, reachably.

    Component ``i`` of a composition step sees ``flags ∪ letter ∪
    internal`` minus its consumed broadcast channels, projected onto
    what its state's guards read, and its step is memoized on exactly
    that valuation (:meth:`repro.automata.SynchronousComposition.step`).
    The verifier's step system steps every reachable configuration
    under every admissible letter, the silent one included, so the
    memo's keys are the care sets; they are read off that exploration,
    shared through its fingerprint cache.
    """
    return controller_exploration(controller)[1]
