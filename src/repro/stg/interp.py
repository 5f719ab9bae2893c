"""Token-based execution semantics of STGs.

The STG is concurrent: the global reset state forks into one chain per
processing unit, X and D are synchronisation barriers.  Execution is
marked-graph semantics:

* a state *activates* once all its incoming transitions have fired
  (the initial state starts active);
* an active state's outgoing transition fires as soon as its condition
  signals are all asserted (conditions are *latched*: once a signal was
  seen asserted during the activation it stays usable, modelling the
  controller's done-flag registers);
* firing emits the transition's actions;
* the activation completes when the GLOBAL_DONE state activates.

The semantics itself lives in :class:`repro.automata.TokenExecutor`;
:class:`StgExecutor` is the name-level view of it.  Its one job is to
be the reference semantics against which state minimization is
verified (identical emitted actions for identical signal traces); the
tests also replay the sampled closed-loop schedule check through it.
Nothing in the verifier runs it: the verifier's STG step system drives
the kernel executor directly and checks the schedule on that system.
The co-simulation (:mod:`repro.sim`) does not run it: ``CoSimulation``
drives the synthesized controllers through ``ControllerHarness``,
exactly as the board does.
"""

from __future__ import annotations

from ..automata import TokenExecutor
from .states import StateKind, Stg, StgError

__all__ = ["StgExecutor"]


class StgExecutor:
    """Stepwise interpreter of one STG activation (kernel token view).

    ``emitted`` records every action name emitted since the last
    :meth:`reset`, in firing order.
    """

    def __init__(self, stg: Stg) -> None:
        if stg.initial is None:
            raise StgError("STG has no initial state")
        automaton = stg.to_automaton()
        done_states = [automaton.index_of(s.name)
                       for s in stg.states_of_kind(StateKind.GLOBAL_DONE)]
        self._kernel = TokenExecutor(automaton, final=done_states)
        self._symbols = automaton.symbols
        self.emitted: list[str] = []

    def reset(self) -> None:
        """Start a fresh activation."""
        self._kernel.reset()
        self.emitted = []

    @property
    def done(self) -> bool:
        """True once the GLOBAL_DONE state has activated."""
        return self._kernel.done

    def step(self, signals: set[str] | None = None) -> list[str]:
        """Latch ``signals``, fire every enabled transition, return actions.

        Fires transitions to a fixed point within the step, so an
        unguarded chain collapses into one step -- matching a controller
        that traverses action states in consecutive clock cycles faster
        than the units it observes.
        """
        ids = self._symbols.ids_of(signals) if signals else None
        actions = list(self._symbols.names_of(self._kernel.step(ids)))
        self.emitted.extend(actions)
        return actions
