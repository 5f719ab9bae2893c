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

Since the automaton-kernel refactor the semantics itself lives in
:class:`repro.automata.TokenExecutor`; :class:`StgExecutor` is the
name-level view of it.  It keeps two jobs: it is the reference
semantics against which state minimization is verified (identical
action traces for identical signal traces), and it replays the
schedule-sanity check of :mod:`repro.controllers.verify`.  The
co-simulation (:mod:`repro.sim`) does not run it: ``CoSimulation``
drives the synthesized controllers through ``ControllerHarness``,
exactly as the board does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata import TokenExecutor
from .states import StateKind, Stg, StgError

__all__ = ["StgExecutor", "FiredTransition"]


@dataclass(frozen=True)
class FiredTransition:
    """Record of one transition firing (for traces and tests)."""

    step: int
    src: str
    dst: str
    actions: tuple[str, ...]


class StgExecutor:
    """Stepwise interpreter of one STG activation (kernel token view)."""

    def __init__(self, stg: Stg) -> None:
        if stg.initial is None:
            raise StgError("STG has no initial state")
        self.stg = stg
        automaton = stg.to_automaton()
        done_states = [automaton.index_of(s.name)
                       for s in stg.states_of_kind(StateKind.GLOBAL_DONE)]
        self._kernel = TokenExecutor(automaton, final=done_states)
        self._symbols = automaton.symbols
        self._trace_view: list[FiredTransition] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh activation."""
        self._kernel.reset()
        self._trace_view = []

    @property
    def done(self) -> bool:
        """True once the GLOBAL_DONE state has activated."""
        return self._kernel.done

    @property
    def step_count(self) -> int:
        return self._kernel.step_count

    @property
    def latched(self) -> set[str]:
        """Currently latched condition signals, by name."""
        return {self._symbols.name_of(s) for s in self._kernel.latched}

    @property
    def active(self) -> set[str]:
        """Currently active state names."""
        automaton = self._kernel.automaton
        return {automaton.name_of(s) for s in self._kernel.active}

    @property
    def fired_in(self) -> dict[str, int]:
        automaton = self._kernel.automaton
        return {automaton.name_of(i): n
                for i, n in enumerate(self._kernel.fired_in)}

    @property
    def fired_out(self) -> dict[str, int]:
        automaton = self._kernel.automaton
        return {automaton.name_of(i): n
                for i, n in enumerate(self._kernel.fired_out)}

    @property
    def trace(self) -> list[FiredTransition]:
        """The firing trace with state/signal names resolved."""
        kernel_trace = self._kernel.trace
        view = self._trace_view
        if len(view) < len(kernel_trace):
            automaton = self._kernel.automaton
            for firing in kernel_trace[len(view):]:
                view.append(FiredTransition(
                    firing.step, automaton.name_of(firing.src),
                    automaton.name_of(firing.dst),
                    self._symbols.names_of(firing.actions)))
        return view

    # ------------------------------------------------------------------
    def step(self, signals: set[str] | None = None) -> list[str]:
        """Latch ``signals``, fire every enabled transition, return actions.

        Fires transitions to a fixed point within the step, so an
        unguarded chain collapses into one step -- matching a controller
        that traverses action states in consecutive clock cycles faster
        than the units it observes.
        """
        ids = self._symbols.ids_of(signals) if signals else None
        emitted = self._kernel.step(ids)
        return [self._symbols.name_of(a) for a in emitted]

    def run(self, signal_schedule: list[set[str]],
            max_extra_steps: int = 1000) -> list[str]:
        """Feed a signal trace, then run until done; returns all actions."""
        emitted = self._kernel.run(
            [self._symbols.ids_of(signals) for signals in signal_schedule],
            max_extra_steps=max_extra_steps)
        return [self._symbols.name_of(a) for a in emitted]

    def action_trace(self) -> list[tuple[str, ...]]:
        """Per-firing action tuples, in firing order (minimization oracle)."""
        return [self._symbols.names_of(actions)
                for actions in self._kernel.action_trace()]
