"""The one step/trace executor of the automaton kernel.

Two execution disciplines share the interned :class:`~.core.Automaton`
representation, the latching model and the trace format:

* :class:`TokenExecutor` -- marked-graph (token) semantics for
  concurrent graphs: a state activates once all its incoming
  transitions fired, an active state's transition fires as soon as its
  latched conditions hold, each structurally distinct transition fires
  at most once per activation.  This is the reference semantics of the
  STG (:class:`repro.stg.StgExecutor` is a name-level view of it).
* :class:`SequentialRunner` -- prioritized Mealy semantics for
  controller FSMs: per clock edge the highest-priority enabled
  transition of the *single* current state fires; outputs are the
  transition's actions plus the Moore outputs of the departed state.
  ``Fsm.step`` / ``Fsm.simulate`` and every FSM inside the synchronous
  composition (:mod:`repro.automata.product`) run on it.

Both operate purely on symbol IDs; views translate names at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Automaton, AutomataError

__all__ = ["Firing", "TokenExecutor", "SequentialRunner"]


@dataclass(frozen=True)
class Firing:
    """Record of one transition firing (trace entry)."""

    step: int
    src: int
    dst: int
    actions: tuple[int, ...]


class TokenExecutor:
    """Marked-graph interpreter of one automaton activation.

    ``final`` names the states whose activation completes the run (the
    STG's global DONE state).  Conditions are latched: once a signal was
    asserted during the activation it stays usable, modelling done-flag
    registers.  Within a step, transitions fire to a fixed point -- an
    unguarded chain collapses into one step, matching a controller that
    walks action states faster than the units it observes.
    """

    __slots__ = ("automaton", "final", "latched", "active", "fired_in",
                 "fired_out", "trace", "step_count", "_fired_keys")

    def __init__(self, automaton: Automaton,
                 final: Iterable[int] = ()) -> None:
        if automaton.initial is None:
            raise AutomataError(
                f"automaton {automaton.name!r} has no initial state")
        self.automaton = automaton
        self.final = frozenset(final)
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh activation."""
        self.latched: set[int] = set()
        self.active: set[int] = {self.automaton.initial}
        self.fired_in = [0] * len(self.automaton)
        self.fired_out = [0] * len(self.automaton)
        self.trace: list[Firing] = []
        self.step_count = 0
        self._fired_keys: set[tuple] = set()

    @property
    def done(self) -> bool:
        """True once a final state has activated."""
        return any(s in self.active for s in self.final)

    def snapshot(self) -> tuple:
        """Hashable snapshot of the activation state.

        Captures exactly what determines future behaviour -- latched
        signals, active states, firing counters and the fired-once
        markers.  The trace and step counter are diagnostics, not
        semantics, so they are excluded (and reset by :meth:`restore`);
        two configurations reached along different paths therefore
        snapshot equal, which is what lets reachability explorers use
        snapshots as state identities.
        """
        return (frozenset(self.latched), frozenset(self.active),
                tuple(self.fired_in), tuple(self.fired_out),
                frozenset(self._fired_keys))

    def done_in(self, snapshot: tuple) -> bool:
        """Would :attr:`done` hold in ``snapshot``, without restoring it?

        Lives next to :meth:`snapshot` on purpose: callers must not
        index into the snapshot tuple themselves.
        """
        _, active, _, _, _ = snapshot
        return any(s in active for s in self.final)

    def restore(self, snapshot: tuple) -> None:
        """Load a :meth:`snapshot`; trace/step diagnostics start fresh."""
        latched, active, fired_in, fired_out, fired_keys = snapshot
        self.latched = set(latched)
        self.active = set(active)
        self.fired_in = list(fired_in)
        self.fired_out = list(fired_out)
        self._fired_keys = set(fired_keys)
        self.trace = []
        self.step_count = 0

    # ------------------------------------------------------------------
    def step(self, signals: Iterable[int] | None = None,
             max_rounds: int | None = None) -> list[int]:
        """Latch ``signals``, fire enabled transitions, return the
        emitted action IDs in firing order.

        By default transitions fire to a fixed point -- an unguarded
        chain collapses into one step.  ``max_rounds`` bounds the
        number of firing rounds instead: with ``max_rounds=1`` only the
        states active at the start of the step fire, which exposes the
        intermediate configurations a cycle-stepped controller walks
        through (the granularity the composition verifier compares at).
        """
        if signals:
            self.latched.update(signals)
        self.step_count += 1
        emitted: list[int] = []
        automaton = self.automaton
        latched = self.latched
        name_of = automaton.name_of
        rounds = 0
        progress = True
        while progress and (max_rounds is None or rounds < max_rounds):
            progress = False
            rounds += 1
            for state in sorted(self.active, key=name_of):
                for transition in automaton.out(state):
                    key = (transition.src, transition.dst,
                           transition.actions)
                    if key in self._fired_keys:
                        continue
                    if not all(c in latched
                               for c in transition.conditions):
                        continue
                    self._fire(transition, key)
                    emitted.extend(transition.actions)
                    progress = True
        return emitted

    def run(self, signal_schedule: Sequence[Iterable[int]],
            max_extra_steps: int = 1000) -> list[int]:
        """Feed a signal trace, then run until done; returns all actions."""
        actions: list[int] = []
        for signals in signal_schedule:
            actions.extend(self.step(signals))
        extra = 0
        while not self.done and extra < max_extra_steps:
            before = len(self.trace)
            actions.extend(self.step())
            extra += 1
            if len(self.trace) == before:
                break  # no progress without new signals
        return actions

    # ------------------------------------------------------------------
    def _fire(self, transition, key: tuple) -> None:
        self.trace.append(Firing(self.step_count, transition.src,
                                 transition.dst, transition.actions))
        self._fired_keys.add(key)
        self.fired_out[transition.src] += 1
        self.fired_in[transition.dst] += 1
        # source deactivates when all its out-transitions fired
        if self.fired_out[transition.src] == \
                len(self.automaton.out(transition.src)):
            self.active.discard(transition.src)
        # destination activates when all its in-transitions fired
        if self.fired_in[transition.dst] == \
                self.automaton.in_count(transition.dst):
            self.active.add(transition.dst)

    def action_trace(self) -> list[tuple[int, ...]]:
        """Per-firing action tuples, in firing order (minimization oracle)."""
        return [f.actions for f in self.trace if f.actions]


class SequentialRunner:
    """Prioritized Mealy stepping over a single current state.

    Stateless with respect to the run: callers carry the current state
    index, so one runner instance serves any number of concurrent
    simulations of the same automaton.
    """

    __slots__ = ("automaton",)

    def __init__(self, automaton: Automaton) -> None:
        self.automaton = automaton

    def step(self, state: int,
             inputs: set[int]) -> tuple[int, tuple[int, ...]]:
        """One clock edge: the highest-priority enabled transition fires.

        Returns the next state and the asserted outputs (Mealy actions
        plus the Moore outputs of the *current* state), sorted by signal
        name.  With no enabled transition the machine stays put.
        """
        automaton = self.automaton
        moore = automaton.outputs_of(state)
        for transition in automaton.out(state):
            if transition.enabled(inputs):
                return transition.dst, self._sorted_by_name(
                    set(transition.actions) | set(moore))
        return state, self._sorted_by_name(set(moore))

    def trace(self, state: int, input_trace: Sequence[Iterable[int]]
              ) -> list[tuple[int, tuple[int, ...]]]:
        """Run from ``state``; one (state, outputs) pair per cycle."""
        log: list[tuple[int, tuple[int, ...]]] = []
        for inputs in input_trace:
            state, outputs = self.step(state, set(inputs))
            log.append((state, outputs))
        return log

    def _sorted_by_name(self, sids: set[int]) -> tuple[int, ...]:
        name_of = self.automaton.symbols.name_of
        return tuple(sorted(sids, key=name_of))
