"""The two executors of the automaton kernel.

Two execution disciplines share the interned :class:`~.core.Automaton`
representation and the latching model:

* :class:`TokenExecutor` -- marked-graph (token) semantics for
  concurrent graphs: a state activates once all its incoming
  transitions fired, an active state's transition fires as soon as its
  latched conditions hold, each structurally distinct transition fires
  at most once per activation.  This is the reference semantics of the
  STG (:class:`repro.stg.StgExecutor` is a name-level view of it).  Its
  run state is one immutable triple, which is also the state key of
  the verifier's STG step system.
* :class:`SequentialRunner` -- prioritized Mealy semantics for
  controller FSMs: per clock edge the highest-priority enabled
  transition of the *single* current state fires; outputs are the
  transition's actions plus the Moore outputs of the departed state.
  ``Fsm.step`` / ``Fsm.simulate`` and every FSM inside the synchronous
  composition (:mod:`repro.automata.product`) run on it.

Both operate purely on symbol IDs; views translate names at the edges.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Automaton, AutomataError

__all__ = ["TokenExecutor", "SequentialRunner"]


def _completion_mask(bits: list[int]) -> int | None:
    """The fired bits that complete a state's in- or out-transitions.

    Activation and deactivation count one firing per *transition*, but
    a structural key fires once: a state with two transitions of one
    key never completes (None).
    """
    distinct = set(bits)
    return sum(distinct) if len(distinct) == len(bits) else None


class TokenExecutor:
    """Marked-graph interpreter of one automaton activation.

    ``final`` names the states whose activation completes the run (the
    STG's global DONE state).  Conditions are latched: once a signal was
    asserted during the activation it stays usable, modelling done-flag
    registers.  Within a step, transitions fire to a fixed point -- an
    unguarded chain collapses into one step, matching a controller that
    walks action states faster than the units it observes.

    The run state is the immutable triple ``(latched, active, fired)``:
    an int with one bit per latched signal ID, a frozenset of active
    state indices, and an int with one bit per structural transition
    ``(src, dst, actions)`` that fired in this activation.  It is exactly what determines
    future behaviour, so two configurations reached along different
    paths are equal and the triple serves reachability explorers as a
    state identity.
    """

    __slots__ = ("automaton", "final", "_state", "_initial", "_out",
                 "_out_masks", "_in_masks")

    def __init__(self, automaton: Automaton,
                 final: Iterable[int] = ()) -> None:
        if automaton.initial is None:
            raise AutomataError(
                f"automaton {automaton.name!r} has no initial state")
        self.automaton = automaton
        self.final = frozenset(final)
        key_bits: dict[tuple, int] = {}
        out_bits: list[list[int]] = [[] for _ in range(len(automaton))]
        in_bits: list[list[int]] = [[] for _ in range(len(automaton))]
        #: per state: ``(key bit, condition bits, actions, dst)`` in
        #: priority order
        self._out = []
        for state in range(len(automaton)):
            row = []
            for t in automaton.out(state):
                bit = key_bits.setdefault((t.src, t.dst, t.actions),
                                          1 << len(key_bits))
                out_bits[t.src].append(bit)
                in_bits[t.dst].append(bit)
                row.append((bit, sum(1 << c for c in set(t.conditions)),
                            t.actions, t.dst))
            self._out.append(tuple(row))
        self._out_masks = [_completion_mask(bits) for bits in out_bits]
        self._in_masks = [_completion_mask(bits) for bits in in_bits]
        self._initial = (0, frozenset((automaton.initial,)), 0)
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh activation."""
        self._state = self._initial

    @property
    def done(self) -> bool:
        """True once a final state has activated."""
        return self.done_in(self._state)

    def done_in(self, state: tuple) -> bool:
        """Would :attr:`done` hold in run state ``state``?"""
        return not self.final.isdisjoint(state[1])

    def snapshot(self) -> tuple:
        """The run state ``(latched, active, fired)``; it is immutable."""
        return self._state

    def restore(self, state: tuple) -> None:
        """Continue from a :meth:`snapshot`."""
        self._state = state

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
        latched, active, fired = self._state
        for signal in signals or ():
            latched |= 1 << signal
        emitted: list[int] = []
        name_of = self.automaton.name_of
        out_masks, in_masks = self._out_masks, self._in_masks
        rounds = 0
        progress = True
        while progress and (max_rounds is None or rounds < max_rounds):
            progress = False
            rounds += 1
            for state in sorted(active, key=name_of):
                for bit, conditions, actions, dst in self._out[state]:
                    if fired & bit or latched & conditions != conditions:
                        continue
                    fired |= bit
                    # the source deactivates when all its
                    # out-transitions fired, the destination activates
                    # when all its in-transitions fired
                    mask = out_masks[state]
                    if mask is not None and fired & mask == mask:
                        active = active.difference((state,))
                    mask = in_masks[dst]
                    if mask is not None and fired & mask == mask:
                        active = active.union((dst,))
                    emitted.extend(actions)
                    progress = True
        self._state = (latched, active, fired)
        return emitted


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
