"""The two executors of the automaton kernel.

Two execution disciplines share the interned :class:`~.core.Automaton`
representation and the latching model:

* :class:`TokenExecutor` -- marked-graph (token) semantics for
  concurrent graphs: a state activates once all its incoming
  transitions fired, an active state's transition fires as soon as its
  latched conditions hold, each structurally distinct transition fires
  at most once per activation.  This is the reference semantics of the
  STG (:class:`repro.stg.StgExecutor` is a name-level view of it).  Its
  run state is one immutable triple of ints, with one ``active`` bit
  per state in name order, and it is also the state key of the
  verifier's STG step system; its step is a pure function of that key
  and emits action names.
* :class:`SequentialRunner` -- prioritized Mealy semantics for
  controller FSMs: per clock edge the highest-priority enabled
  transition of the *single* current state fires; outputs are the
  transition's actions plus the Moore outputs of the departed state.
  ``Fsm.step`` / ``Fsm.simulate`` and every FSM inside the synchronous
  composition (:mod:`repro.automata.product`) run on it.

Both work on symbol IDs; views translate names at the edges.  The
token executor's pure step takes a latch mask and emits the action
names it precomputed per transition, so the verifier steps it with no
translation per row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Automaton, AutomataError

__all__ = ["TokenExecutor", "SequentialRunner"]


def _completion_mask(bits: list[int]) -> int:
    """The fired bits that complete a state's in- or out-transitions.

    Activation and deactivation count one firing per *transition*, but
    a structural key fires once: a state with two transitions of one
    key never completes, which the mask -1 encodes (no set of fired
    bits contains it).
    """
    distinct = set(bits)
    return sum(distinct) if len(distinct) == len(bits) else -1


class TokenExecutor:
    """Marked-graph interpreter of one automaton activation.

    ``final`` names the states whose activation completes the run (the
    STG's global DONE state).  Conditions are latched: once a signal was
    asserted during the activation it stays usable, modelling done-flag
    registers.  Within a step, transitions fire to a fixed point -- an
    unguarded chain collapses into one step, matching a controller that
    walks action states faster than the units it observes.

    The run state is the immutable triple of ints ``(latched, active,
    fired)``: one bit per latched signal ID, one bit per active state
    and one bit per structural transition ``(src, dst, actions)`` that
    fired in this activation.  A state's ``active`` bit is its position
    in name order, so ascending bit order is the order in which active
    states fire.  The triple is exactly what determines future
    behaviour, so two configurations reached along different paths are
    equal and the triple serves reachability explorers as a state
    identity.

    :meth:`fire` is the step as a pure function of the run state; it
    emits action *names*.  The executor keeps no run state of its own:
    callers start from :attr:`initial` and carry the key.
    """

    __slots__ = ("automaton", "initial", "_rows", "_final_mask")

    def __init__(self, automaton: Automaton,
                 final: Iterable[int] = ()) -> None:
        if automaton.initial is None:
            raise AutomataError(
                f"automaton {automaton.name!r} has no initial state")
        self.automaton = automaton
        n = len(automaton)
        by_name = sorted(range(n), key=automaton.name_of)
        bit_of = [0] * n
        for position, state in enumerate(by_name):
            bit_of[state] = 1 << position
        key_bits: dict[tuple, int] = {}
        out_bits: list[list[int]] = [[] for _ in range(n)]
        in_bits: list[list[int]] = [[] for _ in range(n)]
        for state in range(n):
            for t in automaton.out(state):
                bit = key_bits.setdefault((t.src, t.dst, t.actions),
                                          1 << len(key_bits))
                out_bits[t.src].append(bit)
                in_bits[t.dst].append(bit)
        out_masks = [_completion_mask(bits) for bits in out_bits]
        in_masks = [_completion_mask(bits) for bits in in_bits]
        names_of = automaton.symbols.names_of
        #: per state, in name order: ``(key bit, condition mask, action
        #: names, out mask, in mask, destination bit)`` in priority order
        self._rows = [tuple((key_bits[(t.src, t.dst, t.actions)],
                             sum(1 << c for c in set(t.conditions)),
                             names_of(t.actions), out_masks[state],
                             in_masks[t.dst], bit_of[t.dst])
                            for t in automaton.out(state))
                      for state in by_name]
        self._final_mask = sum(bit_of[state] for state in set(final))
        self.initial = (0, bit_of[automaton.initial], 0)

    # ------------------------------------------------------------------
    def done_in(self, state: tuple) -> bool:
        """Has a final state activated in run state ``state``?"""
        return state[1] & self._final_mask != 0

    def mask_of(self, signals: Iterable[str]) -> int:
        """The latch bits of the known signal names in ``signals``."""
        return sum(1 << signal
                   for signal in self.automaton.symbols.ids_of(signals))

    def fire(self, state: tuple, signals: int,
             max_rounds: int | None = None) -> tuple[tuple, tuple[str, ...]]:
        """The successor of run state ``state`` after latching the
        signal bits ``signals``, and the emitted action names in firing
        order.

        By default transitions fire to a fixed point -- an unguarded
        chain collapses into one step.  ``max_rounds`` bounds the
        number of firing rounds instead: with ``max_rounds=1`` only the
        states active at the start of the step fire, which exposes the
        intermediate configurations a cycle-stepped controller walks
        through (the granularity the composition verifier compares at).
        In every round the states active at its start fire in name
        order; a state activated during a round fires from the next.
        """
        latched, active, fired = state
        latched |= signals
        emitted: tuple[str, ...] = ()
        rows = self._rows
        rounds = 0
        progress = True
        while progress and (max_rounds is None or rounds < max_rounds):
            progress = False
            rounds += 1
            todo = active
            while todo:
                src = todo & -todo
                todo ^= src
                for bit, conditions, actions, out_mask, in_mask, dst in \
                        rows[src.bit_length() - 1]:
                    if fired & bit or latched & conditions != conditions:
                        continue
                    fired |= bit
                    # the source deactivates when all its
                    # out-transitions fired, the destination activates
                    # when all its in-transitions fired
                    if fired & out_mask == out_mask:
                        active &= ~src
                    if fired & in_mask == in_mask:
                        active |= dst
                    if actions:
                        emitted += actions
                    progress = True
        return (latched, active, fired), emitted


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
