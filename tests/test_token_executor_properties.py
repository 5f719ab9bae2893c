"""The token executor against verbatim copies of the ones it replaced.

:class:`repro.automata.TokenExecutor` keeps its run state as one
immutable triple of ints ``(latched, active, fired)``, with one
``active`` bit per state in name order, and steps it as a pure
function (``fire``).  Two earlier executors are copied below verbatim:

* ``ParentTokenExecutor`` kept mutable sets, per-state firing counters
  and a firing log, and snapshotted all of them;
* ``FrozensetTokenExecutor`` kept the same immutable triple but with
  ``active`` as a frozenset of state indices, sorted by state name on
  every step, and it emitted action IDs that ``frozenset_stg_stepper``
  mapped back to names.

Their behaviour must be identical:

* ``test_executor_matches_the_parent_executor`` drives all three over
  generated automata (fork/join shapes, duplicate structural
  transitions that differ only in their conditions, self-loops, an
  initial state with in-edges, several final states) with random
  signal streams under ``max_rounds=None`` and ``max_rounds=1``,
  snapshots, restores and resets.  The new executor is stepped through
  ``fire`` on a run state the test carries (a snapshot is that key, a
  reset is ``initial``).  After every step the emitted actions and
  ``done`` agree, the parent's snapshots map onto the new ones one to
  one, and the frozenset executor's run state is the new one with
  ``active`` decoded from name-order bits.  The example budget
  follows the active hypothesis profile (``tests/conftest.py``).
* the ``*_step_system*`` tests build the verifier's STG step system of
  every ``workload_suite(20, seed=5)`` design and of ``random_200_200``
  from the new executor and from each copy and compare every row
  (letter, actions, successor index) and the letter order.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_composition_properties import build_design, random_200_200_stg
from test_controller_stepper_properties import ParentAdmissibleEnvironment
from repro.automata import (AutomataError, Automaton, AutomatonBuilder,
                            StepSystem, TokenExecutor)
from repro.controllers.verify import (_RESTART, _AdmissibleEnvironment,
                                     _stg_stepper)
from repro.stg import StateKind, Stg, build_stg, minimize_stg
from repro.workloads import workload_suite

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)


# ----------------------------------------------------------------------
# the parent executor, verbatim
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Firing:
    """Record of one transition firing (trace entry)."""

    step: int
    src: int
    dst: int
    actions: tuple[int, ...]


class ParentTokenExecutor:
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


def parent_stg_stepper(stg):
    """The parent's ``_stg_stepper``, verbatim but for the executor and
    the set-based environment."""
    automaton = stg.to_automaton()
    final = frozenset(automaton.index_of(s.name)
                      for s in stg.states_of_kind(StateKind.GLOBAL_DONE))
    executor = ParentTokenExecutor(automaton, final=final)
    symbols = automaton.symbols

    def completed(snapshot: tuple) -> bool:
        return executor.done_in(snapshot)

    def step(snapshot: tuple, letter: frozenset):
        if _RESTART in letter:
            executor.reset()
            return executor.snapshot(), ()
        executor.restore(snapshot)
        emitted = executor.step(symbols.ids_of(letter), max_rounds=1)
        return executor.snapshot(), tuple(symbols.names_of(emitted))

    return executor.snapshot(), step, ParentAdmissibleEnvironment(completed)


# ----------------------------------------------------------------------
# the frozenset executor, verbatim
# ----------------------------------------------------------------------
def _completion_mask(bits: list[int]) -> int | None:
    """The fired bits that complete a state's in- or out-transitions.

    Activation and deactivation count one firing per *transition*, but
    a structural key fires once: a state with two transitions of one
    key never completes (None).
    """
    distinct = set(bits)
    return sum(distinct) if len(distinct) == len(bits) else None


class FrozensetTokenExecutor:
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


def frozenset_stg_stepper(stg: Stg):
    """The frozenset executor's ``_stg_stepper``, verbatim but for the
    executor's name."""
    automaton = stg.to_automaton()
    final = frozenset(automaton.index_of(s.name)
                      for s in stg.states_of_kind(StateKind.GLOBAL_DONE))
    executor = FrozensetTokenExecutor(automaton, final=final)
    symbols = automaton.symbols

    def step(state: tuple, letter: frozenset):
        if _RESTART in letter:
            executor.reset()
            return executor.snapshot(), ()
        executor.restore(state)
        emitted = executor.step(symbols.ids_of(letter), max_rounds=1)
        return executor.snapshot(), symbols.names_of(emitted)

    return (executor.snapshot(), step,
            _AdmissibleEnvironment(executor.done_in,
                                   automaton.output_names()))


# ----------------------------------------------------------------------
# generated automata and signal streams
# ----------------------------------------------------------------------
SIGNALS = ("a", "b", "c")
ACTIONS = ("x", "y")


@st.composite
def shapes(draw):
    """``(n_states, edges, finals)``; an edge is ``(src, dst,
    conditions, actions)``.  State 0 is the initial state."""
    n = draw(st.integers(2, 5))
    state = st.integers(0, n - 1)
    # few states and short action tuples, so that structural keys recur
    edges = draw(st.lists(st.tuples(
        state, state,
        st.lists(st.sampled_from(SIGNALS), max_size=2, unique=True)
        .map(tuple),
        st.lists(st.sampled_from(ACTIONS), max_size=1).map(tuple)),
        min_size=1, max_size=12))
    finals = draw(st.lists(state, max_size=2, unique=True).map(tuple))
    return n, tuple(edges), finals


#: ``("step", signals, max_rounds)``, ``("snapshot",)``,
#: ``("restore", which)`` (an earlier snapshot, modulo their count) or
#: ``("reset",)``.
OPS = st.lists(st.one_of(
    st.tuples(st.just("step"),
              st.lists(st.sampled_from(SIGNALS), max_size=2, unique=True)
              .map(tuple),
              st.sampled_from((None, 1))),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
    st.tuples(st.just("reset"))), max_size=25)


def build(shape) -> Automaton:
    n, edges, _finals = shape
    builder = AutomatonBuilder("generated")
    for index in range(n):
        builder.add_state(f"s{index}")
    for src, dst, conditions, actions in edges:
        builder.add_transition(f"s{src}", f"s{dst}", conditions=conditions,
                               actions=actions)
    return builder.build(initial="s0")


FORK_JOIN = (4, ((0, 1, (), ("x",)), (0, 2, (), ("y",)),
                 (1, 3, ("a",), ()), (2, 3, ("b",), ())), (3,))
#: two transitions of one structural key: s0 never deactivates, s1
#: never activates (one firing against two in-transitions)
DUPLICATE_KEYS = (3, ((0, 1, ("a",), ("x",)), (0, 1, ("b",), ("x",)),
                      (1, 2, (), ("y",)), (0, 2, ("c",), ())), (1, 2))
#: the last firing out of s0 is its self-loop, which also completes
#: its in-transitions: s0 deactivates, then activates again; s2 never
#: activates (its own loop is one of its in-transitions)
SELF_LOOPS = (3, ((0, 1, (), ("x",)), (0, 0, ("c",), ("y",)),
                  (1, 0, (), ()), (1, 2, ("b",), ("x",)),
                  (2, 2, (), ("y",))), (0,))
INITIAL_IN_EDGES = (3, ((0, 1, (), ("x",)), (1, 0, ("a",), ("y",)),
                        (0, 2, ("b",), ()), (2, 0, (), ("x",))), (0,))
SEVERAL_FINALS = (4, ((0, 1, ("a",), ("x",)), (0, 2, ("b",), ("y",)),
                      (1, 3, (), ()), (2, 3, ("c",), ())), (1, 2, 3))
STREAM = (("step", (), 1), ("snapshot",), ("step", ("a",), 1),
          ("step", ("b", "c"), None), ("restore", 0), ("step", ("c",), None),
          ("reset",), ("step", ("a", "b"), None), ("step", ("c",), 1))


@PROPERTY
@given(shape=shapes(), ops=OPS)
@example(shape=FORK_JOIN, ops=STREAM)
@example(shape=DUPLICATE_KEYS, ops=STREAM)
@example(shape=SELF_LOOPS, ops=STREAM)
@example(shape=INITIAL_IN_EDGES, ops=STREAM)
@example(shape=SEVERAL_FINALS, ops=STREAM)
def test_executor_matches_the_parent_executor(shape, ops):
    automaton = build(shape)
    finals = [automaton.index_of(f"s{f}") for f in shape[2]]
    parent = ParentTokenExecutor(automaton, final=finals)
    frozen = FrozensetTokenExecutor(automaton, final=finals)
    executor = TokenExecutor(automaton, final=finals)
    symbols = automaton.symbols
    # state index of each ``active`` bit: bit order is name order
    by_name = sorted(range(len(automaton)), key=automaton.name_of)
    snapshots: list[tuple] = []
    to_new: dict[tuple, tuple] = {}
    to_parent: dict[tuple, tuple] = {}
    state = executor.initial

    def same_configuration():
        old, new = parent.snapshot(), state
        latched, active, _fired_in, _fired_out, fired_keys = old
        assert new[0] == sum(1 << signal for signal in latched)
        assert {by_name[bit] for bit in range(len(by_name))
                if new[1] >> bit & 1} == active
        assert new[2].bit_count() == len(fired_keys)
        assert to_new.setdefault(old, new) == new
        assert to_parent.setdefault(new, old) == old
        assert executor.done_in(state) == parent.done == frozen.done
        was = frozen.snapshot()
        assert new == (was[0], sum(1 << by_name.index(state)
                                   for state in was[1]), was[2])

    same_configuration()
    for op in ops:
        if op[0] == "step":
            signals = symbols.ids_of(op[1])
            state, emitted = executor.fire(state, executor.mask_of(op[1]),
                                           max_rounds=op[2])
            assert emitted == symbols.names_of(
                parent.step(signals, max_rounds=op[2]))
            assert emitted == symbols.names_of(
                frozen.step(signals, max_rounds=op[2]))
        elif op[0] == "snapshot":
            snapshots.append((parent.snapshot(), frozen.snapshot(), state))
        elif op[0] == "restore" and snapshots:
            old, was, state = snapshots[op[1] % len(snapshots)]
            parent.restore(old)
            frozen.restore(was)
        elif op[0] == "reset":
            parent.reset()
            frozen.reset()
            state = executor.initial
        same_configuration()


# ----------------------------------------------------------------------
# the verifier's STG step systems
# ----------------------------------------------------------------------
def suite_stgs():
    for spec in workload_suite(20, seed=5):
        yield minimize_stg(build_stg(build_design(spec)[3]))[0]


def assert_same_rows(stg, reference_stepper):
    reference = StepSystem("reference", *reference_stepper(stg))
    system = StepSystem("new", *_stg_stepper(stg))
    assert len(system) == len(reference)
    assert system.n_letters == reference.n_letters
    for letter in range(reference.n_letters):
        assert system.letter_of(letter) == reference.letter_of(letter)
    for state in range(len(reference)):
        assert system.rows(state) == reference.rows(state), state
    return len(system)


def test_stg_step_systems_match_the_parent_executor():
    # the STG half of the 2920 states test_suite_oracle_input_is_pinned counts
    assert sum(assert_same_rows(stg, parent_stg_stepper)
               for stg in suite_stgs()) == 1450


def test_random_200_200_stg_step_system_matches_the_parent_executor():
    assert assert_same_rows(random_200_200_stg(), parent_stg_stepper) == 8998


def test_stg_step_systems_match_the_frozenset_executor():
    assert sum(assert_same_rows(stg, frozenset_stg_stepper)
               for stg in suite_stgs()) == 1450


def test_random_200_200_stg_step_system_matches_the_frozenset_executor():
    assert assert_same_rows(random_200_200_stg(),
                            frozenset_stg_stepper) == 8998
