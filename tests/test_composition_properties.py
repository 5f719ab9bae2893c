"""The live controller composition against a stepping reference.

:class:`repro.automata.SynchronousComposition` runs every cycle as
one memoized step of its live configuration key.  The reference here
is :func:`repro.automata.product.composition_stepper`, which steps a
configuration key it is handed.  Hypothesis drives both with the same
random pulse and ``held`` streams over the controller compositions of
generated designs, with ``reset()`` mid-stream and runs of repeated
cycles, and checks that after every cycle the decoded configuration,
the returned actions and the actions log agree, also with
``ParentComposition`` (below).  The example budget follows the active
hypothesis profile (``tests/conftest.py``).

The composition also keeps its configuration as one key of ints and
memoizes each component's step on the signals its current state's
guards read.  ``ParentComposition`` below is a self-contained
verbatim copy of the set-state composition and of the ``cycle`` and
``SequentialRunner.step`` that stepped every component on the whole
input set; ``decoded`` turns a key back into its set form.  And
``test_memoized_cycle_matches_the_unmemoized_cycle`` drives both over
generated controllers (random guards, actions, Moore outputs, a
consume-once ``go`` and a flush state) with random pulse and ``held``
streams and mid-stream resets.  After every cycle it also checks
``quiet_ahead()`` both ways: it equals the pure query ``step(key) ==
(key, ())`` and what an empty cycle of ``ParentComposition`` does
(change nothing and return nothing).  ``TestQuietCycles`` pins that
exact rule on one-state machines: it needs no earlier cycle.

``test_suite_cosim_is_pinned`` pins the sha256 of what the
co-simulator computes on ``workload_suite(20, seed=5)``, including a
streamed restart, so a cosim speed-up must keep every output, counter
and trace entry.
"""

import hashlib
import random
from functools import lru_cache

from typing import Iterable, Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata import (Automaton, AutomatonBuilder, CompositionConfig,
                            SynchronousComposition, internal_signals)
from repro.automata.product import composition_stepper
from repro.comm import refine_communication
from repro.controllers import (controller_composition,
                               synthesize_system_controller)
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.sim import CoSimulation
from repro.stg import build_stg, minimize_stg
from repro.workloads import scale_suite, stimuli_for, workload_suite

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)

#: Designs whose controllers the property draws from.
POOL_SIZE = 8


def build_design(spec):
    """``(graph, board, partition, schedule, plan, controller)``."""
    graph = spec.build()
    board = minimal_board()
    result = GreedyPartitioner().partition(PartitioningProblem(graph, board))
    stg, _ = minimize_stg(build_stg(result.schedule))
    plan = refine_communication(result.schedule, board)
    return (graph, board, result.partition, result.schedule, plan,
            synthesize_system_controller(stg))


def random_200_200_stg():
    """The ``random_200_200`` STG as ``bench_verify_composition`` maps it."""
    board = cool_board()
    spec, = scale_suite((200,))
    graph = spec.build()
    rng = random.Random(spec.nodes)
    mapping = {node.name: rng.choice(board.resource_names)
               for node in graph.internal_nodes()}
    partition = from_mapping(graph, mapping, board.fpga_names,
                             board.processor_names)
    schedule = list_schedule(partition, CostModel(graph, board))
    return minimize_stg(build_stg(schedule))[0]


@lru_cache(maxsize=None)
def compositions():
    """``(components, config, external inputs)`` of the pool designs."""
    pool = []
    for spec in workload_suite(POOL_SIZE, seed=11):
        components, config = controller_composition(build_design(spec)[-1])
        hidden = set(config.internal)
        inputs = sorted({name for c in components
                         for name in c.input_names()} - hidden)
        pool.append((components, config, tuple(inputs)))
    return tuple(pool)


@st.composite
def drives(draw):
    """A pool design, its ``held`` signals and a cycle stream.

    Each stream entry is ``None`` (a ``reset()``) or ``(pulses, held,
    repeats)``: the same cycle driven ``repeats`` times in a row.  A
    cycle may pulse every non-held input at once, so streams also run
    activations to the done state, where a held ``restart`` re-arms
    them.
    """
    index = draw(st.integers(0, POOL_SIZE - 1))
    inputs = compositions()[index][2]
    held_names = set(draw(st.sets(st.sampled_from(
        [name for name in inputs if name != "restart"]), max_size=2)))
    if draw(st.booleans()):
        held_names.add("restart")
    pulse_names = sorted(set(inputs) - held_names)
    pulses = st.one_of(st.sets(st.sampled_from(pulse_names), max_size=3),
                       st.just(set(pulse_names)))
    held = st.sets(st.sampled_from(sorted(held_names)), max_size=2) \
        if held_names else st.just(set())
    cycle = st.tuples(pulses, held, st.integers(1, 6))
    stream = draw(st.lists(st.one_of(st.none(), cycle, cycle, cycle,
                                     cycle), max_size=40))
    return index, frozenset(held_names), stream


@PROPERTY
@given(drives())
def test_live_composition_matches_restoring_reference(case):
    index, held_names, stream = case
    components, config, _ = compositions()[index]
    live = SynchronousComposition(components, config)
    parent = ParentComposition(components, config)
    composition, step = composition_stepper(components, config, held_names)
    initial = composition.initial
    reference, reference_log = initial, []
    for entry in stream:
        if entry is None:
            live.reset()
            parent.reset()
            reference, reference_log = initial, []
            assert decoded(live, live.configuration()) == \
                decoded(live, reference)
            continue
        pulses, held, repeats = entry
        for _ in range(repeats):
            actions = live.cycle(pulses=set(pulses), held=set(held))
            assert actions == parent.cycle(pulses=set(pulses),
                                           held=set(held))
            assert decoded(live, live.configuration()) == \
                parent.configuration()
            reference, expected = step(reference,
                                       frozenset(pulses) | frozenset(held))
            if expected:
                reference_log.append(expected)
            # a controller's pulses are all guard signals, so the live
            # composition and the stepper's number every signal alike
            assert decoded(live, live.configuration()) == \
                decoded(live, reference)
            assert tuple(actions) == expected
            assert live.actions_log == reference_log


def decoded(composition: SynchronousComposition, key: tuple) -> tuple:
    """A configuration key of ``composition`` in the parent's set form
    ``(states, flags, internal, consumed sets)``."""
    states, flags, internal, consumed = key
    once = frozenset(composition.config.consume_once)
    return (states, composition.names_of(flags),
            composition.names_of(internal),
            tuple(once if consumed >> index & 1 else frozenset()
                  for index in range(len(states))))


class ParentRunner:
    """Verbatim copy of ``SequentialRunner`` before the memoized cycle."""

    __slots__ = ("automaton",)

    def __init__(self, automaton: Automaton) -> None:
        self.automaton = automaton

    def step(self, state: int,
             inputs: set[int]) -> tuple[int, tuple[int, ...]]:
        automaton = self.automaton
        moore = automaton.outputs_of(state)
        for transition in automaton.out(state):
            if transition.enabled(inputs):
                return transition.dst, self._sorted_by_name(
                    set(transition.actions) | set(moore))
        return state, self._sorted_by_name(set(moore))

    def _sorted_by_name(self, sids: set[int]) -> tuple[int, ...]:
        name_of = self.automaton.symbols.name_of
        return tuple(sorted(sids, key=name_of))


class ParentComposition:
    """The set-state composition whose ``cycle`` steps every component
    on the whole visible input set: verbatim copies of its state
    (``__init__``, ``reset``, ``configuration``) and of that
    ``cycle``."""

    def __init__(self, components: Sequence[Automaton],
                 config: CompositionConfig | None = None) -> None:
        self.components = tuple(components)
        if config is None:
            config = CompositionConfig(internal=internal_signals(components))
        self.config = config
        self._runners = [ParentRunner(c) for c in self.components]
        self._internal = frozenset(config.internal)
        self._consume_once = frozenset(config.consume_once)
        self.reset()

    def reset(self) -> None:
        self.states: list[int] = [c.initial for c in self.components]
        #: latched external pulses (the done-flag register)
        self.flags: set[str] = set()
        #: latched hidden channel signals
        self.internal: set[str] = set()
        #: per-component consumed broadcast channels
        self.consumed: list[set[str]] = [set() for _ in self.components]
        self.actions_log: list[tuple[str, ...]] = []
        #: ``(held, external actions)`` of the last quiet cycle, or None
        self._quiet: tuple[frozenset[str], tuple[str, ...]] | None = None

    def configuration(self) -> tuple:
        """Hashable snapshot of the composite configuration."""
        return (tuple(self.states), frozenset(self.flags),
                frozenset(self.internal),
                tuple(frozenset(c) for c in self.consumed))

    def cycle(self, pulses: Iterable[str] | None = None,
              held: Iterable[str] | None = None) -> list[str]:
        grew = False
        if pulses:
            size = len(self.flags)
            self.flags.update(pulses)
            grew = len(self.flags) != size
        held = frozenset(held or ())
        quiet = self._quiet
        if quiet is not None and not grew and quiet[0] == held:
            if quiet[1]:
                self.actions_log.append(quiet[1])
            return list(quiet[1])
        inputs = self.flags | self.internal | held

        changed = False
        emitted: list[str] = []
        for index, (component, runner) in enumerate(
                zip(self.components, self._runners)):
            visible = inputs - self.consumed[index]
            state = self.states[index]
            new_state, out_ids = runner.step(
                state, component.symbols.ids_of(visible))
            if new_state != state:
                changed = True
                if state == component.initial:
                    self.consumed[index] |= self._consume_once
                self.states[index] = new_state
            emitted.extend(component.symbols.names_of(out_ids))

        external: list[str] = []
        for action in emitted:
            if action == self.config.clear_action:
                changed = changed or bool(self.flags)
                self.flags.clear()
            elif action in self._internal:
                changed = changed or action not in self.internal
                self.internal.add(action)
            else:
                external.append(action)

        flush = self.config.flush_component
        if flush is not None:
            name = self.components[flush].name_of(self.states[flush])
            if name in self.config.flush_states:
                changed = changed or bool(self.internal) \
                    or any(self.consumed)
                self.internal.clear()
                for consumed in self.consumed:
                    consumed.clear()
        self._quiet = None if changed else (held, tuple(external))
        if external:
            self.actions_log.append(tuple(external))
        return external


#: Guard signals, actions and Moore outputs of the generated machines:
#: ``go`` and ``ch`` are internal channels (``go`` consumed once per
#: activation), ``clear_flags`` clears the flag register, ``a``/``b``
#: are latched pulses and ``restart`` arrives held.
GUARD_SIGNALS = ("a", "b", "ch", "go", "restart")
ACTIONS = ("ch", "clear_flags", "go", "x", "y")
MOORE = ("ch", "x", "y")


@st.composite
def machines(draw, guard_signals=GUARD_SIGNALS, action_names=ACTIONS,
             moore_outputs=MOORE):
    """One component: ``(state count, transitions, Moore outputs)``,
    each transition ``(src, dst, conditions, actions)``."""
    count = draw(st.integers(1, 4))
    state = st.integers(0, count - 1)
    names = st.lists(st.sampled_from(guard_signals), max_size=3,
                     unique=True).map(lambda xs: tuple(sorted(xs)))
    actions = st.lists(st.sampled_from(action_names), max_size=2,
                       unique=True).map(lambda xs: tuple(sorted(xs)))
    transitions = draw(st.lists(st.tuples(state, state, names, actions),
                                max_size=8))
    moore = draw(st.lists(st.sampled_from(
        ((),) + tuple((m,) for m in moore_outputs)),
        min_size=count, max_size=count))
    return count, tuple(transitions), tuple(moore)


def built(index, machine) -> Automaton:
    count, transitions, moore = machine
    builder = AutomatonBuilder(f"m{index}")
    for state in range(count):
        builder.add_state(f"s{state}", outputs=moore[state])
    for src, dst, conditions, actions in transitions:
        builder.add_transition(f"s{src}", f"s{dst}", conditions=conditions,
                               actions=actions)
    return builder.build()


def flush_config(components, flush_state) -> CompositionConfig:
    """The generated composition's wiring: internal ``ch`` and ``go``,
    ``go`` consumed once, ``clear_flags``, and state ``s<flush_state>``
    of the first component as the flush state when it has one."""
    flush = flush_state if 0 <= flush_state < components[0][0] else None
    return CompositionConfig(
        internal=("ch", "go"), clear_action="clear_flags",
        consume_once=("go",), flush_component=None if flush is None else 0,
        flush_states=() if flush is None else (f"s{flush}",))


#: a ``(pulses, held, repeats)`` cycle, or ``None`` for a ``reset()``
stream_entries = st.one_of(
    st.none(),
    st.tuples(st.sets(st.sampled_from(("a", "b")), max_size=2),
              st.sets(st.sampled_from(("a", "restart")), max_size=2),
              st.integers(1, 4)))


@PROPERTY
@given(components=st.lists(machines(), min_size=1, max_size=3),
       flush_state=st.integers(-1, 3),
       stream=st.lists(stream_entries, max_size=30))
@example(
    # the sequencer m1 leaves s0 on ``go``, which consumes it, and comes
    # back to s0 while ``go`` is still latched: now it must not see
    # ``go``, although s0's guards read the very same signals as before
    components=[(2, ((0, 1, (), ("go",)), (1, 1, (), ())), ((), ())),
                (2, ((0, 1, ("go",), ()), (1, 0, (), ("x",))), ((), ()))],
    flush_state=-1,
    stream=[(set(), set(), 5)])
def test_memoized_cycle_matches_the_unmemoized_cycle(components, flush_state,
                                                    stream):
    automata = [built(index, machine)
                for index, machine in enumerate(components)]
    config = flush_config(components, flush_state)
    live = SynchronousComposition(automata, config)
    parent = ParentComposition(automata, config)
    for entry in stream:
        if entry is None:
            live.reset()
            parent.reset()
            continue
        pulses, held, repeats = entry
        for _ in range(repeats):
            assert live.cycle(pulses=set(pulses), held=set(held)) == \
                parent.cycle(pulses=set(pulses), held=set(held))
            assert decoded(live, live.configuration()) == \
                parent.configuration()
            assert live.actions_log == parent.actions_log
            key = live.configuration()
            assert live.quiet_ahead() == (live.step(key) == (key, ()))
            assert live.quiet_ahead() == parent_quiet_ahead(parent)
            assert live.configuration() == key


def parent_quiet_ahead(parent: ParentComposition) -> bool:
    """Whether an empty cycle of ``parent`` changes and returns nothing;
    ``parent`` is left as it was."""
    saved = (list(parent.states), set(parent.flags), set(parent.internal),
             [set(consumed) for consumed in parent.consumed],
             list(parent.actions_log), parent._quiet)
    before = parent.configuration()
    quiet = parent.cycle() == [] and parent.configuration() == before
    (parent.states, parent.flags, parent.internal, parent.consumed,
     parent.actions_log, parent._quiet) = saved
    return quiet


def looping(name, conditions, actions):
    """One state ``a`` with a single self-loop."""
    builder = AutomatonBuilder(name)
    builder.add_state("a")
    builder.add_transition("a", "a", conditions=conditions, actions=actions)
    return builder.build()


class TestQuietCycles:
    """Self-loops change no state, so only the latches tell a quiet
    cycle from a busy one."""

    def test_quiet_ahead_needs_a_silent_empty_repeat(self):
        silent = SynchronousComposition([looping("m", ("y",), ("beat",))])
        assert silent.quiet_ahead()  # a silent self-loop, before any cycle
        assert silent.cycle(pulses={"y"}) == ["beat"]
        assert not silent.quiet_ahead()  # the latched flag fires again
        assert silent.actions_log == [("beat",)]  # the query logs nothing
        beating = SynchronousComposition([looping("m", (), ("beat",))])
        assert not beating.quiet_ahead()  # the key repeats, but it beats
        assert beating.cycle() == ["beat"]
        assert not beating.quiet_ahead()
        held = SynchronousComposition([looping("m", ("r",), ("hop",))])
        assert held.quiet_ahead()  # ``r`` is held, never latched
        assert held.cycle(held={"r"}) == ["hop"]
        assert held.quiet_ahead()

    def test_a_state_change_is_not_quiet(self):
        builder = AutomatonBuilder("m")
        builder.add_state("a")
        builder.add_state("b")
        builder.add_transition("a", "b")
        builder.add_transition("b", "b")
        moving = SynchronousComposition([builder.build(initial="a")])
        assert not moving.quiet_ahead()
        assert moving.cycle() == []
        assert moving.quiet_ahead()

    def test_repeated_quiet_cycles_log_their_actions(self):
        composition = SynchronousComposition([looping("m", ("y",),
                                                      ("beat",))])
        assert composition.cycle() == []
        for _ in range(3):
            assert composition.cycle(pulses={"y"}) == ["beat"]
        assert composition.actions_log == [("beat",)] * 3

    def test_clearing_the_flags_is_not_quiet(self):
        composition = SynchronousComposition(
            [looping("m", ("x",), ("seen", "clear_flags"))],
            CompositionConfig(clear_action="clear_flags"))
        assert composition.cycle(pulses={"x"}) == ["seen"]
        assert composition.cycle() == []
        assert composition.cycle(pulses={"x"}) == ["seen"]

    def test_latching_a_channel_is_not_quiet(self):
        composition = SynchronousComposition(
            [looping("ping", (), ("tick",)),
             looping("pong", ("tick",), ("tock",))])
        assert composition.cycle() == []
        assert composition.cycle() == ["tock"]
        assert composition.cycle() == ["tock"]

    def test_a_different_held_set_steps(self):
        composition = SynchronousComposition([looping("m", ("r",),
                                                      ("hop",))])
        assert composition.cycle() == []
        assert composition.cycle(held={"r"}) == ["hop"]
        assert composition.cycle(held=["r"]) == ["hop"]
        assert composition.cycle() == []


#: sha256 of every co-simulated result on ``workload_suite(20, seed=5)``,
#: greedily partitioned on ``minimal_board()``: outputs, cycles, busy
#: ticks, memory counters, the trace and the controller's actions log of
#: a two-block stream (one restart).
SUITE_COSIM_SHA256 = \
    "f12bbbe851cda93fb8a7dd8def07ee50df5d16d095db62f4c89ec1b895f95e9a"


def test_suite_cosim_is_pinned():
    digest = hashlib.sha256()
    for spec in workload_suite(20, seed=5):
        graph, board, partition, schedule, plan, controller = \
            build_design(spec)
        blocks = [stimuli_for(graph, seed) for seed in (1, 2)]
        sim = CoSimulation(graph, partition, schedule, plan, controller,
                           board, blocks[0])
        for result in sim.run_stream(blocks):
            digest.update(repr((
                sorted(result.outputs.items()), result.cycles,
                result.bus_busy_ticks, sorted(result.unit_busy_ticks.items()),
                result.memory_reads, result.memory_writes,
                result.trace_len)).encode())
        digest.update(repr((sim.trace, sim.harness.actions_log)).encode())
    assert digest.hexdigest() == SUITE_COSIM_SHA256
