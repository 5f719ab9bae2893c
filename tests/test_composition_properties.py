"""The live controller composition against a restore-every-step reference.

:class:`repro.automata.SynchronousComposition` repeats a quiet cycle
(one that left its configuration unchanged) without stepping its
components.  The reference here is
:func:`repro.automata.product.composition_stepper`, which restores the
configuration before every cycle and so always steps.  Hypothesis
drives both with the same random pulse and ``held`` streams over the
controller compositions of generated designs, with ``reset()``
mid-stream and runs of repeated cycles, and checks that after every
cycle the configuration, the returned actions and the actions log
agree.  The example budget follows the active hypothesis
profile (``tests/conftest.py``).

``test_suite_cosim_is_pinned`` pins the sha256 of what the
co-simulator computes on ``workload_suite(20, seed=5)``, including a
streamed restart, so a cosim speed-up must keep every output, counter
and trace entry.
"""

import hashlib
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (AutomatonBuilder, CompositionConfig,
                            SynchronousComposition)
from repro.automata.product import composition_stepper
from repro.comm import refine_communication
from repro.controllers import (controller_composition,
                               synthesize_system_controller)
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import minimal_board
from repro.sim import CoSimulation
from repro.stg import build_stg, minimize_stg
from repro.workloads import stimuli_for, workload_suite

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
    initial, step = composition_stepper(components, config, held_names)
    reference, reference_log = initial, []
    for entry in stream:
        if entry is None:
            live.reset()
            reference, reference_log = initial, []
            assert live.configuration() == reference
            continue
        pulses, held, repeats = entry
        for _ in range(repeats):
            actions = live.cycle(pulses=set(pulses), held=set(held))
            reference, expected = step(reference,
                                       frozenset(pulses) | frozenset(held))
            if expected:
                reference_log.append(expected)
            assert live.configuration() == reference
            assert tuple(actions) == expected
            assert live.actions_log == reference_log


def looping(name, conditions, actions):
    """One state ``a`` with a single self-loop."""
    builder = AutomatonBuilder(name)
    builder.add_state("a")
    builder.add_transition("a", "a", conditions=conditions, actions=actions)
    return builder.build()


class TestQuietCycles:
    """Self-loops change no state, so only the latches tell a quiet
    cycle from a busy one."""

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
