"""The controller-side stepper against a verbatim copy of the one it replaced.

:class:`repro.automata.SynchronousComposition` keeps its configuration
as one immutable key of ints ``(states, flags, internal, consumed)``,
and :func:`repro.automata.product.composition_stepper` steps that key
directly.  The verifier's ``_AdmissibleEnvironment`` keeps an
in-flight bitset.  Below are verbatim copies of the set-based pieces
they replaced: the memoized ``cycle`` and ``guard_inputs`` of the
set-state composition, ``composition_stepper`` with its ``_restore``,
the set-based ``_AdmissibleEnvironment``, ``_controller_stepper`` and
the care-set harvester.  The environment copy is used through
``RestartingParentEnvironment``, which adds the one deliberate change
since: ``restart`` empties the in-flight set.  Their behaviour must be
identical:

* ``test_controller_step_systems_match_the_parent_stepper`` and its
  ``random_200_200`` twin build the verifier's controller step system
  of every ``workload_suite(20, seed=5)`` design and of
  ``random_200_200`` both ways and compare the state count, the
  letters and every row.  Each new key decodes to the parent's key
  of the same state, so the keys map one to one.
* ``test_stepper_matches_the_parent_stepper`` does the same over
  generated compositions (random guards, actions and Moore outputs, a
  consume-once ``go``, a flush state, ``clear_flags``, starts and done
  pulses under the admissible environment), with one committed
  example per edge shape.  The example budget follows the active
  hypothesis profile (``tests/conftest.py``).
* ``test_care_sets_match_the_parent_harvester`` and its
  ``random_200_200`` twin compare
  :func:`repro.controllers.harvest_care_sets`, which reads the care
  sets off the step memo of the composition that built the step
  system, with the parent harvester's second walk on the 20-design
  suite and on ``random_200_200``; the generated-composition property
  compares ``observed_inputs()`` with the same walk.
"""

from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_composition_properties import (ParentComposition, build_design,
                                         built, flush_config, machines,
                                         random_200_200_stg)
from repro.automata import (AutomataError, Automaton, CompositionConfig,
                            SequentialRunner, StepSystem,
                            SynchronousComposition)
from repro.automata.product import ProductEnvironment, composition_stepper
from repro.controllers import (controller_composition, harvest_care_sets,
                               synthesize_system_controller)
from repro.controllers.system_controller import PHASE_DONE_STATE
from repro.controllers.verify import (_DONE, _RESTART, _START,
                                      _AdmissibleEnvironment,
                                      _controller_stepper)
from repro.workloads import workload_suite

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)

# ----------------------------------------------------------------------
# the parent stepper, verbatim
# ----------------------------------------------------------------------
class ParentSetComposition(ParentComposition):
    """The set-state composition with the memoized ``cycle``."""

    def __init__(self, components: Sequence[Automaton],
                 config: CompositionConfig | None = None) -> None:
        super().__init__(components, config)
        self._runners = [SequentialRunner(c) for c in components]
        #: per component: ``(state, inputs its guards read) -> (next
        #: state, output names)``; kept across resets and restores,
        #: since a step depends on nothing else
        self._steps: list[dict] = [{} for _ in components]

    @staticmethod
    def configuration_parts(configuration: tuple
                            ) -> tuple[tuple[int, ...], frozenset,
                                       frozenset, tuple]:
        states, flags, internal, consumed = configuration
        return states, flags, internal, consumed

    @staticmethod
    def guard_inputs(component: Automaton, state: int, flags, internal,
                     arriving, consumed) -> frozenset[str]:
        return frozenset([
            signal for signal in component.reads(state)
            if (signal in flags or signal in internal or signal in arriving)
            and signal not in consumed])

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
        changed = False
        emitted: list[str] = []
        for index, component in enumerate(self.components):
            state = self.states[index]
            seen = self.guard_inputs(component, state, self.flags,
                                     self.internal, held,
                                     self.consumed[index])
            steps = self._steps[index]
            stepped = steps.get((state, seen))
            if stepped is None:
                new_state, out_ids = self._runners[index].step(
                    state, component.symbols.ids_of(seen))
                stepped = steps[(state, seen)] = (
                    new_state, component.symbols.names_of(out_ids))
            new_state, outputs = stepped
            if new_state != state:
                changed = True
                if state == component.initial:
                    self.consumed[index] |= self._consume_once
                self.states[index] = new_state
            emitted.extend(outputs)

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


def parent_composition_stepper(components, config=None, held=()):
    scratch = ParentSetComposition(components, config)
    held = frozenset(held)

    def step(config_key: tuple,
             letter: frozenset) -> tuple[tuple, tuple[str, ...]]:
        _parent_restore(scratch, config_key)
        actions = scratch.cycle(pulses=letter - held, held=letter & held)
        return scratch.configuration(), tuple(actions)

    return scratch.configuration(), step


def _parent_restore(composition, config_key: tuple) -> None:
    """Load a configuration snapshot into ``composition``."""
    states, flags, internal, consumed = config_key
    composition.states = list(states)
    composition.flags = set(flags)
    composition.internal = set(internal)
    composition.consumed = [set(c) for c in consumed]
    composition._quiet = None
    # the scratch composition is replayed once per (state, letter) edge;
    # nothing reads its log during materialization, so don't grow it
    composition.actions_log.clear()


class ParentAdmissibleEnvironment(ProductEnvironment):
    """All environment behaviours the processing units can exhibit.

    The environment state is the set of in-flight nodes (``start_*``
    seen, ``done_*`` not yet delivered).  Admissible letters: silence,
    the done pulse of any in-flight node, and -- once ``completed``
    holds for the configuration -- the ``restart`` command, which loops
    streamed activations into the reachable product.
    """

    def __init__(self, completed) -> None:
        super().__init__()
        self._completed = completed

    def initial_state(self):
        return frozenset()

    def letters(self, env_state, config):
        letters = [frozenset()]
        letters.extend(frozenset({_DONE + node})
                       for node in sorted(env_state))
        if self._completed(config):
            letters.append(frozenset({_RESTART}))
        return letters

    def advance(self, env_state, letter, actions):
        in_flight = set(env_state)
        for action in actions:
            if action.startswith(_START):
                in_flight.add(action[len(_START):])
        for signal in letter:
            if signal.startswith(_DONE):
                in_flight.discard(signal[len(_DONE):])
        return frozenset(in_flight)


class RestartingParentEnvironment(ParentAdmissibleEnvironment):
    """The parent environment with the one deliberate change since:
    ``restart`` empties the in-flight set, because the reset phase it
    starts aborts every running unit."""

    def advance(self, env_state, letter, actions):
        if _RESTART in letter:
            env_state = frozenset()
        return super().advance(env_state, letter, actions)


def parent_controller_stepper(controller):
    components, config = controller_composition(controller)
    phase = components[0]  # phase-first ordering set by controller_composition

    def completed(config_key: tuple) -> bool:
        states = SynchronousComposition.component_states(config_key)
        return phase.name_of(states[0]) == PHASE_DONE_STATE

    initial, step = parent_composition_stepper(components, config,
                                               held=(_RESTART,))
    return initial, step, RestartingParentEnvironment(completed)


def parent_harvest_care_sets(controller) -> dict:
    components, _config = controller_composition(controller)
    system = StepSystem("controller_composition",
                        *parent_controller_stepper(controller))
    return parent_care_sets(components, system)


def parent_care_sets(components, system) -> dict:
    """The parent harvester's walk over a parent step system (its body,
    split off so generated compositions can use it too)."""
    care = {component.name: {} for component in components}
    by_component = [care[component.name] for component in components]
    for state in range(len(system)):
        config, _env = system.key_of(state)
        states, flags, internal, consumed = \
            ParentSetComposition.configuration_parts(config)
        observed = [by_component[index].setdefault(
                        component.name_of(states[index]), set())
                    for index, component in enumerate(components)]
        for letter_id, _actions, _succ in system.rows(state):
            letter = system.letter_of(letter_id)
            for index, component in enumerate(components):
                observed[index].add(ParentSetComposition.guard_inputs(
                    component, states[index], flags, internal, letter,
                    consumed[index]))
    return care


# ----------------------------------------------------------------------
# row identity
# ----------------------------------------------------------------------
def decoder(components, config, held, system) -> SynchronousComposition:
    """A composition that numbers signals as ``system``'s stepper does.

    The stepper interns a letter's pulses, then its held signals, when
    it first steps under that letter, and a step system steps under a
    letter right after interning it; replaying the letters in letter-id
    order therefore reproduces the stepper's numbering.
    """
    composition = SynchronousComposition(components, config)
    for letter_id in range(system.n_letters):
        letter = system.letter_of(letter_id)
        composition.mask_of(letter - held)
        composition.mask_of(letter & held)
    return composition


def assert_same_rows(parent: StepSystem, system: StepSystem, components,
                     config, held) -> int:
    assert len(system) == len(parent)
    assert system.n_letters == parent.n_letters
    for letter in range(parent.n_letters):
        assert system.letter_of(letter) == parent.letter_of(letter)
    names = decoder(components, config, frozenset(held), system)
    once = frozenset(config.consume_once)
    nodes = sorted({name[len(_START):] for c in components
                    for name in c.output_names() if name.startswith(_START)})
    for state in range(len(parent)):
        assert system.rows(state) == parent.rows(state), state
        (states, flags, internal, consumed), in_flight = \
            system.key_of(state)
        assert parent.key_of(state) == (
            (states, names.names_of(flags), names.names_of(internal),
             tuple(once if consumed >> index & 1 else frozenset()
                   for index in range(len(states)))),
            frozenset(node for bit, node in enumerate(nodes)
                      if in_flight >> bit & 1)), state
    return len(system)


def assert_same_controller_rows(controller) -> int:
    components, config = controller_composition(controller)
    composition, step, environment = _controller_stepper(controller)
    return assert_same_rows(
        StepSystem("parent", *parent_controller_stepper(controller)),
        StepSystem("new", composition.initial, step, environment),
        components, config, (_RESTART,))


def suite_controllers():
    for spec in workload_suite(20, seed=5):
        yield build_design(spec)[-1]


def test_controller_step_systems_match_the_parent_stepper():
    # the controller half of the 2920 states
    # test_suite_oracle_input_is_pinned counts
    assert sum(assert_same_controller_rows(controller)
               for controller in suite_controllers()) == 1470


def test_random_200_200_controller_step_system_matches_the_parent_stepper():
    controller = synthesize_system_controller(random_200_200_stg())
    assert assert_same_controller_rows(controller) == 8999


def test_care_sets_match_the_parent_harvester():
    for controller in suite_controllers():
        assert harvest_care_sets(controller) == \
            parent_harvest_care_sets(controller)


def test_random_200_200_care_sets_match_the_parent_harvester():
    controller = synthesize_system_controller(random_200_200_stg())
    assert harvest_care_sets(controller) == \
        parent_harvest_care_sets(controller)


# ----------------------------------------------------------------------
# generated compositions
# ----------------------------------------------------------------------
#: Guard signals, actions and Moore outputs: ``go`` and ``ch`` are
#: internal channels (``go`` consumed once per activation),
#: ``clear_flags`` clears the flag register, ``start_*`` put a node in
#: flight and its ``done_*`` pulse latches, ``restart`` arrives held.
GUARD_SIGNALS = ("ch", "done_x", "done_y", "go", "restart")
ACTIONS = ("ch", "clear_flags", "go", "start_x", "start_y")
MOORE = ("ch", "start_x", "z")
#: exploration bound of one generated composition
MAX_STATES = 3000

#: the consume-once re-entry: m1 leaves s0 on ``go``, consuming it, and
#: comes back to s0 while ``go`` is still latched
CONSUME_ONCE = [(2, ((0, 1, (), ("go",)), (1, 1, (), ())), ((), ())),
                (2, ((0, 1, ("go",), ()), (1, 0, (), ("start_x",))),
                 ((), ()))]
#: the flush state s0 of m0 emits ``ch`` on a self-loop: the channel
#: is latched and flushed in the same cycle
FLUSH_OWN_CHANNEL = [(2, ((0, 0, (), ("ch",)), (0, 1, ("done_x",), ())),
                      ((), ("start_x",))),
                     (1, ((0, 0, ("ch",), ("start_y",)),), ((),))]
#: a done pulse latches in the cycle that ``clear_flags`` clears it
CLEAR_FLAGS = [(2, ((0, 1, ("done_x",), ("clear_flags",)),
                    (1, 0, (), ("start_x",))), (("start_x",), ())),
               (1, ((0, 0, ("done_x",), ("start_y",)),), ((),))]
#: no guard reads ``done_y``: its flag still tells configurations apart
UNREAD_PULSE = [(2, ((0, 1, (), ("start_x", "start_y")),
                     (1, 0, ("done_x",), ())), ((), ()))]
#: the held ``restart`` leaves the completed state s1
RESTART = [(3, ((0, 1, ("done_x",), ()), (1, 2, ("restart",), ()),
                (2, 0, (), ("go", "start_x"))), (("start_x",), (), ())),
           (2, ((0, 1, ("go",), ()), (1, 0, ("done_x",), ("z",))),
            ((), ()))]


@PROPERTY
@given(components=st.lists(machines(GUARD_SIGNALS, ACTIONS, MOORE),
                           min_size=1, max_size=3),
       flush_state=st.integers(-1, 3),
       done_state=st.integers(0, 3))
@example(components=CONSUME_ONCE, flush_state=-1, done_state=1)
@example(components=FLUSH_OWN_CHANNEL, flush_state=0, done_state=1)
@example(components=CLEAR_FLAGS, flush_state=-1, done_state=1)
@example(components=UNREAD_PULSE, flush_state=-1, done_state=0)
@example(components=RESTART, flush_state=2, done_state=1)
def test_stepper_matches_the_parent_stepper(components, flush_state,
                                            done_state):
    automata = [built(index, machine)
                for index, machine in enumerate(components)]
    config = flush_config(components, flush_state)
    actions = {name for automaton in automata
               for name in automaton.output_names()}

    def completed(config_key: tuple) -> bool:
        return SynchronousComposition.component_states(
            config_key)[0] == done_state

    initial, step = parent_composition_stepper(automata, config,
                                               held=(_RESTART,))
    try:
        parent = StepSystem("parent", initial, step,
                            RestartingParentEnvironment(completed),
                            max_states=MAX_STATES)
    except AutomataError:
        parent = None
    composition, step = composition_stepper(automata, config,
                                            held=(_RESTART,))
    initial = composition.initial
    environment = _AdmissibleEnvironment(completed, actions)
    if parent is None:
        with pytest.raises(AutomataError):
            StepSystem("new", initial, step, environment,
                       max_states=MAX_STATES)
        return
    system = StepSystem("new", initial, step, environment,
                        max_states=MAX_STATES)
    assert_same_rows(parent, system, automata, config, (_RESTART,))
    assert composition.observed_inputs() == \
        parent_care_sets(automata, parent)
