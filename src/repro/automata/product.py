"""Synchronous composition and product of communicating Mealy automata.

The synthesized system controller is a *set of communicating FSMs*: a
phase FSM and one sequencer per processing unit, talking over latched
channels (``go``, ``phase_done_*``) while the environment's done pulses
are latched into a flag register cleared by ``clear_flags``.  This
module gives that composition a kernel-level home:

* :class:`SynchronousComposition` -- the lazy product: all components
  step once per cycle on the shared input view; hidden channel signals
  emitted in cycle *t* become visible from cycle *t+1* until the
  composition flushes.  This is the execution model of
  :class:`repro.controllers.ControllerHarness` and of the co-simulated
  controller.
* :class:`StepSystem` -- the one breadth-first explorer of a
  deterministic stepper under a :class:`ProductEnvironment` letter
  policy: dense state indices and interned step rows.  The composition
  verifier proves equivalence on it directly.
* :func:`reachable_automaton` -- a step system converted into an
  :class:`~repro.automata.core.Automaton`, and
  :func:`synchronous_product`, the materialized product automaton of a
  composition built on it, with transitions labelled by external input
  pulses, so the composed behaviour can be minimized, fingerprinted and
  compared like any other automaton.

The composition semantics is deliberately exactly the synthesized
hardware's: per-cycle lockstep, one-cycle channel delay, latch-and-hold
flags, per-component consume-once broadcast channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core import Automaton, AutomataError, AutomatonBuilder
from .executor import SequentialRunner

__all__ = ["CompositionConfig", "SynchronousComposition",
           "composition_stepper", "internal_signals", "ProductEnvironment",
           "StepSystem", "reachable_automaton", "synchronous_product"]


def internal_signals(components: Sequence[Automaton]) -> tuple[str, ...]:
    """Signals produced by one component and consumed by another.

    These are the composition's hidden channels: they never cross the
    composition boundary, they ride the internal latches instead.
    """
    produced: set[str] = set()
    consumed: set[str] = set()
    for component in components:
        produced.update(component.output_names())
        consumed.update(component.input_names())
    return tuple(sorted(produced & consumed))


@dataclass(frozen=True)
class CompositionConfig:
    """How a set of automata communicate.

    ``internal`` channels are hidden and latched (visible from the
    cycle after emission).  ``clear_action`` names the action that
    clears the external flag latch (the controller's ``clear_flags``).
    ``consume_once`` channels are broadcast-consumed: a component sees
    them only until it first leaves its initial state (the ``go``
    release is one activation per sequencer).  When the component at
    ``flush_component`` sits in one of ``flush_states`` after a cycle,
    internal latches and consume markers reset -- the composition's
    reset phase.
    """

    internal: tuple[str, ...] = ()
    clear_action: str | None = None
    consume_once: tuple[str, ...] = ()
    flush_component: int | None = None
    flush_states: tuple[str, ...] = ()


class SynchronousComposition:
    """Cycle-lockstep execution of communicating automata."""

    def __init__(self, components: Sequence[Automaton],
                 config: CompositionConfig | None = None) -> None:
        if not components:
            raise AutomataError("composition needs at least one component")
        for component in components:
            if component.initial is None:
                raise AutomataError(f"component {component.name!r} has no "
                                    f"initial state")
        self.components = tuple(components)
        if config is None:
            config = CompositionConfig(internal=internal_signals(components))
        self.config = config
        self._runners = [SequentialRunner(c) for c in components]
        #: per component: ``(state, inputs its guards read) -> (next
        #: state, output names)``; kept across resets and restores,
        #: since a step depends on nothing else
        self._steps: list[dict] = [{} for _ in components]
        self._internal = frozenset(config.internal)
        self._consume_once = frozenset(config.consume_once)
        self.reset()

    # ------------------------------------------------------------------
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

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(c.name_of(s)
                     for c, s in zip(self.components, self.states))

    def state_name(self, index: int) -> str:
        """Current state name of component ``index``."""
        return self.components[index].name_of(self.states[index])

    def configuration(self) -> tuple:
        """Hashable snapshot of the composite configuration."""
        return (tuple(self.states), frozenset(self.flags),
                frozenset(self.internal),
                tuple(frozenset(c) for c in self.consumed))

    @staticmethod
    def component_states(configuration: tuple) -> tuple[int, ...]:
        """The per-component state indices inside a
        :meth:`configuration` key.  Lives next to the layout definition
        on purpose: consumers of configuration keys (e.g. completion
        predicates over product states) must not index into the tuple
        themselves."""
        states, _, _, _ = configuration
        return states

    @staticmethod
    def configuration_parts(configuration: tuple
                            ) -> tuple[tuple[int, ...], frozenset,
                                       frozenset, tuple]:
        """The full ``(states, flags, internal, consumed)`` layout of a
        :meth:`configuration` key (same contract as
        :meth:`component_states`: consumers must not unpack the tuple
        themselves).  Used by the guard don't-care harvester to replay
        what each component could see in a reachable configuration."""
        states, flags, internal, consumed = configuration
        return states, flags, internal, consumed

    @staticmethod
    def guard_inputs(component: Automaton, state: int, flags, internal,
                     arriving, consumed) -> frozenset[str]:
        """What ``component`` in ``state`` sees of its inputs.

        The visibility rule of :meth:`cycle`: latched ``flags``,
        latched ``internal`` channels and the signals ``arriving`` this
        cycle, minus the component's ``consumed`` broadcast channels,
        projected onto the signals the state's guards read
        (:meth:`~repro.automata.core.Automaton.reads`).  A step from
        ``state`` depends on nothing else.
        """
        return frozenset([
            signal for signal in component.reads(state)
            if (signal in flags or signal in internal or signal in arriving)
            and signal not in consumed])

    # ------------------------------------------------------------------
    def cycle(self, pulses: Iterable[str] | None = None,
              held: Iterable[str] | None = None) -> list[str]:
        """One lockstep clock edge.

        ``pulses`` are latched into the flag register before stepping;
        ``held`` signals are visible this cycle only (e.g. ``restart``).
        Returns the externally visible actions in emission order.

        Quiet cycles repeat without stepping.  A cycle is *quiet* when
        it leaves the configuration (states, flags, internal latches,
        consumed sets) as it found it after latching its pulses.  The
        composition keeps the last quiet cycle's ``held`` set and
        external actions.  While the configuration stays put, a cycle
        whose pulses latch no new flag and whose ``held`` set is equal
        sees exactly the same inputs, so it returns (and logs) the same
        actions again.  :meth:`reset` and configuration restores drop
        the record; so does any cycle that is not quiet.

        A component's step reads only the signals its current state's
        guards test, with the consumed broadcast channels removed first
        (:meth:`guard_inputs`).  The composition memoizes each
        component's step on ``(state, those signals)``, so a 200-flag
        register costs a step no more than its one to three guard
        signals do.
        """
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


class ProductEnvironment:
    """State-dependent input policy for product materialization.

    The base class replays a fixed alphabet in every state (the open
    product).  Subclasses refine which letters are *admissible* in a
    given configuration by overriding :meth:`letters` and fold any
    bookkeeping the policy needs (e.g. which units are busy) into an
    immutable environment state threaded through :meth:`advance`.  The
    environment state is part of the product's state identity, so two
    visits to the same component configuration under different
    environment histories stay distinct.
    """

    def __init__(self, letters: Sequence[Iterable[str]] = ()) -> None:
        self._letters = tuple(frozenset(letter) for letter in letters)

    def initial_state(self) -> Hashable:
        return None

    def letters(self, env_state: Hashable,
                config: Hashable) -> Iterable[frozenset]:
        """Admissible input letters in ``config`` (deterministic order)."""
        return self._letters

    def advance(self, env_state: Hashable, letter: frozenset,
                actions: tuple[str, ...]) -> Hashable:
        """Environment state after one step under ``letter``/``actions``."""
        return None


class StepSystem:
    """The reachable step graph of a deterministic stepper.

    The constructor explores every configuration a ``step(config,
    letter) -> (successor, actions)`` function reaches from
    ``initial_config`` breadth-first, under the letters ``environment``
    admits per state (default: no letters at all).  A state is the pair
    ``(config, env_state)`` and gets a dense index in
    distance-then-discovery order, so the numbering is deterministic.
    Each state keeps its step rows ``(letter_id, actions,
    successor)`` in the environment's letter order; letters and action
    tuples are interned, so rows share them.  The step function runs
    once per (state, letter).  A built system is read-only and so safe
    to share across threads.

    Raises :class:`AutomataError` when ``max_states`` is given and the
    reachable set exceeds it.
    """

    __slots__ = ("name", "_keys", "_rows", "_letters")

    def __init__(self, name: str, initial_config: Hashable,
                 step: Callable[[Hashable, frozenset],
                                tuple[Hashable, tuple[str, ...]]],
                 environment: ProductEnvironment | None = None,
                 max_states: int | None = None) -> None:
        self.name = name
        environment = environment or ProductEnvironment()
        initial_key = (initial_config, environment.initial_state())
        index: dict[tuple, int] = {initial_key: 0}
        keys: list[tuple] = [initial_key]
        rows: list[tuple] = []
        letters: list[frozenset] = []
        letter_index: dict[frozenset, int] = {}
        #: action tuples recur massively (every silent self-loop, every
        #: done-pulse wait): intern them so rows share one object
        interned: dict[tuple, tuple] = {}
        while len(rows) < len(keys):
            config, env_state = keys[len(rows)]
            out = []
            for letter in environment.letters(env_state, config):
                letter = frozenset(letter)
                letter_id = letter_index.get(letter)
                if letter_id is None:
                    letter_id = letter_index[letter] = len(letters)
                    letters.append(letter)
                successor_config, actions = step(config, letter)
                successor = (successor_config,
                             environment.advance(env_state, letter, actions))
                succ = index.get(successor)
                if succ is None:
                    if max_states is not None and len(keys) >= max_states:
                        raise AutomataError(
                            f"product exceeds {max_states} composite "
                            f"states")
                    succ = index[successor] = len(keys)
                    keys.append(successor)
                actions = tuple(actions)
                out.append((letter_id, interned.setdefault(actions, actions),
                            succ))
            rows.append(tuple(out))
        self._keys = keys
        self._rows = rows
        self._letters = letters

    def __len__(self) -> int:
        """The number of reachable states."""
        return len(self._keys)

    def key_of(self, state: int) -> tuple:
        """The ``(config, env_state)`` identity of ``state``."""
        return self._keys[state]

    def letter_of(self, letter_id: int) -> frozenset:
        return self._letters[letter_id]

    @property
    def n_letters(self) -> int:
        return len(self._letters)

    def rows(self, state: int) -> tuple:
        """The step rows of ``state``: ``(letter_id, actions, succ)``."""
        return self._rows[state]

    def iter_rows(self) -> Iterator[tuple[int, int, tuple, int]]:
        """``(state, letter_id, actions, successor)`` over every row."""
        for state, row in enumerate(self._rows):
            for letter_id, actions, succ in row:
                yield state, letter_id, actions, succ


def reachable_automaton(name: str, initial_config: Hashable,
                        step: Callable[[Hashable, frozenset],
                                       tuple[Hashable, tuple[str, ...]]],
                        *, letters: Sequence[Iterable[str]] = (),
                        environment: ProductEnvironment | None = None,
                        label_of: Callable[[Hashable, int], str] | None = None,
                        max_states: int = 4096) -> Automaton:
    """Materialize the :class:`StepSystem` of a stepper as an automaton.

    Same state indices as the step system, states labelled
    ``label_of(config, index)`` (default ``s<index>``), one transition
    per step row: the letter as its conditions, the step's actions as
    its actions.  Both the composition product
    (:func:`synchronous_product`) and the explicit oracle of the
    composition verifier are views over this one materializer.

    ``environment`` decides the letters admissible in each state
    (default: the fixed ``letters`` alphabet everywhere).  The two
    alphabet sources are mutually exclusive -- an environment policy
    owns its letters entirely, so passing both is rejected rather than
    silently preferring one.  Raises :class:`AutomataError` when the
    reachable set exceeds ``max_states``.
    """
    if environment is None:
        environment = ProductEnvironment(letters)
    elif letters:
        raise AutomataError("pass either a fixed letters alphabet or an "
                            "environment policy, not both")
    system = StepSystem(name, initial_config, step, environment, max_states)
    builder = AutomatonBuilder(name)
    labels = []
    for index in range(len(system)):
        key = system.key_of(index)
        labels.append(label_of(key[0], index) if label_of is not None
                      else f"s{index}")
        builder.add_state(labels[index], key=key)
    for state, letter_id, actions, succ in system.iter_rows():
        builder.add_transition(labels[state], labels[succ],
                               conditions=sorted(system.letter_of(letter_id)),
                               actions=actions)
    return builder.build(initial=labels[0])


def composition_stepper(components: Sequence[Automaton],
                        config: CompositionConfig | None = None,
                        held: Iterable[str] = ()
                        ) -> tuple[tuple, Callable[[tuple, frozenset],
                                                   tuple[tuple, tuple]]]:
    """``(initial configuration, step function)`` over a scratch composition.

    The step contract of :class:`StepSystem`: given a configuration
    key and an input letter, run one composition cycle (``held``
    signals delivered level-style, the rest latched) and return the
    successor configuration plus the external actions.  The
    materializing product below, the verifier's step systems and the
    explicit oracle all drive the same scratch composition through
    this one function, so they cannot diverge on cycle semantics.  The
    returned step closes over one scratch composition and is therefore
    not thread-safe; a :class:`StepSystem` calls it only while it is
    being built.
    """
    scratch = SynchronousComposition(components, config)
    held = frozenset(held)

    def step(config_key: tuple,
             letter: frozenset) -> tuple[tuple, tuple[str, ...]]:
        _restore(scratch, config_key)
        actions = scratch.cycle(pulses=letter - held, held=letter & held)
        return scratch.configuration(), tuple(actions)

    return scratch.configuration(), step


def synchronous_product(components: Sequence[Automaton],
                        config: CompositionConfig | None = None,
                        letters: Sequence[Iterable[str]] | None = None,
                        max_states: int = 4096,
                        environment: ProductEnvironment | None = None,
                        held: Iterable[str] = ()) -> Automaton:
    """Materialize the reachable product automaton of a composition.

    Composite configurations become product states; every cycle under
    an input *letter* (a set of external pulses) becomes a transition
    whose conditions are the letter and whose actions are the external
    outputs of that cycle.  States are explored breadth-first, so the
    ``p<index>[...]`` labels are distance-then-discovery ranks.
    ``letters`` defaults to the silent letter plus one single-pulse
    letter per external input signal -- the alphabet under which
    controller compositions are driven in closed loop; alternatively an
    ``environment`` policy chooses the admissible letters per state
    (and its bookkeeping becomes part of the product state).  Signals
    in ``held`` are delivered level-style for one cycle (command pulses
    like ``restart``) instead of being latched into the flag register.
    Raises :class:`AutomataError` when the reachable set exceeds
    ``max_states``.
    """
    initial, step = composition_stepper(components, config, held)
    if letters is None and environment is None:
        hidden = frozenset(config.internal) if config is not None \
            else frozenset(internal_signals(components))
        externals = sorted({name for c in components
                            for name in c.input_names()} - hidden)
        letters = [frozenset()] + [frozenset({s}) for s in externals]

    def label_of(config_key: tuple, index: int) -> str:
        names = "|".join(c.name_of(s)
                         for c, s in zip(components, config_key[0]))
        return f"p{index}[{names}]"

    return reachable_automaton(
        "x".join(c.name for c in components), initial, step,
        letters=letters or (), environment=environment, label_of=label_of,
        max_states=max_states)


def _restore(composition: SynchronousComposition, config_key: tuple) -> None:
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
