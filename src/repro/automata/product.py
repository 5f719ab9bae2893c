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
* :func:`synchronous_product` -- the materialized product automaton:
  explicit BFS over reachable composite configurations with transitions
  labelled by external input pulses, so the composed behaviour can be
  minimized, fingerprinted and compared like any other automaton.

The composition semantics is deliberately exactly the synthesized
hardware's: per-cycle lockstep, one-cycle channel delay, latch-and-hold
flags, per-component consume-once broadcast channels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .core import Automaton, AutomataError, AutomatonBuilder
from .executor import SequentialRunner

__all__ = ["CompositionConfig", "SynchronousComposition",
           "composition_stepper", "internal_signals", "ProductEnvironment",
           "reachable_automaton", "synchronous_product"]


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


def reachable_automaton(name: str, initial_config: Hashable,
                        step: Callable[[Hashable, frozenset],
                                       tuple[Hashable, tuple[str, ...]]],
                        *, letters: Sequence[Iterable[str]] = (),
                        environment: ProductEnvironment | None = None,
                        label_of: Callable[[Hashable, int], str] | None = None,
                        max_states: int = 4096) -> Automaton:
    """Materialize the reachable step-transition system of a stepper.

    Generic BFS over the configurations a deterministic ``step(config,
    letter) -> (successor, actions)`` function reaches from
    ``initial_config`` under an input alphabet.  Configurations are
    discovered breadth-first, so state indices are stable distance-then-
    discovery ranks and the result is deterministic.  Both the
    composition product (:func:`synchronous_product`) and the STG
    reference explorer of the composition verifier are views over this
    one materializer.

    ``environment`` decides the letters admissible in each state
    (default: the fixed ``letters`` alphabet everywhere); its state is
    folded into the explored state identity.  The two alphabet sources
    are mutually exclusive -- an environment policy owns its letters
    entirely, so passing both is rejected rather than silently
    preferring one.  Raises :class:`AutomataError` when the reachable
    set exceeds ``max_states``.
    """
    if environment is None:
        environment = ProductEnvironment(letters)
    elif letters:
        raise AutomataError("pass either a fixed letters alphabet or an "
                            "environment policy, not both")

    def state_label(key: tuple, index: int) -> str:
        if label_of is not None:
            return label_of(key[0], index)
        return f"s{index}"

    initial_key = (initial_config, environment.initial_state())
    labels: dict[tuple, str] = {initial_key: state_label(initial_key, 0)}
    builder = AutomatonBuilder(name)
    builder.add_state(labels[initial_key], key=initial_key)
    pending: deque[tuple] = deque([initial_key])
    transitions: list[tuple[str, str, frozenset, tuple[str, ...]]] = []
    while pending:
        key = pending.popleft()
        config, env_state = key
        for letter in environment.letters(env_state, config):
            letter = frozenset(letter)
            successor_config, actions = step(config, letter)
            successor = (successor_config,
                         environment.advance(env_state, letter, actions))
            if successor not in labels:
                if len(labels) >= max_states:
                    raise AutomataError(
                        f"product exceeds {max_states} composite states")
                labels[successor] = state_label(successor, len(labels))
                builder.add_state(labels[successor], key=successor)
                pending.append(successor)
            transitions.append((labels[key], labels[successor],
                                letter, tuple(actions)))
    for src, dst, letter, actions in transitions:
        builder.add_transition(src, dst, conditions=sorted(letter),
                               actions=actions)
    return builder.build(initial=labels[initial_key])


def composition_stepper(components: Sequence[Automaton],
                        config: CompositionConfig | None = None,
                        held: Iterable[str] = ()
                        ) -> tuple[tuple, Callable[[tuple, frozenset],
                                                   tuple[tuple, tuple]]]:
    """``(initial configuration, step function)`` over a scratch composition.

    The step contract of :func:`reachable_automaton`: given a
    configuration key and an input letter, run one composition cycle
    (``held`` signals delivered level-style, the rest latched) and
    return the successor configuration plus the external actions.  Both
    the materializing product below and the lazy step systems of the
    symbolic verification tier (:mod:`repro.automata.symbolic`) drive
    the same scratch composition through this one function, so the two
    tiers cannot diverge on cycle semantics.  The returned step closes
    over one scratch composition and is therefore not thread-safe;
    callers that publish explored systems must finish exploring first.
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
