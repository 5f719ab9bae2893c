"""Synchronous composition and product of communicating Mealy automata.

The synthesized system controller is a *set of communicating FSMs*: a
phase FSM and one sequencer per processing unit, talking over latched
channels (``go``, ``phase_done_*``) while the environment's done pulses
are latched into a flag register cleared by ``clear_flags``.  This
module gives that composition a kernel-level home:

* :class:`SynchronousComposition` -- the lazy product: all components
  step once per cycle on the shared input view; hidden channel signals
  emitted in cycle *t* become visible from cycle *t+1* until the
  composition flushes.  Its configuration is one immutable key of ints
  (component states, flag and channel bitsets, consumed bits) and a
  cycle is a transition over that key.  This is the execution model of
  :class:`repro.controllers.ControllerHarness` and of the co-simulated
  controller.  Its per-component step memo, keyed by what each
  component's guards saw, is the one record of a run: whether the next
  empty cycle is quiet is read off it, and after an exploration so are
  the care sets of the guard rewrite
  (:meth:`SynchronousComposition.observed_inputs`).
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
from functools import cache
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
    """Cycle-lockstep execution of communicating automata.

    The configuration is one immutable key of ints ``(states, flags,
    internal, consumed)``: the component state indices; the latched
    external pulses (the done-flag register) and hidden channel signals
    as bitsets over one signal interning (every signal the components
    and channels name, in sorted order, then other pulsed names as
    they arrive); and one bit per component that consumed the
    ``consume_once`` channels.  :meth:`step` is a cycle as a transition
    over that key; :meth:`cycle` runs it on the live configuration.
    """

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
        self._signals: list[str] = sorted({
            *config.internal, *config.consume_once,
            *(name for c in components
              for name in c.input_names() + c.output_names())})
        self._bits = {name: 1 << i for i, name in enumerate(self._signals)}
        self._internal = frozenset(config.internal)
        self._keep = ~self.mask_of(config.consume_once)
        #: per component and state: the bitset its guards read
        self._reads = [tuple(self.mask_of(c.reads(s)) for s in range(len(c)))
                       for c in components]
        self._runners = [SequentialRunner(c) for c in components]
        #: per component and state: ``seen -> (next state, clears
        #: flags?, internal mask, external actions)``, kept over resets
        self._steps = [[{} for _ in range(len(c))] for c in components]
        flush = config.flush_component
        self._flush = None if flush is None else (flush, frozenset(
            components[flush].index_of(name) for name in config.flush_states))
        self.initial = (tuple(c.initial for c in components), 0, 0, 0)
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._key = self.initial
        self.actions_log: list[tuple[str, ...]] = []

    def configuration(self) -> tuple:
        """The live configuration key."""
        return self._key

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(c.name_of(s)
                     for c, s in zip(self.components, self._key[0]))

    def state_name(self, index: int) -> str:
        """Current state name of component ``index``."""
        return self.components[index].name_of(self._key[0][index])

    @staticmethod
    def component_states(configuration: tuple) -> tuple[int, ...]:
        """The per-component state indices of a configuration key, so
        that its consumers need not index into the tuple themselves."""
        states, _, _, _ = configuration
        return states

    def mask_of(self, names: Iterable[str]) -> int:
        """The bitset of ``names``, one distinct bit per name (so their
        sum is their union); unknown names get the next bits, sorted."""
        names, bits = set(names), self._bits
        for name in sorted(names.difference(bits)):
            bits[name] = 1 << len(self._signals)
            self._signals.append(name)
        return sum(map(bits.__getitem__, names))

    def names_of(self, mask: int) -> frozenset[str]:
        """The signal names of bitset ``mask``."""
        signals = self._signals
        names = []
        while mask:
            low = mask & -mask
            names.append(signals[low.bit_length() - 1])
            mask ^= low
        return frozenset(names)

    def observed_inputs(self) -> dict[str, dict[str, frozenset]]:
        """Every input valuation a component's guards have seen in
        :meth:`step`, decoded to names: ``component name -> state name
        -> frozenset of name frozensets``, the keys of the step memo.
        States never stepped from are left out.  After a
        :class:`StepSystem` build over :func:`composition_stepper`,
        which steps every reachable configuration under every
        admissible letter, these are the reachable valuations."""
        names_of = cache(self.names_of)
        return {component.name: {component.name_of(state):
                                 frozenset(map(names_of, memo))
                                 for state, memo in enumerate(memos) if memo}
                for component, memos in zip(self.components, self._steps)}

    # ------------------------------------------------------------------
    def step(self, configuration: tuple,
             held: int = 0) -> tuple[tuple, tuple[str, ...]]:
        """One clock edge from ``configuration`` (pulses already
        latched) with ``held`` visible this cycle only: the successor key
        and the external actions in emission order.  A component sees
        the latched flags and channels and ``held``, less its consumed
        channels, projected onto what its state's guards read
        (``seen``); its step is memoized on ``(state, seen)``, so a
        200-flag register costs a step no more than its one to three
        guard signals do."""
        states, flags, internal, consumed = configuration
        visible = flags | internal | held
        once = self._keep != -1
        next_states = []
        clears = False
        channels = internal
        external: tuple[str, ...] = ()
        for index, state in enumerate(states):
            seen = visible & self._reads[index][state]
            if consumed >> index & 1:
                seen &= self._keep
            memo = self._steps[index][state]
            stepped = memo.get(seen)
            if stepped is None:
                stepped = memo[seen] = self._step_component(index, state,
                                                            seen)
            new_state, clear, emits, outputs = stepped
            if once and new_state != state and state == self.initial[0][index]:
                consumed |= 1 << index
            next_states.append(new_state)
            clears = clears or clear
            channels |= emits
            if outputs:
                external += outputs
        if clears:
            flags = 0
        flush = self._flush
        if flush is not None and next_states[flush[0]] in flush[1]:
            channels = consumed = 0
        return (tuple(next_states), flags, channels, consumed), external

    def _step_component(self, index: int, state: int, seen: int) -> tuple:
        symbols = self.components[index].symbols
        new_state, out_ids = self._runners[index].step(
            state, symbols.ids_of(self.names_of(seen)))
        names = symbols.names_of(out_ids)
        clear = self.config.clear_action
        return (new_state, clear in names,
                self.mask_of(name for name in names
                             if name != clear and name in self._internal),
                tuple(name for name in names
                      if name != clear and name not in self._internal))

    def cycle(self, pulses: Iterable[str] | None = None,
              held: Iterable[str] | None = None) -> list[str]:
        """One lockstep clock edge of the live configuration.

        ``pulses`` are latched into the flag register before stepping;
        ``held`` signals are visible this cycle only (e.g. ``restart``).
        Returns the externally visible actions in emission order.  Every
        cycle is one :meth:`step`; a repeated cycle costs one memo
        lookup per component.
        """
        key = self._key
        if pulses:
            states, flags, internal, consumed = key
            key = (states, flags | self.mask_of(pulses), internal, consumed)
        self._key, external = self.step(key,
                                        self.mask_of(held) if held else 0)
        if external:
            self.actions_log.append(external)
        return list(external)

    def quiet_ahead(self) -> bool:
        """Whether a cycle with no pulses and no held signals from the
        live configuration would change, return and log nothing: the
        pure query ``step(key) == (key, ())``, served by the step memo
        once the live state has been stepped with what it sees now."""
        key = self._key
        return self.step(key) == (key, ())


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
                        ) -> tuple[SynchronousComposition,
                                   Callable[[tuple, frozenset],
                                            tuple[tuple, tuple]]]:
    """``(composition, step function)`` of a composition.

    The step contract of :class:`StepSystem`: given a configuration
    key and an input letter, run one composition cycle (``held``
    signals delivered level-style, the rest latched) and return the
    successor configuration plus the external actions.  It is
    :meth:`SynchronousComposition.step` on the key itself; exploration
    starts at ``composition.initial``.  The materializing product
    below, the verifier's step systems and the explicit oracle all step
    through this one function.  The step fills its composition's
    memos, so it is not thread-safe; a :class:`StepSystem` calls it
    only while it is being built, after which
    :meth:`SynchronousComposition.observed_inputs` reads what every
    explored step saw.
    """
    composition = SynchronousComposition(components, config)
    held = frozenset(held)
    #: letter -> (latched pulses, held signals), as bitsets
    masks: dict[frozenset, tuple[int, int]] = {}

    def step(config_key: tuple,
             letter: frozenset) -> tuple[tuple, tuple[str, ...]]:
        split = masks.get(letter)
        if split is None:
            split = masks[letter] = (composition.mask_of(letter - held),
                                     composition.mask_of(letter & held))
        pulses, level = split
        if pulses:
            states, flags, internal, consumed = config_key
            config_key = (states, flags | pulses, internal, consumed)
        return composition.step(config_key, level)

    return composition, step


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
    composition, step = composition_stepper(components, config, held)
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
        "x".join(c.name for c in components), composition.initial, step,
        letters=letters or (), environment=environment, label_of=label_of,
        max_states=max_states)
