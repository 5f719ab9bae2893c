"""Finite state machines: the common substrate of all synthesized
controllers (system controller, data-path controllers, I/O controller,
bus arbiters).

Mealy-style: transitions carry a conjunction of input signals as the
condition and a set of output signals as actions.  Within a state,
transitions are *prioritized in list order*, which resolves condition
overlaps deterministically (the VHDL emitter generates an if/elsif
cascade in the same order).

Since the automaton-kernel refactor this class is a thin mutable view
over :mod:`repro.automata`: simulation runs on the kernel's
:class:`~repro.automata.SequentialRunner`, minimization on the shared
worklist partition refinement (:func:`repro.automata.refine_partition`,
ordered signatures -- priority is observable), and state encodings come
from :mod:`repro.automata.encoding`.  The interned automaton view is
cached and rebuilt only after mutations through :meth:`Fsm.add_state` /
:meth:`Fsm.add_transition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..automata import (AutomataError, Automaton, AutomatonBuilder,
                        SequentialRunner, encode_names, quotient,
                        refine_partition)
from ..fingerprint import content_hash

__all__ = ["FsmError", "FsmTransition", "Fsm", "encode_states"]


class FsmError(ValueError):
    """Raised for malformed state machines."""


@dataclass(frozen=True)
class FsmTransition:
    """Guarded Mealy transition with conjunctive conditions."""

    src: str
    dst: str
    conditions: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "actions", tuple(sorted(self.actions)))

    def enabled(self, inputs: set[str]) -> bool:
        return set(self.conditions) <= inputs


@dataclass
class Fsm:
    """A Mealy machine over named boolean signals."""

    name: str
    states: list[str] = field(default_factory=list)
    initial: str | None = None
    transitions: list[FsmTransition] = field(default_factory=list)
    #: Moore outputs: signals asserted while residing in a state.
    state_outputs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Mutation counter invalidating the cached kernel view.
    _version: int = field(default=0, init=False, repr=False, compare=False)
    _kernel_cache: tuple | None = field(default=None, init=False,
                                        repr=False, compare=False)

    # ------------------------------------------------------------------
    def add_state(self, name: str, outputs: tuple[str, ...] = ()) -> str:
        if name in self.states:
            raise FsmError(f"fsm {self.name!r}: duplicate state {name!r}")
        self.states.append(name)
        if outputs:
            self.state_outputs[name] = tuple(sorted(outputs))
        if self.initial is None:
            self.initial = name
        self._version += 1
        return name

    def add_transition(self, src: str, dst: str,
                       conditions: tuple[str, ...] = (),
                       actions: tuple[str, ...] = ()) -> FsmTransition:
        for endpoint in (src, dst):
            if endpoint not in self.states:
                raise FsmError(f"fsm {self.name!r}: unknown state "
                               f"{endpoint!r}")
        transition = FsmTransition(src, dst, conditions, actions)
        self.transitions.append(transition)
        self._version += 1
        return transition

    # ------------------------------------------------------------------
    def to_automaton(self) -> Automaton:
        """The interned kernel view (cached until the next mutation).

        Mutations are expected to go through ``add_state`` /
        ``add_transition``; the container lengths in the cache key
        additionally catch direct appends to the public fields.
        In-place *replacement* of an existing element
        (``fsm.transitions[0] = ...``) is outside the contract and
        would be served the stale view -- build a fresh ``Fsm`` for
        structural edits instead.
        """
        cache_key = (self._version, self.initial, len(self.states),
                     len(self.transitions), len(self.state_outputs))
        if self._kernel_cache is not None \
                and self._kernel_cache[0] == cache_key:
            return self._kernel_cache[1]
        builder = AutomatonBuilder(self.name)
        for state in self.states:
            builder.add_state(state,
                              outputs=self.state_outputs.get(state, ()))
        for t in self.transitions:
            builder.add_transition(t.src, t.dst, conditions=t.conditions,
                                   actions=t.actions)
        automaton = builder.build(initial=self.initial)
        self._kernel_cache = (cache_key, automaton,
                              SequentialRunner(automaton))
        return automaton

    def _runner(self) -> SequentialRunner:
        self.to_automaton()
        return self._kernel_cache[2]

    def content(self) -> tuple:
        """The machine as plain hashable data: name, initial state,
        states, Moore outputs and every transition's ``(src, dst,
        conditions, actions)`` in priority order."""
        return (self.name, self.initial, tuple(self.states),
                tuple(sorted(self.state_outputs.items())),
                tuple((t.src, t.dst, t.conditions, t.actions)
                      for t in self.transitions))

    def fingerprint(self) -> str:
        """Content hash of :meth:`content`."""
        return content_hash(self.content())

    # ------------------------------------------------------------------
    def out_transitions(self, state: str) -> list[FsmTransition]:
        return [t for t in self.transitions if t.src == state]

    @property
    def inputs(self) -> list[str]:
        signals: set[str] = set()
        for t in self.transitions:
            signals.update(t.conditions)
        return sorted(signals)

    @property
    def outputs(self) -> list[str]:
        signals: set[str] = set()
        for t in self.transitions:
            signals.update(t.actions)
        for outs in self.state_outputs.values():
            signals.update(outs)
        return sorted(signals)

    def validate(self) -> list[str]:
        problems: list[str] = []
        if self.initial is None:
            problems.append("no initial state")
        if len(set(self.states)) != len(self.states):
            problems.append("duplicate state names")
        # reachability
        if self.initial is not None:
            seen = {self.initial}
            stack = [self.initial]
            while stack:
                for t in self.out_transitions(stack.pop()):
                    if t.dst not in seen:
                        seen.add(t.dst)
                        stack.append(t.dst)
            unreachable = set(self.states) - seen
            if unreachable:
                problems.append(f"unreachable states: {sorted(unreachable)}")
        return problems

    # ------------------------------------------------------------------
    def step(self, state: str, inputs: set[str]) -> tuple[str, tuple[str, ...]]:
        """One clock edge: highest-priority enabled transition fires.

        Returns the next state and the asserted outputs (Mealy actions of
        the fired transition plus Moore outputs of the *current* state).
        With no enabled transition the machine stays put.
        """
        automaton = self.to_automaton()
        index = automaton.index_of(state)
        if index is None:
            return state, ()
        next_index, out_ids = self._runner().step(
            index, automaton.symbols.ids_of(inputs))
        return automaton.name_of(next_index), \
            automaton.symbols.names_of(out_ids)

    def simulate(self, input_trace: list[set[str]]) -> list[tuple[str,
                                                                  tuple]]:
        """Run from the initial state; one (state, outputs) pair per cycle."""
        if self.initial is None:
            raise FsmError(f"fsm {self.name!r} has no initial state")
        automaton = self.to_automaton()
        runner = self._runner()
        symbols = automaton.symbols
        kernel_log = runner.trace(automaton.initial,
                                  [symbols.ids_of(inputs)
                                   for inputs in input_trace])
        return [(automaton.name_of(state), symbols.names_of(out_ids))
                for state, out_ids in kernel_log]

    # ------------------------------------------------------------------
    def minimize(self) -> "Fsm":
        """Merge behaviourally equivalent states.

        Delegates to the kernel's worklist partition refinement with
        *ordered* signatures (transition priority is observable).  The
        representative of each block is its initial state when present,
        so the canonical entry name callers reference always survives;
        otherwise the earliest-declared state (deterministic).
        """
        automaton = self.to_automaton()
        refinement = refine_partition(automaton, ordered=True)
        if refinement.merged == 0:
            # already minimal: hand back an equal fresh machine without
            # replaying the add_state/add_transition validation
            return Fsm(self.name, list(self.states), self.initial,
                       list(self.transitions), dict(self.state_outputs))
        # the kernel quotient does the representative rewiring and the
        # priority-preserving transition dedup; convert its view back
        merged = quotient(automaton, refinement)
        symbols = merged.symbols
        reduced = Fsm(self.name)
        for index, state in enumerate(merged.state_names):
            reduced.add_state(state, symbols.names_of(merged.outputs_of(index)))
        reduced.initial = merged.name_of(merged.initial) \
            if merged.initial is not None else None
        for t in merged.transitions:
            reduced.add_transition(merged.name_of(t.src),
                                   merged.name_of(t.dst),
                                   symbols.names_of(t.conditions),
                                   symbols.names_of(t.actions))
        return reduced

    def stats(self) -> dict:
        return {"name": self.name, "states": len(self.states),
                "transitions": len(self.transitions),
                "inputs": len(self.inputs), "outputs": len(self.outputs)}


def encode_states(fsm: Fsm, scheme: str = "binary") -> dict[str, str]:
    """Assign a bit pattern to every state (kernel encodings).

    ``binary`` -- minimal-width counter encoding; ``one_hot`` -- one
    flip-flop per state (the XC4000-friendly choice); ``gray`` --
    single-bit-change sequence in state order.
    """
    try:
        return encode_names(fsm.states, scheme)
    except AutomataError as exc:
        raise FsmError(f"fsm {fsm.name!r}: {exc}") from exc
