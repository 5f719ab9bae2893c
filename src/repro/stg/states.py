"""State/transition graphs: the fundamental co-synthesis data structure.

Paper Section 2: "a state/transition graph (STG) is generated [...] by
adding a WAIT- (w), an EXECUTION- (x) and a DONE-state (d) for each node
of the coloured partitioning graph [...].  In addition, RESET-states (r)
are inserted for each hardware resource and processor and global system
states (X, R, D) are added.  Edges are added according to the computed
schedule and the data dependencies."

States carry their role and origin; transitions carry the *conditions*
(input signals that must be asserted, conjunctive) and *actions* (output
commands the system controller issues when taking the transition).  The
signal name conventions are shared with controller synthesis, code
generation and the co-simulator:

=================  ====================================================
signal             meaning
=================  ====================================================
``done_<node>``    processing unit reports completion of ``<node>``
``start_<node>``   controller commands activation of ``<node>``
``read_<edge>``    controller moves a memory cell to the consumer unit
``write_<edge>``   controller stores a produced value to its memory cell
``reset_<res>``    controller resets processing unit ``<res>``
=================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..automata import Automaton, AutomatonBuilder
from ..fingerprint import content_hash

__all__ = ["StateKind", "StgState", "StgTransition", "Stg", "StgError"]


class StgError(ValueError):
    """Raised for malformed state/transition graphs."""


class StateKind(Enum):
    """Role of an STG state (paper nomenclature)."""

    WAIT = "w"
    EXEC = "x"
    DONE = "d"
    RESET = "r"
    GLOBAL_RESET = "R"
    GLOBAL_EXEC = "X"
    GLOBAL_DONE = "D"


#: Kinds attached to a task-graph node.
NODE_KINDS = (StateKind.WAIT, StateKind.EXEC, StateKind.DONE)
#: Kinds attached to a processing resource.
RESOURCE_KINDS = (StateKind.RESET,)
#: Global system states.
GLOBAL_KINDS = (StateKind.GLOBAL_RESET, StateKind.GLOBAL_EXEC,
                StateKind.GLOBAL_DONE)


@dataclass(frozen=True)
class StgState:
    """One STG state.

    ``node`` is set for w/x/d states, ``resource`` for r states and for
    w/x/d (the unit executing the node); global states carry neither.
    """

    name: str
    kind: StateKind
    node: str | None = None
    resource: str | None = None

    def __post_init__(self) -> None:
        if self.kind in NODE_KINDS and self.node is None:
            raise StgError(f"state {self.name!r}: {self.kind.name} needs a node")
        if self.kind in RESOURCE_KINDS and self.resource is None:
            raise StgError(f"state {self.name!r}: RESET needs a resource")
        if self.kind in GLOBAL_KINDS and (self.node or self.resource):
            raise StgError(f"state {self.name!r}: global states are unbound")


@dataclass(frozen=True)
class StgTransition:
    """A guarded transition ``src -> dst``.

    ``conditions`` is a conjunction of input signals that must hold;
    ``actions`` are the output commands issued when the transition fires.
    Both are sorted tuples so transitions compare structurally.
    """

    src: str
    dst: str
    conditions: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(sorted(self.conditions)))
        object.__setattr__(self, "actions", tuple(sorted(self.actions)))


class Stg:
    """A state/transition graph with one initial (global reset) state."""

    def __init__(self, name: str = "stg") -> None:
        self.name = name
        self._states: dict[str, StgState] = {}
        self._transitions: list[StgTransition] = []
        self._out: dict[str, list[StgTransition]] = {}
        self.initial: str | None = None
        self._version = 0
        self._automaton_cache: tuple[tuple, Automaton] | None = None

    # ------------------------------------------------------------------
    def add_state(self, state: StgState) -> StgState:
        if state.name in self._states:
            raise StgError(f"duplicate state {state.name!r}")
        self._states[state.name] = state
        self._out[state.name] = []
        self._version += 1
        return state

    def add_transition(self, transition: StgTransition) -> StgTransition:
        for endpoint in (transition.src, transition.dst):
            if endpoint not in self._states:
                raise StgError(f"transition references unknown state "
                               f"{endpoint!r}")
        self._transitions.append(transition)
        self._out[transition.src].append(transition)
        self._version += 1
        return transition

    # ------------------------------------------------------------------
    @property
    def states(self) -> list[StgState]:
        return list(self._states.values())

    @property
    def transitions(self) -> list[StgTransition]:
        return list(self._transitions)

    def state(self, name: str) -> StgState:
        try:
            return self._states[name]
        except KeyError:
            raise StgError(f"unknown state {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._states

    def __len__(self) -> int:
        return len(self._states)

    def out_transitions(self, name: str) -> list[StgTransition]:
        self.state(name)
        return list(self._out[name])

    def states_of_kind(self, kind: StateKind) -> list[StgState]:
        return [s for s in self._states.values() if s.kind == kind]

    def fingerprint(self) -> str:
        """Content hash over states and transitions (pipeline cache key)."""
        return content_hash((
            self.name, self.initial,
            tuple((s.name, s.kind.value, s.node, s.resource)
                  for s in self._states.values()),
            tuple((t.src, t.dst, t.conditions, t.actions)
                  for t in self._transitions)))

    def to_automaton(self, isolate_initial: bool = False) -> Automaton:
        """The kernel view of this graph (cached until the next mutation).

        Per-state keys carry (kind, resource) -- the minimizer's initial
        partition never merges across units or roles.  With
        ``isolate_initial`` the entry state additionally gets a key of
        its own: under token semantics redirecting transitions *into*
        the initially-active state would change activation counting, so
        STG minimization keeps it apart.
        """
        cache_key = (self._version, self.initial, isolate_initial)
        if self._automaton_cache is not None \
                and self._automaton_cache[0] == cache_key:
            return self._automaton_cache[1]
        builder = AutomatonBuilder(self.name)
        for state in self._states.values():
            builder.add_state(
                state.name,
                key=(state.kind.value, state.resource,
                     isolate_initial and state.name == self.initial))
        for t in self._transitions:
            builder.add_transition(t.src, t.dst, conditions=t.conditions,
                                   actions=t.actions)
        automaton = builder.build(initial=self.initial)
        self._automaton_cache = (cache_key, automaton)
        return automaton

    # ------------------------------------------------------------------
    def input_signals(self) -> list[str]:
        """All condition signals, sorted."""
        signals: set[str] = set()
        for t in self._transitions:
            signals.update(t.conditions)
        return sorted(signals)

    def output_signals(self) -> list[str]:
        """All action signals, sorted."""
        signals: set[str] = set()
        for t in self._transitions:
            signals.update(t.actions)
        return sorted(signals)

    def reachable(self) -> set[str]:
        """States reachable from the initial state."""
        if self.initial is None:
            return set()
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            current = stack.pop()
            for t in self._out[current]:
                if t.dst not in seen:
                    seen.add(t.dst)
                    stack.append(t.dst)
        return seen

    def validate(self) -> list[str]:
        """Structural problems; empty list means well-formed."""
        problems: list[str] = []
        if self.initial is None:
            problems.append("no initial state set")
        elif self.initial not in self._states:
            problems.append(f"initial state {self.initial!r} unknown")
        unreachable = set(self._states) - self.reachable()
        if self.initial is not None and unreachable:
            problems.append(f"unreachable states: {sorted(unreachable)}")
        for state in self._states.values():
            if not self._out[state.name] \
                    and state.kind != StateKind.GLOBAL_DONE:
                problems.append(f"dead-end state {state.name!r}")
        return problems

    def stats(self) -> dict:
        kinds = {}
        for state in self._states.values():
            kinds[state.kind.value] = kinds.get(state.kind.value, 0) + 1
        return {
            "states": len(self._states),
            "transitions": len(self._transitions),
            "by_kind": kinds,
            "inputs": len(self.input_signals()),
            "outputs": len(self.output_signals()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Stg({self.name!r}, {len(self._states)} states, "
                f"{len(self._transitions)} transitions)")
