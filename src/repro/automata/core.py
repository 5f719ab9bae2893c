"""The shared automaton kernel: one transition-system core for the repo.

Historically the repository carried two disconnected state-machine
stacks -- ``repro.stg`` (Stg + equivalence merging + StgExecutor) and
``repro.controllers.fsm`` (Fsm + its own minimizer and simulator) --
with code generation and co-simulation each consuming a different one.
This package is the single substrate both are thin views over:

* :class:`Automaton` -- an immutable transition system whose states,
  condition signals and action signals are interned to integer IDs
  (one :class:`SymbolTable` per automaton), with a stable
  ``fingerprint()`` so automata are first-class pipeline artifacts.
  Every transition guard is a conjunction of positive literals
  (:attr:`Transition.conditions`): the done flags and command signals
  the controllers wait on;
* :mod:`repro.automata.minimize` -- the one signature-based
  partition-refinement minimizer (worklist-driven, Hopcroft-style
  "process the split block" scheduling);
* :mod:`repro.automata.simplify` -- the per-state cascade rewrite the
  VHDL emitter uses to print compact guards, computed on each state's
  truth tables (negated literals and OR-terms exist only in the
  emitted text, never in the kernel);
* :mod:`repro.automata.executor` -- the one step/trace executor pair:
  token (marked-graph) semantics for STGs, sequential prioritized
  Mealy semantics for controller FSMs;
* :mod:`repro.automata.product` -- the synchronous composition /
  product operator for communicating FSMs (the system controller is a
  phase FSM x per-resource sequencers talking over latched channels);
* :mod:`repro.automata.encoding` -- state encodings (binary / one-hot
  / gray) consumed by code generation.

Automata are immutable once built: construct through
:class:`AutomatonBuilder` and treat every exposed tuple as read-only.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..fingerprint import content_hash

__all__ = ["AutomataError", "SymbolTable", "Transition", "Automaton",
           "AutomatonBuilder"]


class AutomataError(ValueError):
    """Raised for malformed automata or invalid kernel operations."""


def _stable_repr(value) -> str:
    """Deterministic text form of a state key, across processes.

    ``repr`` of sets/frozensets follows string hash order, which varies
    per process under hash randomization; fingerprints must not.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_stable_repr(v) for v in value)) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_stable_repr(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted((_stable_repr(k), _stable_repr(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    return repr(value)


class SymbolTable:
    """Bidirectional interning of signal names to dense integer IDs."""

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        """The ID of ``name``, allocating one on first sight."""
        sid = self._ids.get(name)
        if sid is None:
            sid = len(self._names)
            self._ids[name] = sid
            self._names.append(name)
        return sid

    def id_of(self, name: str) -> int | None:
        """The ID of ``name``, or ``None`` when never interned."""
        return self._ids.get(name)

    def name_of(self, sid: int) -> str:
        return self._names[sid]

    def ids_of(self, names: Iterable[str]) -> set[int]:
        """IDs of the known names in ``names`` (unknown names dropped --
        a signal this automaton never mentions cannot affect it)."""
        ids = self._ids
        return {ids[n] for n in names if n in ids}

    def names_of(self, sids: Iterable[int]) -> tuple[str, ...]:
        names = self._names
        return tuple(names[s] for s in sids)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


class Transition:
    """One interned transition: guarding condition, emitted actions.

    ``conditions`` and ``actions`` are symbol IDs sorted by signal name,
    so structurally equal transitions compare equal regardless of the
    order their signals were declared in.  ``conditions`` denotes a
    conjunction of positive literals; the empty tuple is the
    unconditional transition.  A plain slotted class (not a
    dataclass): transitions are created in bulk on every view
    conversion, so construction cost matters.  Treat instances as
    immutable.
    """

    __slots__ = ("src", "dst", "conditions", "actions")

    def __init__(self, src: int, dst: int,
                 conditions: tuple[int, ...] = (),
                 actions: tuple[int, ...] = ()) -> None:
        self.src = src
        self.dst = dst
        self.conditions = conditions
        self.actions = actions

    def enabled(self, inputs: set[int]) -> bool:
        return all(c in inputs for c in self.conditions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Transition({self.src}->{self.dst}, "
                f"when={self.conditions}, do={self.actions})")


class Automaton:
    """An immutable, symbol-interned transition system.

    States are integer indices in insertion order; every state carries
    an optional Moore-output tuple (asserted while residing there) and
    an optional hashable ``key`` used as the minimizer's initial
    partition (e.g. the STG state kind + resource).  Per-state outgoing
    transitions preserve declaration order -- the sequential executor's
    priority order.
    """

    __slots__ = ("name", "symbols", "_state_names", "_index", "_initial",
                 "_transitions", "_out", "_in_count", "_state_outputs",
                 "_state_keys", "_fingerprint", "_obs_summary")

    def __init__(self, name: str, symbols: SymbolTable,
                 state_names: Sequence[str],
                 initial: int | None,
                 transitions: Sequence[Transition],
                 state_outputs: Sequence[tuple[int, ...]],
                 state_keys: Sequence[Hashable]) -> None:
        self.name = name
        self.symbols = symbols
        self._state_names = tuple(state_names)
        self._index = {n: i for i, n in enumerate(self._state_names)}
        if len(self._index) != len(self._state_names):
            raise AutomataError(f"automaton {name!r}: duplicate state names")
        if initial is not None and not 0 <= initial < len(self._state_names):
            raise AutomataError(f"automaton {name!r}: initial state index "
                                f"{initial} out of range")
        self._initial = initial
        self._transitions = tuple(transitions)
        out: list[list[Transition]] = [[] for _ in self._state_names]
        in_count = [0] * len(self._state_names)
        for t in self._transitions:
            out[t.src].append(t)
            in_count[t.dst] += 1
        self._out = tuple(tuple(ts) for ts in out)
        self._in_count = tuple(in_count)
        self._state_outputs = tuple(tuple(o) for o in state_outputs)
        self._state_keys = tuple(state_keys)
        self._fingerprint: str | None = None
        #: Lazy cache of :func:`repro.automata.bisim` observation rows
        #: (name-rendered transitions), shared across projections.
        self._obs_summary = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._state_names)

    @property
    def state_names(self) -> tuple[str, ...]:
        return self._state_names

    @property
    def initial(self) -> int | None:
        return self._initial

    @property
    def transitions(self) -> tuple[Transition, ...]:
        return self._transitions

    def index_of(self, name: str) -> int | None:
        return self._index.get(name)

    def name_of(self, state: int) -> str:
        return self._state_names[state]

    def out(self, state: int) -> tuple[Transition, ...]:
        """Outgoing transitions of ``state`` in priority order."""
        return self._out[state]

    def in_count(self, state: int) -> int:
        """Number of incoming transitions (token-activation threshold)."""
        return self._in_count[state]

    def outputs_of(self, state: int) -> tuple[int, ...]:
        """Moore outputs asserted while residing in ``state``."""
        return self._state_outputs[state]

    def key_of(self, state: int) -> Hashable:
        """The minimizer's initial-partition key of ``state``."""
        return self._state_keys[state]

    # ------------------------------------------------------------------
    def input_names(self) -> list[str]:
        """All condition signal names, sorted."""
        seen: set[int] = set()
        for t in self._transitions:
            seen.update(t.conditions)
        return sorted(self.symbols.name_of(s) for s in seen)

    def output_names(self) -> list[str]:
        """All action + Moore signal names, sorted."""
        seen: set[int] = set()
        for t in self._transitions:
            seen.update(t.actions)
        for outs in self._state_outputs:
            seen.update(outs)
        return sorted(self.symbols.name_of(s) for s in seen)

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash (independent of interning order)."""
        if self._fingerprint is None:
            sym = self.symbols
            self._fingerprint = content_hash((
                self.name,
                None if self._initial is None
                else self._state_names[self._initial],
                tuple((name, sym.names_of(self._state_outputs[i]),
                       _stable_repr(self._state_keys[i]))
                      for i, name in enumerate(self._state_names)),
                tuple((self._state_names[t.src], self._state_names[t.dst],
                       sym.names_of(t.conditions), sym.names_of(t.actions))
                      for t in self._transitions)))
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Automaton({self.name!r}, {len(self)} states, "
                f"{len(self._transitions)} transitions)")


class AutomatonBuilder:
    """Accumulates states/transitions by name, then freezes an Automaton."""

    def __init__(self, name: str = "automaton") -> None:
        self.name = name
        self._symbols = SymbolTable()
        self._state_names: list[str] = []
        self._index: dict[str, int] = {}
        self._transitions: list[Transition] = []
        self._state_outputs: list[tuple[int, ...]] = []
        self._state_keys: list[Hashable] = []

    def add_state(self, name: str, outputs: Iterable[str] = (),
                  key: Hashable = None) -> int:
        if name in self._index:
            raise AutomataError(f"automaton {self.name!r}: duplicate state "
                                f"{name!r}")
        index = len(self._state_names)
        self._index[name] = index
        self._state_names.append(name)
        self._state_outputs.append(self._intern_signals(outputs))
        self._state_keys.append(key)
        return index

    def add_transition(self, src: str, dst: str,
                       conditions: Iterable[str] = (),
                       actions: Iterable[str] = ()) -> None:
        """Add a transition guarded by the conjunction ``conditions``."""
        for endpoint in (src, dst):
            if endpoint not in self._index:
                raise AutomataError(f"automaton {self.name!r}: transition "
                                    f"references unknown state {endpoint!r}")
        self._transitions.append(Transition(
            self._index[src], self._index[dst],
            self._intern_signals(conditions), self._intern_signals(actions)))

    def _intern_signals(self, names: Iterable[str]) -> tuple[int, ...]:
        """Intern ``names`` sorted by signal name (canonical order).

        The no-signal and one-signal cases dominate real transitions,
        so they skip the dedup/sort machinery.
        """
        if not isinstance(names, (tuple, list)):
            names = tuple(names)
        if not names:
            return ()
        if len(names) == 1:
            return (self._symbols.intern(names[0]),)
        return tuple(self._symbols.intern(n) for n in sorted(set(names)))

    def build(self, initial: str | None = None) -> Automaton:
        if initial is None:
            index = 0 if self._state_names else None
        else:
            if initial not in self._index:
                raise AutomataError(f"automaton {self.name!r}: unknown "
                                    f"initial state {initial!r}")
            index = self._index[initial]
        return Automaton(self.name, self._symbols, self._state_names,
                         index, self._transitions, self._state_outputs,
                         self._state_keys)
