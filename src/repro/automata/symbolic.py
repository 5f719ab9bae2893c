"""Symbolic verification: fixpoint equivalence without the product.

The explicit composition oracle materializes both sides of the check as
:class:`~repro.automata.core.Automaton` objects and hands them to the
τ-saturating bisimulation -- which caps at a state bound and makes the
largest designs the long pole.  This module is the unbounded check the
composition verifier runs on every flow:

* :class:`LazyStepSystem` -- an on-the-fly interned step-transition
  system.  States are discovered and densely numbered as the check
  needs them; per state the ``(letter, actions, successor)`` step rows
  are computed exactly once and shared by every projection class.  No
  :class:`Automaton` is ever built, no symbol table is populated per
  transition, and there is no ``max_states`` bound.
* :func:`symbolic_trace_equivalence` -- a determinized fixpoint over
  τ-closed element sets, run once with every class visible (a step
  labelled by its *sorted* visible action multiset: the STG stepper
  reports firing order, the controller side sorts) and, only when that
  pass fails, once per observable class.  Each class sees at most one
  action per step, so its weak trace set is the all-visible one with
  the other classes hidden: the joint pass holding proves every class,
  and ``pairs_checked`` counts the pairs of every pass run.  Both step
  systems are deterministic per admissible input letter (every state
  has one silent row and one row per deliverable pulse), so weak
  bisimilarity coincides with weak trace equivalence (the determinacy
  argument of :mod:`repro.automata.bisim`), and trace equivalence is
  decided exactly by a joint breadth-first fixpoint over pairs of
  τ-closed observation sets: the pair frontier is equivalent iff every
  reachable pair enables the same observable labels on both sides.
  τ-saturation is a per-set transitive-closure fixpoint over the
  (deterministic) silent rows; chain unrolling inserts the same
  pending-action intermediate elements the explicit observation LTS
  uses, so timing skew between the cycle-stepped controllers and the
  one-burst STG stays invisible, exactly as weak equivalence demands.
  On failure the breadth-first parent links reconstruct the shortest
  distinguishing trace -- the concrete ``?letter`` / ``!action``
  counterexample the explicit oracle reports.
* :func:`reachable_set_summary` -- the reachable state-index set as a
  BDD characteristic function over a
  :class:`~repro.symbolic.relation.VariablePairing` block, with an
  optional *relational cross-check* by
  :func:`~repro.symbolic.relation.reachable_states` image iteration.
  Not on the verify path: dense interning makes the reachable set the
  interval ``i < n`` by construction, so the summary proves nothing the
  explorer does not already guarantee.

The *frontier sets* inside the pair fixpoint are sorted element-index
tuples -- over a dense index space a reduced BDD of a small set
degenerates to a chain of index cubes, and the tuple is the same
canonical object at a fraction of the constant factor.
``docs/SYMBOLIC_VERIFY.md`` carries the full rationale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from ..symbolic import FALSE, TRUE, BddEngine, VariablePairing, \
    reachable_states
from .bisim import INPUT_PREFIX, OUTPUT_PREFIX
from .core import AutomataError
from .product import ProductEnvironment

__all__ = ["LazyStepSystem", "ClassVerdict", "SymbolicEquivalence",
           "symbolic_trace_equivalence", "reachable_set_summary",
           "MAX_PAIR_FIXPOINT"]

#: Safety valve for the determinized pair fixpoint: the subset
#: construction is linear-ish on the determinate systems this tier
#: compares, so hitting this bound means the inputs violate the
#: determinacy contract -- raise instead of filling memory.
MAX_PAIR_FIXPOINT = 2_000_000


class LazyStepSystem:
    """Demand-driven interned step graph of a deterministic stepper.

    The lazily-explored twin of
    :func:`repro.automata.product.reachable_automaton`: same
    ``step(config, letter) -> (successor_config, actions)`` contract,
    same :class:`~repro.automata.product.ProductEnvironment` letter
    policy, same state identity ``(config, env_state)`` -- but states
    are interned to dense indices on first visit and step rows are
    tuples of ``(letter_id, action_names, successor_index)``, so
    nothing automaton-shaped (symbol tables, transition objects,
    labels) is ever allocated and there is no state bound.

    Expansion mutates (``rows`` interns successors); a fully
    :meth:`expand_all`-ed system is read-only afterwards and therefore
    safe to share across threads, which is what the verifier's
    fingerprint cache relies on.
    """

    __slots__ = ("name", "_step", "_environment", "_index", "_keys",
                 "_rows", "_letters", "_letter_index", "_actions_interned")

    def __init__(self, name: str, initial_config: Hashable,
                 step: Callable[[Hashable, frozenset],
                                tuple[Hashable, tuple[str, ...]]],
                 environment: ProductEnvironment | None = None) -> None:
        self.name = name
        self._step = step
        self._environment = environment or ProductEnvironment()
        initial_key = (initial_config, self._environment.initial_state())
        self._index: dict[tuple, int] = {initial_key: 0}
        self._keys: list[tuple] = [initial_key]
        self._rows: list[tuple | None] = [None]
        self._letters: list[frozenset] = []
        self._letter_index: dict[frozenset, int] = {}
        #: action tuples recur massively (every silent self-loop, every
        #: done-pulse wait): intern them so rows share one object
        self._actions_interned: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        """States discovered so far (all of them after expand_all)."""
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
        """The step rows of ``state``: ``(letter_id, actions, succ)``.

        Computed once (the step function runs exactly once per
        (state, letter)) and cached; interns any newly discovered
        successor states.
        """
        row = self._rows[state]
        if row is None:
            config, env_state = self._keys[state]
            out = []
            for letter in self._environment.letters(env_state, config):
                letter = frozenset(letter)
                letter_id = self._letter_index.get(letter)
                if letter_id is None:
                    letter_id = len(self._letters)
                    self._letters.append(letter)
                    self._letter_index[letter] = letter_id
                successor_config, actions = self._step(config, letter)
                successor = (successor_config,
                             self._environment.advance(env_state, letter,
                                                       actions))
                succ = self._index.get(successor)
                if succ is None:
                    succ = len(self._keys)
                    self._index[successor] = succ
                    self._keys.append(successor)
                    self._rows.append(None)
                actions = tuple(actions)
                actions = self._actions_interned.setdefault(actions, actions)
                out.append((letter_id, actions, succ))
            row = tuple(out)
            self._rows[state] = row
        return row

    def expand_all(self) -> int:
        """Breadth-first expansion of every reachable state.

        Deterministic: states are numbered in distance-then-discovery
        order under the environment's (deterministic) letter order, the
        same ranks :func:`~repro.automata.product.reachable_automaton`
        assigns.  Returns the number of reachable states.
        """
        cursor = 0
        while cursor < len(self._keys):
            self.rows(cursor)
            cursor += 1
        return cursor

    def iter_rows(self) -> Iterable[tuple[int, int, tuple, int]]:
        """``(state, letter_id, actions, successor)`` over expanded rows."""
        for state, row in enumerate(self._rows):
            if row is None:
                continue
            for letter_id, actions, succ in row:
                yield state, letter_id, actions, succ


# ----------------------------------------------------------------------
# reachable set as a BDD characteristic function (+ relational oracle)
# ----------------------------------------------------------------------
def _interval_below(engine: BddEngine, pairing: VariablePairing,
                    n: int) -> int:
    """Characteristic function of ``{i : i < n}`` over the current block.

    Dense interning makes a system's reachable index set exactly this
    interval predicate, whose reduced BDD is O(bits) nodes -- building
    it in closed form instead of disjoining one cube per state keeps
    the summary O(bits) even for the 60k-state scale designs.
    """
    if n >= 1 << pairing.bits:
        return TRUE  # the block is saturated: every index is in the set
    node = FALSE  # "x < n" with no bits left means x == n: false
    for bit in range(pairing.bits):
        positive = engine.var(pairing.current(bit))
        if n >> bit & 1:
            node = engine.ite(positive, node, TRUE)
        else:
            node = engine.ite(positive, FALSE, node)
    return node


def reachable_set_summary(engine: BddEngine, system: LazyStepSystem,
                          relational_check: bool = False
                          ) -> tuple[int, int, int]:
    """The system's reachable index set as a characteristic function.

    The set ``{0 .. len(system)-1}`` over the current block of an
    interleaved :class:`~repro.symbolic.VariablePairing` (state ``i``
    encoded in binary over the block's bits).  With
    ``relational_check`` the same set is *recomputed* from nothing but
    per-letter partitioned transition-relation BDDs by
    :func:`~repro.symbolic.reachable_states` image iteration and
    compared -- a full-system consistency proof of the relational layer
    against the enumerative explorer.  Returns ``(characteristic node,
    BDD size of it, image iterations)`` (iterations 0 when the
    relational check is skipped).
    """
    bits = max(1, (len(system) - 1).bit_length())
    pairing = VariablePairing(bits)
    reached = _interval_below(engine, pairing, len(system))
    iterations = 0
    if relational_check:
        partitions: dict[int, int] = {}
        for state, letter_id, _actions, succ in system.iter_rows():
            edge = engine.and_(
                pairing.state_cube(engine, state),
                pairing.state_cube(engine, succ, primed=True))
            partitions[letter_id] = engine.or_(
                partitions.get(letter_id, FALSE), edge)
        relations = [partitions[letter_id]
                     for letter_id in sorted(partitions)]
        imaged, iterations = reachable_states(
            engine, pairing.state_cube(engine, 0), relations, pairing,
            disjunctive=True)
        if imaged != reached:
            raise AutomataError(
                f"relational image iteration disagrees with the "
                f"enumerated reachable set of {system.name!r}")
    return reached, engine.size(reached), iterations


# ----------------------------------------------------------------------
# the determinized pair fixpoint: all-visible, then per class
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of one projection class under the symbolic tier."""

    label: str
    equivalent: bool
    pairs: int
    counterexample: tuple[str, ...] = ()
    missing_side: str | None = None

    def explain(self, left_name: str = "the left system",
                right_name: str = "the right system") -> str:
        if self.equivalent:
            return "weakly trace-equivalent"
        if not self.counterexample:
            return "observable labels diverge (no linear counterexample)"
        where = left_name if self.missing_side == "right" else right_name
        return (f"trace {' '.join(self.counterexample)} is possible only "
                f"in {where}")


@dataclass(frozen=True)
class SymbolicEquivalence:
    """Aggregate outcome of the symbolic tier over every class.

    ``verdicts`` is the single all-visible verdict when the joint pass
    proved every class, else the per-class verdicts (``fallback``).
    ``pairs_checked`` counts every pair explored, joint pass included.
    """

    equivalent: bool
    verdicts: tuple[ClassVerdict, ...]
    left_states: int
    right_states: int
    pairs_checked: int
    fallback: bool = False


class _Side:
    """Per-system element space shared by every projection class.

    Elements are either plain states (element id == state index) or
    *pending-action intermediates* ``(state, row)`` -- the point inside
    a two-label step where the input letter was consumed but the
    observable action not yet emitted.  Intermediate ids are interned
    globally (class-independent keys), so their cubes and labels are
    shared across classes too.
    """

    __slots__ = ("system", "n_states", "_letter_labels", "_mid_index",
                 "_next_eid")

    def __init__(self, system: LazyStepSystem) -> None:
        self.system = system
        self.n_states = len(system)
        self._letter_labels: list[str | None] = []
        self._mid_index: dict[tuple[int, int], int] = {}
        self._next_eid = self.n_states

    def letter_label(self, letter_id: int) -> str | None:
        labels = self._letter_labels
        while len(labels) <= letter_id:
            names = sorted(self.system.letter_of(len(labels)))
            labels.append(INPUT_PREFIX + "+".join(names) if names else None)
        return labels[letter_id]

    def mid(self, state: int, row: int) -> int:
        eid = self._mid_index.get((state, row))
        if eid is None:
            eid = self._next_eid
            self._next_eid += 1
            self._mid_index[(state, row)] = eid
        return eid


class _ClassView:
    """One side's single-label observation edges under one class.

    Per element the view keeps the (unique -- the environment offers
    silence exactly once per state, so silent rows are deterministic)
    τ-successor in ``_tau`` and the observable edges in ``_obs``.
    The ``!action`` label is memoized per *interned* action tuple
    rather than per state: distinct states overwhelmingly share the
    same few action tuples, so the per-element expansion reduces to
    dictionary lookups and every edge shares one label string.  Closed
    sets themselves are NOT memoized -- the pair fixpoint visits each
    reachable set pair once and distinct pairs carry distinct sets, so
    such a cache costs memory at the 60k-state scale designs without
    ever hitting.
    """

    __slots__ = ("side", "observable", "_tau", "_obs", "_visible")

    #: ``_tau`` sentinel: the element has no silent successor.
    _NO_TAU = -1

    def __init__(self, side: _Side, observable: frozenset[str]) -> None:
        self.side = side
        self.observable = observable
        self._tau: dict[int, int] = {}
        self._obs: dict[int, tuple] = {}
        self._visible: dict[tuple, str | None] = {}

    def _visible_of(self, actions: tuple) -> str | None:
        """The ``!action`` label of an interned action tuple, or None."""
        visible = [a for a in actions if a in self.observable]
        if len(visible) > 1:
            # the verifier's projection classes guarantee at most one
            # observable action per step (same-step observables are
            # order-indistinguishable); a class violating that is a
            # caller bug, not a verdict
            raise AutomataError(
                f"projection class admits two same-step observables "
                f"{sorted(visible)!r} in {self.side.system.name!r}")
        return OUTPUT_PREFIX + visible[0] if visible else None

    def _expand(self, eid: int) -> None:
        """Derive ``eid``'s τ-successor and observable edges.

        Only plain states reach here: pending-action intermediates are
        populated eagerly when their parent state creates them (they
        have no step rows of their own).
        """
        side = self.side
        visible_of = self._visible
        out = []
        tau = self._NO_TAU
        for row_index, (letter_id, actions, succ) in \
                enumerate(side.system.rows(eid)):
            letter = side.letter_label(letter_id)
            if actions in visible_of:
                action = visible_of[actions]
            else:
                action = visible_of[actions] = self._visible_of(actions)
            if letter is None and action is None:
                tau = succ
            elif letter is not None and action is not None:
                mid = side.mid(eid, row_index)
                self._tau[mid] = self._NO_TAU
                self._obs[mid] = ((action, succ),)
                out.append((letter, mid))
            elif letter is not None:
                out.append((letter, succ))
            else:
                out.append((action, succ))
        self._tau[eid] = tau
        self._obs[eid] = tuple(out)

    def closure(self, eids: Iterable[int]) -> tuple[int, ...]:
        """τ-closure: the transitive-closure fixpoint over silent rows."""
        tau = self._tau
        seen = set(eids)
        stack = list(seen)
        while stack:
            eid = stack.pop()
            succ = tau.get(eid)
            if succ is None:
                self._expand(eid)
                succ = tau[eid]
            if succ >= 0 and succ not in seen:
                seen.add(succ)
                stack.append(succ)
        return tuple(sorted(seen))

    def successors(self, members: tuple[int, ...]) -> dict[str, tuple]:
        """Closed successor sets of a τ-closed set, per observable label."""
        obs = self._obs
        grouped: dict[str, set[int]] = {}
        for eid in members:
            edges = obs.get(eid)
            if edges is None:
                self._expand(eid)
                edges = obs[eid]
            for label, succ in edges:
                if label in grouped:
                    grouped[label].add(succ)
                else:
                    grouped[label] = {succ}
        return {label: self.closure(targets)
                for label, targets in grouped.items()}


class _AllVisibleView(_ClassView):
    """One side's observation edges with every class visible at once.

    A step's observable label is its sorted visible action multiset
    (``+``-joined, as letters are), so one fixpoint over this view
    decides all classes together.  The sort matters: the STG stepper
    reports actions in firing order, the controller side interns them
    sorted.  Two same-step members of one class still raise, as in
    :class:`_ClassView`: hiding maps this view onto each class's view
    only while every class sees at most one action per step.
    """

    __slots__ = ("_class_of",)

    def __init__(self, side: _Side,
                 classes: Sequence[tuple[str, frozenset[str]]]) -> None:
        self._class_of = {action: index for index, (_label, members)
                          in enumerate(classes) for action in members}
        super().__init__(side, frozenset(self._class_of))

    def _visible_of(self, actions: tuple) -> str | None:
        visible = sorted(a for a in actions if a in self.observable)
        owners = [self._class_of[a] for a in visible]
        if len(set(owners)) < len(owners):
            raise AutomataError(
                f"projection class admits two same-step observables "
                f"{visible!r} in {self.side.system.name!r}")
        return OUTPUT_PREFIX + "+".join(visible) if visible else None


def _check_class(label: str, left: _ClassView, right: _ClassView
                 ) -> ClassVerdict:
    """Joint breadth-first fixpoint over pairs of τ-closed sets."""
    start = (left.closure((0,)), right.closure((0,)))
    seen: dict[tuple, int] = {start: 0}
    parents: list[tuple[int, str | None]] = [(-1, None)]
    queue: deque[tuple] = deque([start])
    pairs = 0
    while queue:
        pair = queue.popleft()
        entry = seen[pair]
        pairs += 1
        left_out = left.successors(pair[0])
        right_out = right.successors(pair[1])
        if left_out.keys() != right_out.keys():
            divergent = sorted(left_out.keys() ^ right_out.keys())[0]
            missing = "right" if divergent in left_out else "left"
            trace: list[str] = [divergent]
            while entry > 0:
                parent, step_label = parents[entry]
                trace.append(step_label)
                entry = parent
            return ClassVerdict(label, False, pairs,
                                tuple(reversed(trace)), missing)
        for step_label in sorted(left_out):
            successor = (left_out[step_label], right_out[step_label])
            if successor not in seen:
                if len(seen) >= MAX_PAIR_FIXPOINT:
                    raise AutomataError(
                        f"pair fixpoint exceeds {MAX_PAIR_FIXPOINT} "
                        f"determinized set pairs (projection {label!r})")
                seen[successor] = len(parents)
                parents.append((seen[pair], step_label))
                queue.append(successor)
    return ClassVerdict(label, True, pairs)


def symbolic_trace_equivalence(
        left: LazyStepSystem, right: LazyStepSystem,
        classes: Sequence[tuple[str, frozenset[str]]]
        ) -> SymbolicEquivalence:
    """Weak trace equivalence of two step systems, per projection class.

    Expands both systems fully (the joint fixpoint touches every
    reachable state anyway, and a fully expanded system is immutable),
    then runs the determinized τ-closed pair fixpoint once over the
    all-visible view.  Each class's weak trace set is the image of the
    all-visible one under hiding, so when that pass holds every class
    holds.  Only when it fails does the fixpoint run once per class,
    so that each failing class carries its shortest distinguishing
    trace.
    """
    left.expand_all()
    right.expand_all()
    left_side = _Side(left)
    right_side = _Side(right)
    joint = _check_class("all-visible", _AllVisibleView(left_side, classes),
                         _AllVisibleView(right_side, classes))
    if joint.equivalent:
        return SymbolicEquivalence(True, (joint,), len(left), len(right),
                                   joint.pairs)
    verdicts = []
    pairs_checked = joint.pairs
    for label, observable in classes:
        verdict = _check_class(label, _ClassView(left_side, observable),
                               _ClassView(right_side, observable))
        verdicts.append(verdict)
        pairs_checked += verdict.pairs
    return SymbolicEquivalence(
        equivalent=all(v.equivalent for v in verdicts),
        verdicts=tuple(verdicts),
        left_states=len(left),
        right_states=len(right),
        pairs_checked=pairs_checked,
        fallback=True)
