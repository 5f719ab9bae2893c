"""Symbolic verification: fixpoint equivalence without the product.

The explicit composition oracle materializes both sides of the check as
:class:`~repro.automata.core.Automaton` objects and hands them to the
τ-saturating bisimulation -- which caps at a state bound and makes the
largest designs the long pole.  This module is the unbounded check the
composition verifier runs on every flow, over the
:class:`~repro.automata.product.StepSystem` of each side (dense state
indices, interned ``(letter, actions, successor)`` step rows, no
:class:`Automaton` built and no state bound):

* :func:`symbolic_trace_equivalence` -- a determinized fixpoint over
  τ-closed element sets over one observation view, run once with
  every class visible (a step labelled by its *sorted* visible action
  multiset: the STG stepper reports firing order, the controller side
  sorts) and, only when that pass fails, once per observable class
  (the same view over that one class).  Each class sees at most one
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
from typing import Iterable, Sequence

from ..symbolic import FALSE, TRUE, BddEngine, VariablePairing, \
    reachable_states
from .bisim import INPUT_PREFIX, OUTPUT_PREFIX
from .core import AutomataError
from .product import StepSystem

__all__ = ["ClassVerdict", "SymbolicEquivalence",
           "symbolic_trace_equivalence", "reachable_set_summary",
           "MAX_PAIR_FIXPOINT"]

#: Safety valve for the determinized pair fixpoint: the subset
#: construction is linear-ish on the determinate systems this tier
#: compares, so hitting this bound means the inputs violate the
#: determinacy contract -- raise instead of filling memory.
MAX_PAIR_FIXPOINT = 2_000_000


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


def reachable_set_summary(engine: BddEngine, system: StepSystem,
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
    """Per-system element space shared by every fixpoint pass.

    Elements are either plain states (element id == state index) or
    *pending-action intermediates* ``(state, row)`` -- the point inside
    a two-label step where the input letter was consumed but the
    observable action not yet emitted.  Intermediate ids are interned
    globally (class-independent keys), so every pass over the side
    numbers them alike.
    """

    __slots__ = ("system", "letter_labels", "_mid_index", "_next_eid")

    def __init__(self, system: StepSystem) -> None:
        self.system = system
        letters = (sorted(system.letter_of(letter_id))
                   for letter_id in range(system.n_letters))
        #: ``?letter`` label per letter id; None for the silent letter
        self.letter_labels = [INPUT_PREFIX + "+".join(names) if names
                              else None for names in letters]
        self._mid_index: dict[tuple[int, int], int] = {}
        self._next_eid = len(system)

    def mid(self, state: int, row: int) -> int:
        eid = self._mid_index.get((state, row))
        if eid is None:
            eid = self._next_eid
            self._next_eid += 1
            self._mid_index[(state, row)] = eid
        return eid


class _ClassView:
    """One side's observation edges with ``classes`` visible.

    A step's observable label is ``!`` plus its sorted visible actions
    ``+``-joined, as letters are.  The sort matters: the STG stepper
    reports actions in firing order, the controller side interns them
    sorted.  With every class visible one fixpoint decides all classes
    together; a per-class pass is the view over ``[(label, members)]``.
    Two same-step members of one class raise: hiding maps the
    all-visible view onto each class's view only while every class
    sees at most one action per step.

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

    __slots__ = ("side", "_class_of", "_tau", "_obs", "_visible")

    #: ``_tau`` sentinel: the element has no silent successor.
    _NO_TAU = -1

    def __init__(self, side: _Side,
                 classes: Sequence[tuple[str, frozenset[str]]]) -> None:
        self.side = side
        self._class_of = {action: index for index, (_label, members)
                          in enumerate(classes) for action in members}
        self._tau: dict[int, int] = {}
        self._obs: dict[int, tuple] = {}
        self._visible: dict[tuple, str | None] = {}

    def _visible_of(self, actions: tuple) -> str | None:
        """The ``!action`` label of an interned action tuple, or None."""
        class_of = self._class_of
        visible = sorted(a for a in actions if a in class_of)
        if len({class_of[a] for a in visible}) < len(visible):
            # the verifier's projection classes guarantee at most one
            # member per step (same-step members are
            # order-indistinguishable); a class violating that is a
            # caller bug, not a verdict
            raise AutomataError(
                f"projection class admits two same-step observables "
                f"{visible!r} in {self.side.system.name!r}")
        return OUTPUT_PREFIX + "+".join(visible) if visible else None

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
            letter = side.letter_labels[letter_id]
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


def _check_class(label: str, left_side: _Side, right_side: _Side,
                 classes: Sequence[tuple[str, frozenset[str]]]
                 ) -> ClassVerdict:
    """Joint breadth-first fixpoint over pairs of τ-closed sets, with
    ``classes`` visible on both sides."""
    left = _ClassView(left_side, classes)
    right = _ClassView(right_side, classes)
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
        left: StepSystem, right: StepSystem,
        classes: Sequence[tuple[str, frozenset[str]]]
        ) -> SymbolicEquivalence:
    """Weak trace equivalence of two step systems, per projection class.

    Runs the determinized τ-closed pair fixpoint once with every class
    visible.  Each class's weak trace set is the image of the
    all-visible one under hiding, so when that pass holds every class
    holds.  Only when it fails does the fixpoint run once per class,
    so that each failing class carries its shortest distinguishing
    trace.
    """
    sides = (_Side(left), _Side(right))
    joint = _check_class("all-visible", *sides, classes)
    if joint.equivalent:
        return SymbolicEquivalence(True, (joint,), len(left), len(right),
                                   joint.pairs)
    verdicts = tuple(_check_class(label, *sides, [(label, observable)])
                     for label, observable in classes)
    return SymbolicEquivalence(
        equivalent=all(v.equivalent for v in verdicts),
        verdicts=verdicts,
        left_states=len(left),
        right_states=len(right),
        pairs_checked=joint.pairs + sum(v.pairs for v in verdicts),
        fallback=True)
