"""Verified composition: product-of-controllers ≡ minimized STG.

The paper's central correctness claim is that the *composition* of
communicating controllers (phase FSM x per-resource sequencers, talking
over ``go`` / ``phase_done_*`` / the done-flag registers) implements
exactly the scheduled behaviour the STG specifies.
:func:`verify_composition` proves that claim for every synthesized
design, on every flow run, along one path:

1. Both sides are explored breadth-first into a
   :class:`~repro.automata.StepSystem` under the *admissible
   environment closure*: per state, the environment may stay silent,
   deliver the done pulse of any in-flight node (started, completion
   not yet reported), or -- once the activation completed -- pulse
   ``restart``.  Nothing automaton-shaped is materialized and there is
   **no state bound**.
2. Equivalence is decided per observable class by the determinized
   τ-closed pair fixpoint of
   :func:`repro.automata.symbolic_trace_equivalence` (weak
   bisimilarity coincides with weak trace equivalence on these
   determinate systems -- see :mod:`repro.automata.symbolic`).  One
   pass with every class visible at once (a step labelled by its
   sorted visible actions) proves all classes together, since each
   class's traces are that pass's traces with the other classes
   hidden; only when it fails does the fixpoint run per class, so a
   failing class carries its shortest distinguishing trace.  The
   classes are:

   * one projection per processing unit, keeping that unit's commands
     (its reads/starts/writes and its reset) -- interleaving *across*
     concurrent units is not observable, the per-unit command order is;
   * one projection per remaining external signal.
3. Restart liveness, an exact pass over both step systems: every
   reachable state can still reach a ``restart`` row, which catches a
   deadlock both sides mirror.
4. Schedule safety, an exact pass over the STG step system: under
   every environment order, each ``start_v`` finds the done pulse of
   every task-graph producer of ``v`` delivered in the activation,
   because equivalence cannot see a schedule bug both sides mirror.

Because the admissible closure branches over *every* environment
decision and the ``restart`` edge loops the product back through the
reset phase, a passing check proves trace equivalence for **all**
admissible environments and **all** stream lengths of back-to-back
activations -- flag-register clearing, consume-once ``go`` re-arming
and the flush of the internal latches included.  (Simultaneous done
pulses are covered by the single-pulse alphabet: the flag registers
latch-and-hold, so delivering pulses in consecutive cycles reaches the
same configurations.)  Data-dependency order on the *controller* side
needs no separate check: a controller that starts a consumer without
its producer's done flag diverges from the STG under the environment
that withholds that pulse.

:func:`explicit_oracle` is the independent reference the tests and
benchmarks compare against for step 2: both sides materialized by
:func:`repro.automata.reachable_automaton` (the same step systems,
converted to automata, under its state bound) from the same steppers
and compared per class by explicit **weak bisimulation**
(:func:`repro.automata.weak_bisimilar`); it runs the same activation
checks.  The flow never calls it.

The check is exposed to the flow as the ``verify`` pipeline stage
(fingerprint-cached like every other stage) and surfaces in
``FlowResult.composition_check``; ``docs/SYMBOLIC_VERIFY.md`` has the
design rationale.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Iterable

from ..automata import (StepSystem, SynchronousComposition, TokenExecutor,
                        symbolic_trace_equivalence, weak_bisimilar)
from ..automata.product import (ProductEnvironment, composition_stepper,
                                reachable_automaton)
from ..obs import span as obs_span
from ..stg.states import StateKind, Stg
from .system_controller import (PHASE_DONE_STATE, SystemController,
                                controller_composition)

__all__ = ["CompositionCheck", "verify_composition", "explicit_oracle",
           "controller_step_system", "stg_step_system"]

_START = "start_"
_DONE = "done_"
_RESTART = "restart"
#: Controller-only strobes that have no STG counterpart.
_CONTROLLER_ONLY = ("system_done",)


@dataclass(frozen=True)
class CompositionCheck:
    """Outcome of one composed-controller vs. STG equivalence check.

    ``tier`` is ``"symbolic"`` for :func:`verify_composition` (step
    systems + pair fixpoint: every admissible environment, every stream
    length) and ``"bisimulation"`` for :func:`explicit_oracle`.
    ``oracle`` is None on production checks; :func:`explicit_oracle`
    sets it to ``"agrees"`` / ``"disagrees"`` by comparing its verdict
    with :func:`verify_composition`'s on the same inputs.
    """

    equivalent: bool
    tier: str
    starts_checked: int = 0
    actions_checked: int = 0
    #: Reachable step-system/automaton sizes and the number of
    #: per-observable-class projections checked.
    product_states: int = 0
    reference_states: int = 0
    projections_checked: int = 0
    #: Determinized set pairs explored: the all-visible pass, plus the
    #: per-class fixpoints when it fails and they run.
    pairs_checked: int = 0
    oracle: str | None = None
    mismatches: tuple[str, ...] = ()

    def summary(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "tier": self.tier,
            "starts_checked": self.starts_checked,
            "actions_checked": self.actions_checked,
            "product_states": self.product_states,
            "reference_states": self.reference_states,
            "projections_checked": self.projections_checked,
            "pairs_checked": self.pairs_checked,
            "oracle": self.oracle,
            "mismatches": list(self.mismatches),
        }


# ----------------------------------------------------------------------
# the two sides: one stepper each, under the admissible closure
# ----------------------------------------------------------------------
class _AdmissibleEnvironment(ProductEnvironment):
    """All environment behaviours the processing units can exhibit.

    The environment state is the in-flight bitset over the nodes that
    ``actions`` may start, in sorted name order: a node's bit is set
    from its ``start_*`` until its ``done_*`` is delivered.  Admissible
    letters: silence, the done pulse of each in-flight node in name
    order, and -- once ``completed`` holds for the configuration -- the
    ``restart`` command, which loops streamed activations into the
    reachable product.
    """

    def __init__(self, completed, actions: Iterable[str]) -> None:
        super().__init__()
        self._completed = completed
        nodes = sorted({action[len(_START):] for action in actions
                        if action.startswith(_START)})
        self._start_bits = {_START + node: 1 << bit
                            for bit, node in enumerate(nodes)}
        self._done_letters = tuple(frozenset({_DONE + node})
                                   for node in nodes)
        self._done_masks = {letter: 1 << bit
                            for bit, letter in enumerate(self._done_letters)}
        self._start_masks: dict[tuple, int] = {}

    def initial_state(self):
        return 0

    def letters(self, env_state, config):
        letters = [frozenset()]
        while env_state:
            low = env_state & -env_state
            letters.append(self._done_letters[low.bit_length() - 1])
            env_state ^= low
        if self._completed(config):
            letters.append(frozenset({_RESTART}))
        return letters

    def advance(self, env_state, letter, actions):
        starts = self._start_masks.get(actions)
        if starts is None:
            # distinct bits, so their sum is their union
            starts = self._start_masks[actions] = sum(
                {self._start_bits.get(action, 0) for action in actions})
        return (env_state | starts) & ~self._done_masks.get(letter, 0)


def _controller_stepper(controller: SystemController):
    """``(initial, step, environment)`` of the harness composition.

    The composition's key stepper under the admissible closure, with
    ``restart`` delivered level-style; both the step system and the
    explicit oracle's automaton are explored from it.
    """
    components, config = controller_composition(controller)
    done = components[0].index_of(PHASE_DONE_STATE)  # phase FSM first

    def completed(config_key: tuple) -> bool:
        return SynchronousComposition.component_states(config_key)[0] == done

    initial, step = composition_stepper(components, config,
                                        held=(_RESTART,))
    return initial, step, _AdmissibleEnvironment(
        completed, (name for c in components for name in c.output_names()))


def _stg_stepper(stg: Stg):
    """``(initial, step, environment)`` of the STG's token semantics.

    Steps fire **one round** each (``max_rounds=1``) instead of the
    executor's default run-to-fixpoint: the controller composition
    walks chained STG transitions in consecutive clock cycles, and the
    environment may slip a done pulse between them -- the reference
    must expose those intermediate configurations or harmless
    input-vs-pending-output interleavings would read as mismatches.
    ``restart`` resets the executor -- a fresh activation -- so the
    reference contains the same restart loop as the product.  The
    configuration key is the executor's immutable run state
    ``(latched, active, fired)``.
    """
    automaton = stg.to_automaton()
    final = frozenset(automaton.index_of(s.name)
                      for s in stg.states_of_kind(StateKind.GLOBAL_DONE))
    executor = TokenExecutor(automaton, final=final)
    symbols = automaton.symbols

    def step(state: tuple, letter: frozenset):
        if _RESTART in letter:
            executor.reset()
            return executor.snapshot(), ()
        executor.restore(state)
        emitted = executor.step(symbols.ids_of(letter), max_rounds=1)
        return executor.snapshot(), symbols.names_of(emitted)

    return (executor.snapshot(), step,
            _AdmissibleEnvironment(executor.done_in,
                                   automaton.output_names()))


#: Fingerprint-keyed memo of controller step systems: the verifier and
#: the guard don't-care harvester need the same exploration in one flow
#: run.  A built step system is read-only and therefore safe to share
#: across threads.
_STEP_SYSTEM_CACHE: "OrderedDict[str, StepSystem]" = OrderedDict()
_STEP_SYSTEM_CACHE_MAX = 8
_STEP_SYSTEM_CACHE_LOCK = threading.Lock()


def controller_step_system(controller: SystemController) -> StepSystem:
    """The harness composition as a step system.

    States are dense indices in distance-then-discovery order and step
    rows plain tuples, with no state bound and no automaton
    materialization.  Memoized by controller fingerprint.
    """
    key = controller.fingerprint()
    with _STEP_SYSTEM_CACHE_LOCK:
        cached = _STEP_SYSTEM_CACHE.get(key)
        if cached is not None:
            _STEP_SYSTEM_CACHE.move_to_end(key)
            return cached
    system = StepSystem("controller_composition",
                        *_controller_stepper(controller))
    with _STEP_SYSTEM_CACHE_LOCK:
        _STEP_SYSTEM_CACHE[key] = system
        while len(_STEP_SYSTEM_CACHE) > _STEP_SYSTEM_CACHE_MAX:
            _STEP_SYSTEM_CACHE.popitem(last=False)
    return system


def stg_step_system(stg: Stg) -> StepSystem:
    """The STG's token-semantics step system under the same closure.

    Not cached: the verifier builds it exactly once per check.
    """
    return StepSystem(f"{stg.name}_steps", *_stg_stepper(stg))


# ----------------------------------------------------------------------
# projection classes
# ----------------------------------------------------------------------
def _system_alphabet(systems) -> tuple[set[str], list[frozenset[str]]]:
    """External actions + co-emission bursts of step systems."""
    actions: set[str] = set()
    bursts: list[frozenset[str]] = []
    seen: set[tuple] = set()
    for system in systems:
        for _state, _letter, step_actions, _succ in system.iter_rows():
            if not step_actions or step_actions in seen:
                continue
            # rows intern action tuples, so distinct tuples are few
            seen.add(step_actions)
            actions.update(step_actions)
            if len(step_actions) > 1:
                bursts.append(frozenset(step_actions))
    return actions, bursts


def _observable_classes(actions: set[str],
                        bursts: list[frozenset[str]],
                        resource_of: dict[str, str]
                        ) -> list[tuple[str, frozenset[str]]]:
    """Partition the external action alphabet into projection classes.

    The check compares the two sides once per class, with exactly that
    class observable.  A class is *admissible* when no single step of
    either side emits two of its members -- the kernel interns a
    step's actions in canonical (sorted) order, so two same-step
    observables would be order-indistinguishable and alias.

    Classes are built in two moves:

    * one *seed* class per processing unit holding its ``start_*``
      commands and its ``reset_*`` line -- the order of starts within a
      unit is observable (it is the schedule) and at most one fires per
      step by construction;
    * every remaining signal (the ``read_*``/``write_*`` memory
      commands) is then *packed* into the first class it does not
      conflict with (greedy coloring over the co-emission bursts of
      both sides), opening a fresh class only when every existing one
      clashes.  Packing is sound -- each projection only gets *more*
      observable, so the per-class check is strictly stronger than the
      old one-singleton-per-signal sweep -- and it collapses the
      hundreds of per-signal projections of a large design into a
      handful.  Controller-only strobes are never observable.

    The conflict test is indexed per action (``action -> co-emitted
    partners``) instead of scanning every burst per candidate class:
    on the 80-node scale graph the flat scan was millions of frozenset
    intersections and the single hottest line of the verify stage.
    """
    actions = actions - set(_CONTROLLER_ONLY)
    partners: dict[str, set[str]] = {}
    for burst in bursts:
        burst = burst & actions
        if len(burst) <= 1:
            continue
        for action in burst:
            partners.setdefault(action, set()).update(burst)
    owner: dict[str, str] = {f"reset_{r}": r
                             for r in sorted(set(resource_of.values()))}
    for action in actions:
        if action.startswith(_START):
            owner[action] = resource_of.get(action[len(_START):], "?")
    seeds: dict[str, set[str]] = {}
    loose: list[str] = []
    for action in sorted(actions):
        unit = owner.get(action)
        if unit is not None:
            seeds.setdefault(unit, set()).add(action)
        else:
            loose.append(action)
    classes: list[tuple[str, set[str]]] = sorted(
        (label, members) for label, members in seeds.items())
    empty: set[str] = set()
    for action in loose:
        conflicts = partners.get(action, empty)
        for _label, members in classes:
            if not (conflicts & members):
                members.add(action)
                break
        else:
            classes.append((action, {action}))
    return [(label, frozenset(members)) for label, members in classes]


def _node_resources(controller: SystemController) -> dict[str, str]:
    """node -> resource, read off the sequencers' start actions."""
    resource_of: dict[str, str] = {}
    for resource, sequencer in controller.sequencers.items():
        for signal in sequencer.outputs:
            if signal.startswith(_START):
                resource_of[signal[len(_START):]] = resource
    return resource_of


# ----------------------------------------------------------------------
# the activation checks (shared by both checks)
# ----------------------------------------------------------------------
def _unsafe_start(system: StepSystem,
                  edges) -> tuple[int, tuple, str, str] | None:
    """The nearest row that starts a node before a producer is done.

    A forward must-analysis with one bit per task-graph producer:
    ``must[s]`` holds the producers whose ``done_*`` was delivered in
    the current activation on *every* path to state ``s`` -- the
    intersection over its incoming rows, emptied by a ``restart`` row.
    A row that emits ``start_v`` must find every producer of ``v`` in
    its source state's set or in its own letter.  Facts only accumulate
    along a path, so the intersection is exact: no admissible
    environment order breaks the rule iff no row does.  On the STG the
    delivered set is even part of the state key (the latched flags),
    so every path to a failing state witnesses the failure.  Returns
    ``(state, row, producer, consumer)`` for the lowest (nearest)
    failing state, or None.
    """
    bit_of: dict[str, int] = {}  # done_u -> the bit of producer u
    needs: dict[str, int] = {}  # start_v -> the producers of v
    for edge in edges:
        bit = bit_of.setdefault(_DONE + edge.src, 1 << len(bit_of))
        needs[_START + edge.dst] = needs.get(_START + edge.dst, 0) | bit
    #: per letter id: the producers it delivers, None for ``restart``
    delivered = [None if _RESTART in letter
                 else sum(bit_of.get(signal, 0) for signal in letter)
                 for letter in map(system.letter_of,
                                   range(system.n_letters))]
    #: per interned action tuple: the producers its starts need
    required: dict[tuple, int] = {}
    n = len(system)
    must = [-1] * n  # -1 is every producer: no path seen yet
    must[0] = 0
    dirty = bytearray(n)
    dirty[0] = 1
    rows = system.rows
    bad = None
    again = True
    while again:
        again = False
        for state in range(n):
            if not dirty[state]:
                continue
            dirty[state] = 0
            held = must[state]
            for letter, actions, succ in rows(state):
                mask = delivered[letter]
                out = 0 if mask is None else held | mask
                if actions:
                    need = required.get(actions)
                    if need is None:
                        need = 0
                        for action in actions:
                            need |= needs.get(action, 0)
                        required[actions] = need
                    # ``held`` only shrinks, so a failure now is final
                    if need & ~out and (bad is None or state < bad[0]):
                        bad = (state, letter, out)
                known = must[succ]
                if known & out != known:
                    must[succ] = known & out
                    dirty[succ] = 1
                    # an index this sweep passed: sweep once more
                    again = again or succ <= state
    if bad is None:
        return None
    state, letter, out = bad
    row = next(row for row in rows(state) if row[0] == letter)
    start = next(action for action in row[1] if needs.get(action, 0) & ~out)
    done = next(done for done, bit in bit_of.items()
                if bit & needs[start] & ~out)
    return state, row, done[len(_DONE):], start[len(_START):]


def _stuck_state(system: StepSystem) -> int | None:
    """The nearest state from which no ``restart`` row is reachable.

    Restart is admissible exactly at completed configurations, so such
    a state never completes its activation, whatever the environment
    does.  A state is live when it has a ``restart`` row or a live
    successor; the sweeps run in reverse index order, where most
    successors come first, until one changes nothing.  Returns the
    lowest state left, or None.
    """
    restart = [_RESTART in system.letter_of(letter)
               for letter in range(system.n_letters)]
    rows = system.rows
    live = bytearray(len(system))
    changed = True
    while changed:
        changed = False
        for state in range(len(system) - 1, -1, -1):
            if live[state]:
                continue
            for letter, _actions, succ in rows(state):
                if restart[letter] or live[succ]:
                    live[state] = changed = True
                    break
    stuck = live.find(0)
    return None if stuck < 0 else stuck


def _trace_to(system: StepSystem, state: int, last: tuple = ()) -> str:
    """The shortest ``?letter``/``!actions`` trace to ``state``, then
    through its row ``last``.  States are numbered breadth-first, so a
    state's first reaching row in index order is its discoverer."""
    parent: dict[int, tuple[int, tuple]] = {}
    for source in range(state):  # a discoverer's index is smaller
        for row in system.rows(source):
            parent.setdefault(row[2], (source, row))
    path = [last] if last else []
    while state:
        state, row = parent[state]
        path.append(row)
    tokens = []
    for letter_id, actions, _succ in reversed(path):
        letter = system.letter_of(letter_id)
        if letter:
            tokens.append("?" + "+".join(sorted(letter)))
        if actions:
            tokens.append("!" + "+".join(sorted(actions)))
    return f"trace {' '.join(tokens)}" if tokens else "the empty trace"


def _activation_mismatches(reference: StepSystem, product: StepSystem,
                           graph) -> list[str]:
    """Schedule safety on the STG side (when ``graph`` is given) and
    restart liveness on both sides: the two properties equivalence is
    blind to when both sides mirror the same bug."""
    mismatches = []
    unsafe = None if graph is None else _unsafe_start(reference,
                                                      graph.edges)
    if unsafe is not None:
        state, row, producer, consumer = unsafe
        mismatches.append(
            f"STG starts {consumer!r} before the done pulse of its "
            f"producer {producer!r} ({_trace_to(reference, state, row)}, "
            f"schedule sanity)")
    for what, system in (("STG", reference),
                         ("controller composition", product)):
        stuck = _stuck_state(system)
        if stuck is not None:
            mismatches.append(
                f"{what} never completes an activation after "
                f"{_trace_to(system, stuck)}: no restart-admissible "
                f"configuration is reachable from there")
    return mismatches


def _count_starts(system: StepSystem) -> tuple[int, int]:
    """``(start_* actions, all actions)`` over the system's rows,
    counted once per interned action tuple and weighted by its rows."""
    weights = Counter(actions for state in range(len(system))
                      for _letter, actions, _succ in system.rows(state))
    return (sum(weight * sum(action.startswith(_START) for action in actions)
                for actions, weight in weights.items()),
            sum(weight * len(actions) for actions, weight in weights.items()))


# ----------------------------------------------------------------------
# the production check
# ----------------------------------------------------------------------
def verify_composition(stg: Stg, controller: SystemController,
                       graph=None) -> CompositionCheck:
    """Check the communicating-controller composition against ``stg``.

    Step systems, the pair fixpoint, restart liveness and -- when
    ``graph`` (a :class:`~repro.graph.taskgraph.TaskGraph`) is given --
    the STG's schedule safety; see the module docstring.  Raises
    :class:`~repro.automata.AutomataError` only when the determinacy
    contract of the pair fixpoint is violated.
    """
    with obs_span("verify", kind="verify") as vspan:
        check = _verify(stg, controller, graph)
        vspan.set("tier", check.tier)
        vspan.set("equivalent", check.equivalent)
        vspan.set("pairs_checked", check.pairs_checked)
        vspan.set("product_states", check.product_states)
        vspan.set("projections_checked", check.projections_checked)
        return check


def _verify(stg: Stg, controller: SystemController,
            graph) -> CompositionCheck:
    with obs_span("verify.expand", kind="verify"):
        with obs_span("verify.expand.controller", kind="verify") as cspan:
            product_system = controller_step_system(controller)
            cspan.set("states", len(product_system))
        with obs_span("verify.expand.stg", kind="verify") as sspan:
            reference_system = stg_step_system(stg)
            sspan.set("states", len(reference_system))
        actions, bursts = _system_alphabet((reference_system,
                                            product_system))
        classes = _observable_classes(actions, bursts,
                                      _node_resources(controller))
    with obs_span("verify.fixpoint", kind="verify") as fspan:
        result = symbolic_trace_equivalence(reference_system,
                                            product_system, classes)
        fspan.set("fallback", result.fallback)
        fspan.set("pairs", result.pairs_checked)

    mismatches = [
        f"projection {verdict.label!r}: STG and controller composition "
        f"are not weakly trace-equivalent "
        f"({verdict.explain('the STG', 'the controller composition')})"
        for verdict in result.verdicts if not verdict.equivalent]
    with obs_span("verify.sanity", kind="verify"):
        mismatches.extend(_activation_mismatches(reference_system,
                                                 product_system, graph))
    starts, actions_total = _count_starts(reference_system)
    return CompositionCheck(
        equivalent=not mismatches,
        tier="symbolic",
        starts_checked=starts,
        actions_checked=actions_total,
        product_states=len(product_system),
        reference_states=len(reference_system),
        projections_checked=len(classes),
        pairs_checked=result.pairs_checked,
        mismatches=tuple(mismatches))


# ----------------------------------------------------------------------
# the explicit reference (tests and benchmarks only)
# ----------------------------------------------------------------------
def explicit_oracle(stg: Stg, controller: SystemController,
                    graph=None) -> CompositionCheck:
    """The explicit weak-bisimulation verdict, as a differential oracle.

    Both sides are materialized by
    :func:`~repro.automata.reachable_automaton` from the same steppers
    the step systems explore, then compared per observable class
    by :func:`~repro.automata.weak_bisimilar` (kernel partition
    refinement on the τ-saturated disjoint union).  The classes and
    the activation checks are the production ones, over the step
    systems of the same steppers; the independent reference of the
    activation checks (the sampled closed-loop replay) lives in the
    tests.  The result has ``tier == "bisimulation"`` and ``oracle``
    set to ``"agrees"`` or ``"disagrees"`` against
    :func:`verify_composition` on the same inputs.  Raises
    :class:`~repro.automata.AutomataError` when a side outgrows
    ``reachable_automaton``'s state bound: the oracle is meant for the
    small designs of tests and benchmarks.
    """
    initial, step, environment = _controller_stepper(controller)
    product = reachable_automaton("controller_composition", initial, step,
                                  environment=environment)
    initial, step, environment = _stg_stepper(stg)
    reference = reachable_automaton(f"{stg.name}_steps", initial, step,
                                    environment=environment)
    # within the bound: the step systems of the same steppers
    systems = (stg_step_system(stg), controller_step_system(controller))
    actions, bursts = _system_alphabet(systems)
    classes = _observable_classes(actions, bursts,
                                  _node_resources(controller))
    mismatches: list[str] = []
    for label, observable in classes:
        result = weak_bisimilar(reference, product, observable=observable)
        if not result.bisimilar:
            mismatches.append(
                f"projection {label!r}: STG and controller composition "
                f"are not weakly bisimilar ({result.explain()})")
    mismatches.extend(_activation_mismatches(*systems, graph))

    starts, actions_total = _count_starts(systems[0])
    equivalent = not mismatches
    production = verify_composition(stg, controller, graph)
    return CompositionCheck(
        equivalent=equivalent,
        tier="bisimulation",
        starts_checked=starts,
        actions_checked=actions_total,
        product_states=len(product),
        reference_states=len(reference),
        projections_checked=len(classes),
        oracle="agrees" if production.equivalent == equivalent
        else "disagrees",
        mismatches=tuple(mismatches))
