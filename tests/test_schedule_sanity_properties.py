"""The activation checks of the verifier against their sampled reference.

``verify_composition`` checks what equivalence cannot see with two
exact passes over the step systems it built: schedule safety (every
``start_v`` of the STG finds the done pulse of each task-graph producer
of ``v`` delivered in the activation, under every admissible
environment order) and restart liveness (from every reachable state a
``restart`` row stays reachable).  Before them, the STG was replayed in
closed loop against a few seeded latency environments and only the
order of starts was checked, and completion meant that *some* state
admits ``restart``.  This module keeps verbatim copies of that replay
(``_latency_of``, ``_run_stg``, ``_dependency_violations``) and of the
completion predicate (``_system_has_restart``) as references:

* on generated designs with one STG wait condition on a producer's
  ``done_*`` retargeted or dropped, whenever the replay rejects under
  any of many random latency environments, the exact passes reject
  too -- on the STG alone and through ``verify_composition`` with the
  controller synthesized from the mutated STG;
* liveness names the same nearest stuck state as a brute-force forward
  search from every state, on both sides of small designs;
* two pinned mutants show the gain: one the replay passes and safety
  rejects, one the completion predicate passes and liveness rejects,
  each with a letter trace.

The properties take a fifth of the active hypothesis profile's budget
(``tests/conftest.py``).
"""

import random
import types
from collections import deque

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from test_verify_composition import BUNDLED, implementation
from test_verify_differential import boards, implement, mappings, specs

from repro.automata import ProductEnvironment, StepSystem
from repro.controllers import synthesize_system_controller, verify_composition
from repro.controllers.verify import (_stuck_state, _unsafe_start,
                                      controller_step_system,
                                      stg_step_system)
from repro.stg import StateKind, Stg, StgExecutor, StgState, StgTransition
from repro.workloads import ChainSpec, ForkJoinSpec

EXAMPLES = max(1, settings.default.max_examples // 5)
PROPERTY = settings(max_examples=EXAMPLES, deadline=None)

#: The replay runs this many latency environments in the properties
#: (the verifier used to sample three).
MANY_ENVIRONMENTS = 12

_START = "start_"
_DONE = "done_"
_RESTART = "restart"


# ----------------------------------------------------------------------
# the sampled closed-loop replay (verbatim)
# ----------------------------------------------------------------------
#: The schedule sanity check replays the STG in closed loop against
#: this many deterministic environments, streaming
#: ``_SANITY_ACTIVATIONS`` back-to-back activations through the reset
#: path, with at most ``_SANITY_MAX_CYCLES`` steps per activation.
_SANITY_ENVIRONMENTS = 3
_SANITY_ACTIVATIONS = 2
_SANITY_MAX_CYCLES = 100_000


def _system_has_restart(system: StepSystem) -> bool:
    """Does any reachable state of the system admit restart?

    Letters are interned on first use, so the restart letter exists in
    the system's alphabet iff some reachable (completed) configuration
    admitted it.
    """
    return any(_RESTART in system.letter_of(letter_id)
               for letter_id in range(system.n_letters))


def _latency_of(environment: int, node: str) -> int:
    """Deterministic unit latency for (environment, node).

    Environment 0 is the ideal one-cycle responder; later environments
    stagger completions so the STG is exercised under skewed
    interleavings, not just the lockstep one.
    """
    if environment == 0:
        return 1
    rng = random.Random(f"verify-composition:{environment}:{node}")
    return rng.randint(1, 1 + 2 * environment)


def _run_stg(stg: Stg, environment: int) -> tuple[bool, list[list[str]]]:
    """Closed-loop STG execution; one flat action list per activation.

    Per step: deliver the done pulses that fell due, step the executor
    with them, schedule a latency countdown for every ``start_*`` it
    emits.  A quiet executor with nothing in flight is deadlocked.
    After each completed activation the executor is reset for the next
    one.  Returns whether every activation completed.
    """
    executor = StgExecutor(stg)
    traces: list[list[str]] = []
    for activation in range(_SANITY_ACTIVATIONS):
        if activation:
            executor.reset()
        pending: dict[str, int] = {}
        actions: list[str] = []
        traces.append(actions)
        for _ in range(_SANITY_MAX_CYCLES):
            due = {node for node, left in pending.items() if left <= 0}
            for node in due:
                del pending[node]
            emitted = executor.step({_DONE + node for node in due})
            actions.extend(emitted)
            for action in emitted:
                if action.startswith(_START):
                    node = action[len(_START):]
                    pending[node] = _latency_of(environment, node)
            if executor.done:
                break
            if not (emitted or pending or due):
                return False, traces
            for node in pending:
                pending[node] -= 1
        else:
            return False, traces
    return True, traces


def _dependency_violations(actions: list[str],
                           edges) -> list[tuple[str, str]]:
    """Data-dependency violations in one activation's action trace.

    Every node is anchored on the *first* ``start_*`` it gets in this
    activation: a dict-overwrite anchor would keep the last start and
    misjudge traces where a node starts more than once (the replayed
    starts of a streamed run, or a double-start bug).  Returns the
    ``(producer, consumer)`` pairs where the consumer started without,
    or before, its producer.
    """
    starts = [a[len(_START):] for a in actions if a.startswith(_START)]
    position: dict[str, int] = {}
    for rank, node in enumerate(starts):
        position.setdefault(node, rank)
    violations: list[tuple[str, str]] = []
    for edge in edges:
        dst_pos = position.get(edge.dst)
        if dst_pos is None:
            continue  # consumer never ran: the equivalence check sees it
        src_pos = position.get(edge.src)
        if src_pos is None or src_pos >= dst_pos:
            violations.append((edge.src, edge.dst))
    return violations


def replay_rejects(stg: Stg, graph,
                   environments: int = _SANITY_ENVIRONMENTS) -> bool:
    """Does the sampled replay reject ``stg`` under the first
    ``environments`` latency environments?  (The verifier's old
    schedule sanity verdict at the default.)"""
    for environment in range(environments):
        completed, traces = _run_stg(stg, environment)
        if not completed or any(_dependency_violations(actions, graph.edges)
                                for actions in traces):
            return True
    return False


# ----------------------------------------------------------------------
# STG dependency mutations and the brute-force liveness reference
# ----------------------------------------------------------------------
def wait_sites(stg: Stg) -> list[tuple[int, str]]:
    """``(transition index, done literal)`` of every wait on a done
    pulse by a transition that starts a node: a producer's pulse from
    another unit, or (after minimization merged the states) the pulse
    of the unit's previous node."""
    return [(index, literal)
            for index, t in enumerate(stg.transitions)
            if any(action.startswith(_START) for action in t.actions)
            for literal in t.conditions if literal.startswith(_DONE)]


def rewired(stg: Stg, index: int, literal: str,
            replacement: str | None) -> Stg:
    """``stg`` with the wait ``literal`` of transition ``index``
    retargeted to ``replacement`` (dropped when None)."""
    mutant = Stg(stg.name)
    for state in stg.states:
        mutant.add_state(state)
    mutant.initial = stg.initial
    for position, t in enumerate(stg.transitions):
        if position == index:
            conditions = [c for c in t.conditions if c != literal]
            if replacement is not None:
                conditions.append(replacement)
            t = StgTransition(t.src, t.dst, tuple(conditions), t.actions)
        mutant.add_transition(t)
    return mutant


def mutate(stg: Stg, graph, pick: int, retarget: bool) -> Stg | None:
    """One of the :func:`wait_sites` retargeted to another node's done
    pulse, or dropped; None when the STG has no such wait."""
    sites = wait_sites(stg)
    if not sites:
        return None
    index, literal = sites[pick % len(sites)]
    if not retarget:
        return rewired(stg, index, literal, None)
    others = sorted(_DONE + node.name for node in graph.nodes
                    if _DONE + node.name != literal)
    return rewired(stg, index, literal, others[pick % len(others)])


def brute_force_stuck(system: StepSystem) -> int | None:
    """The lowest state with no ``restart`` row forward-reachable from
    it, by one breadth-first search per state."""
    restart = {letter for letter in range(system.n_letters)
               if _RESTART in system.letter_of(letter)}
    for start in range(len(system)):
        seen = {start}
        queue = deque([start])
        while queue:
            rows = system.rows(queue.popleft())
            if any(letter in restart for letter, _actions, _succ in rows):
                break
            for _letter, _actions, succ in rows:
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
        else:
            return start
    return None


def activation_check_rejects(stg: Stg, graph) -> bool:
    """Do the exact passes reject the STG side alone?"""
    system = stg_step_system(stg)
    return (_unsafe_start(system, graph.edges) is not None
            or _stuck_state(system) is not None)


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
@PROPERTY
@given(spec=specs, board=boards, mapping=mappings,
       pick=st.integers(min_value=0, max_value=1_000),
       retarget=st.booleans())
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin", pick=3, retarget=False)
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin", pick=3, retarget=True)
def test_exact_passes_reject_whatever_the_replay_rejects(
        spec, board, mapping, pick, retarget):
    graph, stg, _controller = implement(spec, board, mapping)
    assert not replay_rejects(stg, graph, MANY_ENVIRONMENTS)
    assert not activation_check_rejects(stg, graph)
    mutant = mutate(stg, graph, pick, retarget)
    assume(mutant is not None)
    if replay_rejects(mutant, graph, MANY_ENVIRONMENTS):
        assert activation_check_rejects(mutant, graph)
        check = verify_composition(
            mutant, synthesize_system_controller(mutant), graph=graph)
        assert not check.equivalent
        assert any("schedule sanity" in m
                   or "never completes an activation" in m
                   for m in check.mismatches), check.mismatches


@PROPERTY
@given(spec=specs, board=boards, mapping=mappings,
       pick=st.integers(min_value=0, max_value=1_000),
       retarget=st.booleans())
@example(spec=ChainSpec(seed=0, length=1), board="minimal", mapping=0,
         pick=0, retarget=True)
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin", pick=3, retarget=True)
def test_liveness_matches_a_forward_search_from_every_state(
        spec, board, mapping, pick, retarget):
    graph, stg, controller = implement(spec, board, mapping)
    mutant = mutate(stg, graph, pick, retarget)
    systems = [stg_step_system(stg), controller_step_system(controller)]
    if mutant is not None:
        systems.append(stg_step_system(mutant))
    for system in systems:
        assume(len(system) <= 600)
        assert _stuck_state(system) == brute_force_stuck(system), \
            system.name


# ----------------------------------------------------------------------
# the pinned mutants
# ----------------------------------------------------------------------
def test_sibling_wait_passes_the_replay_and_fails_safety():
    """``gain0`` waits on its producer ``band0``'s sibling ``band1``
    (both consume ``x``) instead of on ``band0``.  ``band0`` starts
    first in every sampled environment, so the replay -- with the
    verifier's three environments or with many -- sees the right start
    order; the must-analysis finds the order that delivers ``done_band1``
    while ``band0`` still runs.  The controller mirrors the bug, so
    equivalence holds and safety is the only mismatch."""
    graph, stg, _controller = implementation(*BUNDLED[0])
    index, = [position for position, t in enumerate(stg.transitions)
              if "start_gain0" in t.actions and "done_band0" in t.conditions]
    mutant = rewired(stg, index, "done_band0", "done_band1")
    assert not replay_rejects(mutant, graph)
    assert not replay_rejects(mutant, graph, MANY_ENVIRONMENTS)
    check = verify_composition(mutant, synthesize_system_controller(mutant),
                               graph=graph)
    assert not check.equivalent
    mismatch, = check.mismatches
    assert mismatch.startswith("STG starts 'gain0' before the done pulse "
                               "of its producer 'band0' (trace ")
    assert mismatch.endswith(" ?done_band1 !start_gain0, schedule sanity)")


def late_done_stg() -> Stg:
    """An STG that leaves its DONE state on a late done pulse.

    Unit ``sw`` starts ``a`` and reaches the global DONE state without
    waiting for ``done_a``; DONE then waits for ``done_a`` itself.  If
    the environment delivers ``done_a`` before it pulses ``restart``,
    DONE deactivates and the activation never completes; pulsing
    ``restart`` first completes it.  So a restart row is reachable
    (the old completion check passes) but not from every state.
    """
    stg = Stg("late_done")
    stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
    stg.add_state(StgState("X", StateKind.GLOBAL_EXEC))
    stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
    stg.add_state(StgState("r_sw", StateKind.RESET, resource="sw"))
    stg.add_state(StgState("w_a", StateKind.WAIT, node="a", resource="sw"))
    stg.add_state(StgState("x_a", StateKind.EXEC, node="a", resource="sw"))
    stg.add_state(StgState("d_a", StateKind.DONE, node="a", resource="sw"))
    stg.initial = "R"
    stg.add_transition(StgTransition("R", "r_sw", actions=("reset_sw",)))
    stg.add_transition(StgTransition("r_sw", "X"))
    stg.add_transition(StgTransition("X", "w_a"))
    stg.add_transition(StgTransition("w_a", "x_a", actions=("start_a",)))
    stg.add_transition(StgTransition("x_a", "D"))
    stg.add_transition(StgTransition("D", "d_a", conditions=("done_a",)))
    return stg


def test_late_done_passes_the_completion_check_and_fails_liveness():
    stg = late_done_stg()
    system = stg_step_system(stg)
    assert _system_has_restart(system)  # the old completion check
    stuck = _stuck_state(system)
    assert stuck is not None and stuck == brute_force_stuck(system)
    # the controller does not follow DONE's extra transition and stays
    # live; trace equivalence cannot see the lost restart either
    # (``restart`` stays possible after ``?done_a`` along the τ-path
    # that keeps DONE active), so liveness is the only mismatch
    check = verify_composition(stg, synthesize_system_controller(stg))
    assert check.mismatches == (
        "STG never completes an activation after trace !reset_sw "
        "!start_a ?done_a: no restart-admissible configuration is "
        "reachable from there",)


def test_restart_aborts_the_running_units():
    """``late_done_stg`` reaches DONE with ``a`` still running.  The reset
    phase after ``restart`` aborts it, so no state reached after
    ``?restart`` offers ``?done_a`` before ``!start_a`` starts ``a``
    again: the restart row leads back to the initial state."""
    system = stg_step_system(late_done_stg())
    done_a = {letter_id for letter_id in range(system.n_letters)
              if system.letter_of(letter_id) == {"done_a"}}
    restarted = {succ for _state, letter_id, _actions, succ
                 in system.iter_rows()
                 if _RESTART in system.letter_of(letter_id)}
    seen, frontier = set(restarted), list(restarted)
    while frontier:
        for letter_id, actions, succ in system.rows(frontier.pop()):
            assert letter_id not in done_a
            if "start_a" not in actions and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert restarted == {0}


class _TableEnvironment(ProductEnvironment):
    """Each state offers the letters of its table rows, in order."""

    def __init__(self, table) -> None:
        super().__init__()
        self.table = table

    def letters(self, env_state, config):
        return [frozenset(letter) for letter, _actions, _succ
                in self.table[config]]


def table_system(table) -> StepSystem:
    """The step system of ``{state: [(letter, actions, successor)]}``
    explored from ``"s0"``: paths that converge on one state with
    different done pulses, which the STG's own keys never do (its
    latched flags are part of the state)."""
    def step(config, letter):
        return next((succ, actions) for row_letter, actions, succ
                    in table[config] if frozenset(row_letter) == letter)
    return StepSystem("table", "s0", step, _TableEnvironment(table))


C_NEEDS_A = [types.SimpleNamespace(src="a", dst="c")]


class TestMustAnalysis:
    """The safety pass on hand-built step systems: one per part of the
    analysis that the STG's path-independent keys cannot exercise."""

    def test_converging_paths_are_intersected(self):
        system = table_system({
            "s0": [({"done_a"}, (), "s1"), ({"done_b"}, (), "s1")],
            "s1": [((), ("start_c",), "s2")],
            "s2": [({"restart"}, (), "s0")]})
        state, row, producer, consumer = _unsafe_start(system, C_NEEDS_A)
        assert (state, producer, consumer) == (1, "a", "c")
        assert row[1] == ("start_c",)
        assert _stuck_state(system) is None

    def test_restart_empties_the_delivered_set(self):
        system = table_system({
            "s0": [({"done_a"}, (), "s1")],
            "s1": [({"restart"}, (), "s2")],
            "s2": [((), ("start_c",), "s3")],
            "s3": [({"restart"}, (), "s0")]})
        assert _unsafe_start(system, C_NEEDS_A)[0] == 2

    def test_a_shrinking_back_edge_is_swept_again(self):
        # s1 is first reached with done_a delivered, then again from
        # the later s2 without it
        system = table_system({
            "s0": [({"done_a"}, (), "s1"), ((), (), "s2")],
            "s1": [((), ("start_c",), "s3")],
            "s2": [((), (), "s1")],
            "s3": [({"restart"}, (), "s0")]})
        assert _unsafe_start(system, C_NEEDS_A)[0] == 1

    def test_a_letter_delivers_in_its_own_row(self):
        system = table_system({
            "s0": [({"done_a"}, ("start_c",), "s1")],
            "s1": [({"restart"}, (), "s0")]})
        assert _unsafe_start(system, C_NEEDS_A) is None


class TestTraceCheckHelpers:
    def test_dependency_anchor_is_first_occurrence(self):
        edges = [types.SimpleNamespace(src="a", dst="b")]
        # replayed start of 'b': the *first* one ran before its
        # producer -- a last-occurrence anchor would miss it
        actions = ["start_b", "start_a", "start_b"]
        assert _dependency_violations(actions, edges) == [("a", "b")]
        assert _dependency_violations(
            ["start_a", "start_b", "start_b"], edges) == []

    def test_dependency_missing_producer_flagged(self):
        edges = [types.SimpleNamespace(src="a", dst="b")]
        assert _dependency_violations(["start_b"], edges) == [("a", "b")]
        assert _dependency_violations([], edges) == []
