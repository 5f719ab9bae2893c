"""Unit + property tests for STG construction, execution and minimization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import four_band_equalizer, fuzzy_controller, random_task_graph
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.stg import (StateKind, Stg, StgError, StgExecutor, StgState,
                       StgTransition, build_stg, minimize_stg, stg_summary_text,
                       stg_to_dot)


def make_setup(graph, arch, hw_nodes=()):
    mapping = {}
    for node in graph.internal_nodes():
        mapping[node.name] = arch.fpga_names[0] if node.name in hw_nodes \
            else arch.processor_names[0]
    partition = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
    model = CostModel(graph, arch)
    schedule = list_schedule(partition, model)
    return partition, schedule


@pytest.fixture(scope="module")
def equalizer_stg():
    graph = four_band_equalizer(words=8)
    partition, schedule = make_setup(graph, minimal_board(),
                                     {"band0", "gain0", "band1"})
    return graph, partition, schedule, build_stg(schedule)


def auto_run(stg, max_rounds=500):
    """Drive an STG with an ideal environment: every started node
    reports done in the following step.  Returns the executor."""
    ex = StgExecutor(stg)
    pending: set[str] = set()
    for _ in range(max_rounds):
        actions = ex.step(pending)
        pending = {"done_" + a[len("start_"):]
                   for a in actions if a.startswith("start_")}
        if ex.done:
            break
        if not actions and not pending:
            break
    return ex


def flat_actions(ex):
    return ex.emitted


def starts_by_resource(ex, partition):
    """Project the start-action sequence onto each processing unit.

    Concurrent chains may interleave differently between two equivalent
    STGs; the per-unit projections and the data-dependency order are the
    observable behaviour.
    """
    projected: dict[str, list[str]] = {}
    for action in flat_actions(ex):
        if not action.startswith("start_"):
            continue
        node = action[len("start_"):]
        resource = partition.resource_of(node)
        projected.setdefault(resource, []).append(node)
    return projected


def assert_equivalent_traces(ex_a, ex_b, partition):
    graph = partition.graph
    assert starts_by_resource(ex_a, partition) == \
        starts_by_resource(ex_b, partition)
    assert sorted(flat_actions(ex_a)) == sorted(flat_actions(ex_b))
    for ex in (ex_a, ex_b):
        starts = [a for a in flat_actions(ex) if a.startswith("start_")]
        position = {a[len("start_"):]: i for i, a in enumerate(starts)}
        for edge in graph.edges:
            assert position[edge.src] < position[edge.dst]


class TestStgStates:
    def test_state_kind_constraints(self):
        with pytest.raises(StgError):
            StgState("w_a", StateKind.WAIT)  # node missing
        with pytest.raises(StgError):
            StgState("r_x", StateKind.RESET)  # resource missing
        with pytest.raises(StgError):
            StgState("R", StateKind.GLOBAL_RESET, node="a")

    def test_duplicate_state_rejected(self):
        stg = Stg()
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        with pytest.raises(StgError):
            stg.add_state(StgState("R", StateKind.GLOBAL_RESET))

    def test_transition_unknown_state_rejected(self):
        stg = Stg()
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        with pytest.raises(StgError):
            stg.add_transition(StgTransition("R", "ghost"))

    def test_conditions_and_actions_sorted(self):
        t = StgTransition("a", "b", conditions=("z", "a"), actions=("y", "b"))
        assert t.conditions == ("a", "z")
        assert t.actions == ("b", "y")


class TestBuilder:
    def test_paper_state_count(self, equalizer_stg):
        graph, partition, schedule, stg = equalizer_stg
        n = len(graph.nodes)
        n_res = len(partition.resources_used)
        # 3 states per node + 1 reset per resource + global X, R, D
        assert len(stg) == 3 * n + n_res + 3

    def test_kind_counts(self, equalizer_stg):
        graph, partition, _, stg = equalizer_stg
        n = len(graph.nodes)
        assert len(stg.states_of_kind(StateKind.WAIT)) == n
        assert len(stg.states_of_kind(StateKind.EXEC)) == n
        assert len(stg.states_of_kind(StateKind.DONE)) == n
        assert len(stg.states_of_kind(StateKind.RESET)) == \
            len(partition.resources_used)
        for kind in (StateKind.GLOBAL_RESET, StateKind.GLOBAL_EXEC,
                     StateKind.GLOBAL_DONE):
            assert len(stg.states_of_kind(kind)) == 1

    def test_initial_state_is_global_reset(self, equalizer_stg):
        *_, stg = equalizer_stg
        assert stg.initial == "R"
        assert stg.state("R").kind == StateKind.GLOBAL_RESET

    def test_validates_clean(self, equalizer_stg):
        *_, stg = equalizer_stg
        assert stg.validate() == []

    def test_cross_resource_guards_present(self, equalizer_stg):
        graph, partition, _, stg = equalizer_stg
        for edge in partition.cut_edges():
            wait_exits = stg.out_transitions(f"w_{edge.dst}")
            assert len(wait_exits) == 1
            assert f"done_{edge.src}" in wait_exits[0].conditions
            assert f"read_{edge.name}" in wait_exits[0].actions

    def test_local_edges_have_no_guards(self, equalizer_stg):
        graph, partition, _, stg = equalizer_stg
        for edge in partition.local_edges():
            wait_exits = stg.out_transitions(f"w_{edge.dst}")
            assert f"done_{edge.src}" not in wait_exits[0].conditions

    def test_write_actions_on_exec_exit(self, equalizer_stg):
        graph, partition, _, stg = equalizer_stg
        for edge in partition.cut_edges():
            exec_exits = stg.out_transitions(f"x_{edge.src}")
            assert len(exec_exits) == 1
            assert f"write_{edge.name}" in exec_exits[0].actions
            assert f"done_{edge.src}" in exec_exits[0].conditions

    def test_schedule_chains_follow_resource_order(self, equalizer_stg):
        _, partition, schedule, stg = equalizer_stg
        for resource in partition.resources_used:
            order = [e.node for e in schedule.on_resource(resource)]
            for prev, nxt in zip(order, order[1:]):
                targets = [t.dst for t in stg.out_transitions(f"d_{prev}")]
                assert f"w_{nxt}" in targets

    def test_render_helpers(self, equalizer_stg):
        *_, stg = equalizer_stg
        dot = stg_to_dot(stg)
        assert "digraph" in dot and "w_band0" in dot
        assert "states" in stg_summary_text(stg)


class TestExecutor:
    def test_runs_to_completion(self, equalizer_stg):
        *_, stg = equalizer_stg
        ex = auto_run(stg)
        assert ex.done

    def test_every_node_started_exactly_once(self, equalizer_stg):
        graph, *_, stg = equalizer_stg
        ex = auto_run(stg)
        starts = [a for a in flat_actions(ex) if a.startswith("start_")]
        assert sorted(starts) == sorted(f"start_{n.name}"
                                        for n in graph.nodes)

    def test_start_order_respects_data_dependencies(self, equalizer_stg):
        graph, *_, stg = equalizer_stg
        ex = auto_run(stg)
        starts = [a for a in flat_actions(ex) if a.startswith("start_")]
        position = {a[len("start_"):]: i for i, a in enumerate(starts)}
        for edge in graph.edges:
            assert position[edge.src] < position[edge.dst]

    def test_resets_issued_first(self, equalizer_stg):
        _, partition, _, stg = equalizer_stg
        ex = auto_run(stg)
        actions = flat_actions(ex)
        last_reset = max(i for i, a in enumerate(actions)
                         if a.startswith("reset_"))
        first_start = min(i for i, a in enumerate(actions)
                          if a.startswith("start_"))
        assert last_reset < first_start
        resets = {a for a in actions if a.startswith("reset_")}
        assert resets == {f"reset_{r}" for r in partition.resources_used}

    def test_no_progress_without_done_signals(self, equalizer_stg):
        *_, stg = equalizer_stg
        ex = StgExecutor(stg)
        ex.step()  # resets fire, first starts issued
        stuck_actions = ex.step()  # nothing new: units never report done
        assert stuck_actions == []
        assert not ex.done

    def test_reset_restarts_cleanly(self, equalizer_stg):
        *_, stg = equalizer_stg
        ex = auto_run(stg)
        first_trace = list(ex.emitted)
        ex.reset()
        pending: set[str] = set()
        for _ in range(500):
            actions = ex.step(pending)
            pending = {"done_" + a[len("start_"):]
                       for a in actions if a.startswith("start_")}
            if ex.done:
                break
        assert ex.emitted == first_trace


class TestMinimization:
    def test_states_reduced(self, equalizer_stg):
        *_, stg = equalizer_stg
        mini, report = minimize_stg(stg)
        assert report.states_after < report.states_before
        assert len(mini) == report.states_after
        assert report.reduction > 0.3

    def test_minimized_still_valid(self, equalizer_stg):
        *_, stg = equalizer_stg
        mini, _ = minimize_stg(stg)
        assert mini.validate() == []

    def test_behaviour_preserved(self, equalizer_stg):
        _, partition, _, stg = equalizer_stg
        mini, _ = minimize_stg(stg)
        ex_full = auto_run(stg)
        ex_mini = auto_run(mini)
        assert ex_full.done and ex_mini.done
        assert_equivalent_traces(ex_full, ex_mini, partition)

    def test_guarded_waits_survive(self, equalizer_stg):
        _, partition, _, stg = equalizer_stg
        mini, _ = minimize_stg(stg)
        guarded = {f"w_{e.dst}" for e in partition.cut_edges()}
        for name in guarded:
            assert name in mini

    def test_equivalent_merge_on_synthetic_stg(self):
        # two identical parallel chains on the same resource merge
        stg = Stg("synthetic")
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
        for name in ("a", "b"):
            stg.add_state(StgState(f"x_{name}", StateKind.EXEC,
                                   node=name, resource="cpu"))
        stg.initial = "R"
        for name in ("a", "b"):
            stg.add_transition(StgTransition("R", f"x_{name}",
                                             actions=("go",)))
            stg.add_transition(StgTransition(f"x_{name}", "D",
                                             conditions=("fin",)))
        mini, report = minimize_stg(stg, contract_waits=False,
                                    contract_dones=False)
        assert report.equivalents_merged == 1
        assert len(mini) == 3

    def test_partial_minimization_flags(self, equalizer_stg):
        *_, stg = equalizer_stg
        only_waits, r1 = minimize_stg(stg, contract_dones=False,
                                      merge_equivalent=False)
        assert r1.dones_contracted == 0 and r1.waits_contracted > 0
        only_dones, r2 = minimize_stg(stg, contract_waits=False,
                                      merge_equivalent=False)
        assert r2.waits_contracted == 0 and r2.dones_contracted > 0


class TestStgPropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=8, max_value=30),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=0, max_value=500))
    def test_random_stg_minimization_preserves_behaviour(self, n, gseed,
                                                         pseed):
        graph = random_task_graph(n, seed=gseed)
        arch = cool_board()
        rng = random.Random(pseed)
        mapping = {node.name: rng.choice(arch.resource_names)
                   for node in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        schedule = list_schedule(partition, CostModel(graph, arch))
        stg = build_stg(schedule)
        assert stg.validate() == []
        mini, report = minimize_stg(stg)
        assert report.states_after <= report.states_before
        ex_full, ex_mini = auto_run(stg), auto_run(mini)
        assert ex_full.done and ex_mini.done
        assert_equivalent_traces(ex_full, ex_mini, partition)

    def test_fuzzy_stg_counts(self):
        graph = fuzzy_controller()
        partition, schedule = make_setup(
            graph, cool_board(), {"fz_e", "fz_de", "defuzz"})
        stg = build_stg(schedule)
        # 31 nodes -> 93 node states (+resources +3 global)
        assert len(stg.states_of_kind(StateKind.WAIT)) == 31
        mini, report = minimize_stg(stg)
        assert report.states_after < report.states_before
