"""Tests for verified composition: product-of-controllers ≡ minimized STG.

Covers the production check on the bundled apps (step systems + pair
fixpoint, no state bound), the ``verify`` pipeline stage
(FlowResult exposure + fingerprint caching) and the detector's teeth:
every tampered, deadlocked and schedule-broken design must be rejected
by both the production path and the explicit weak-bisimulation oracle,
with a concrete distinguishing trace.
"""

import hashlib
import json
import types

import pytest

from test_composition_properties import build_design

from repro.apps import dct_stage, four_band_equalizer, fuzzy_controller
from repro.automata import AutomataError, SynchronousComposition
from repro.controllers import (Fsm, SystemController,
                               synthesize_system_controller,
                               verify_composition)
from repro.automata.product import reachable_automaton
from repro.controllers.verify import (_controller_stepper, _stg_stepper,
                                      controller_step_system,
                                      explicit_oracle, stg_step_system)
from repro.estimate import CostModel
from repro.flow import CoolFlow
from repro.graph import from_mapping
from repro.partition import GreedyPartitioner
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.stg import (StateKind, Stg, StgState, StgTransition, build_stg,
                       minimize_stg)
from repro.workloads import workload_suite


def implementation(graph, arch, hw_nodes=()):
    mapping = {}
    for node in graph.internal_nodes():
        mapping[node.name] = arch.fpga_names[0] if node.name in hw_nodes \
            else arch.processor_names[0]
    partition = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
    schedule = list_schedule(partition, CostModel(graph, arch))
    mini, _ = minimize_stg(build_stg(schedule))
    return graph, mini, synthesize_system_controller(mini)


def tamper(controller):
    """Drop the first ``start_*`` action of one sequencer."""
    resource, sequencer = next((r, f)
                               for r, f in controller.sequencers.items()
                               if any(a.startswith("start_")
                                      for a in f.outputs))
    tampered = Fsm(sequencer.name)
    for state in sequencer.states:
        tampered.add_state(state,
                           sequencer.state_outputs.get(state, ()))
    tampered.initial = sequencer.initial
    dropped = False
    for t in sequencer.transitions:
        actions = t.actions
        if not dropped and any(a.startswith("start_") for a in actions):
            actions = tuple(a for a in actions
                            if not a.startswith("start_"))
            dropped = True
        tampered.add_transition(t.src, t.dst, t.conditions, actions)
    assert dropped
    return SystemController(
        controller.name, controller.phase_fsm,
        {**controller.sequencers, resource: tampered},
        controller.done_flags)


BUNDLED = [
    (four_band_equalizer(words=8), minimal_board(), ("band0", "gain0")),
    (fuzzy_controller(), cool_board(), ("fz_e", "defuzz")),
    (dct_stage(), minimal_board(), ("s0", "s1")),
]


class TestSymbolicTier:
    @pytest.mark.parametrize("graph,arch,hw", BUNDLED,
                             ids=lambda value: getattr(value, "name", None))
    def test_bundled_apps_proved_equivalent(self, graph, arch, hw):
        graph, mini, controller = implementation(graph, arch, hw)
        check = verify_composition(mini, controller, graph=graph)
        assert check.equivalent, check.mismatches
        assert check.tier == "symbolic"
        assert check.oracle is None  # production never runs the oracle
        assert check.pairs_checked > 0
        # one projection per processing unit plus one per memory command
        assert check.projections_checked > len(controller.sequencers)
        assert check.product_states > len(controller.phase_fsm.states)
        assert check.reference_states > len(controller.phase_fsm.states)
        assert check.starts_checked >= len(graph.nodes)

    def test_restart_loop_is_part_of_the_product(self):
        _, mini, controller = implementation(*BUNDLED[0])
        reference = stg_step_system(mini)
        for system in (controller_step_system(controller), reference):
            loops = [succ for _state, letter, _actions, succ
                     in system.iter_rows()
                     if "restart" in system.letter_of(letter)]
            assert loops, f"{system.name} has no restart edge"

    def test_streams_activations_through_restart(self):
        # every restart edge returns its side to the initial component
        # states, so the one reachable graph covers every stream length
        # of back-to-back activations
        _, mini, controller = implementation(*BUNDLED[0])
        reference = stg_step_system(mini)
        for system, view in ((controller_step_system(controller),
                              SynchronousComposition.component_states),
                             (reference, lambda snapshot: snapshot)):
            restarted = {view(system.key_of(succ)[0])
                         for _state, letter, _actions, succ
                         in system.iter_rows()
                         if "restart" in system.letter_of(letter)}
            assert restarted == {view(system.key_of(0)[0])}, system.name

    def test_tampered_controller_fails_every_tier(self):
        graph, mini, controller = implementation(*BUNDLED[0])
        tampered = tamper(controller)
        # production, with a concrete shortest distinguishing trace in
        # ?letter/!action form
        check = verify_composition(mini, tampered, graph=graph)
        assert check.tier == "symbolic"
        assert not check.equivalent
        trace_mismatches = [m for m in check.mismatches
                            if "not weakly trace-equivalent" in m]
        assert trace_mismatches
        assert any("trace " in m and " is possible only in " in m
                   for m in trace_mismatches)
        assert any("!start_" in m for m in trace_mismatches)
        # the explicit oracle independently, agreeing with production
        explicit = explicit_oracle(mini, tampered, graph=graph)
        assert explicit.tier == "bisimulation"
        assert not explicit.equivalent
        assert explicit.oracle == "agrees"
        assert any("not weakly bisimilar" in m for m in explicit.mismatches)

    def test_unminimized_stg_also_equivalent(self):
        graph = four_band_equalizer(words=8)
        mapping = {n.name: minimal_board().processor_names[0]
                   for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping,
                                 minimal_board().fpga_names,
                                 minimal_board().processor_names)
        schedule = list_schedule(partition,
                                 CostModel(graph, minimal_board()))
        stg = build_stg(schedule)
        controller = synthesize_system_controller(stg)
        check = verify_composition(stg, controller, graph=graph)
        assert check.equivalent, check.mismatches
        assert check.tier == "symbolic"

    def test_fixpoint_valve_raises_instead_of_falling_back(self,
                                                          monkeypatch):
        # a violated determinacy contract (simulated by shrinking the
        # pair-fixpoint safety valve) is an error, not a weaker verdict
        import repro.automata.symbolic as symbolic
        graph, mini, controller = implementation(*BUNDLED[0])
        monkeypatch.setattr(symbolic, "MAX_PAIR_FIXPOINT", 1)
        with pytest.raises(AutomataError, match="pair fixpoint exceeds"):
            verify_composition(mini, controller, graph=graph)

    def test_mirrored_deadlock_detected(self):
        # an STG stuck behind an unsatisfiable guard, faithfully
        # mirrored by its controller: every projection is equivalent
        # (both sides deadlock identically), so completion must be
        # checked structurally -- no restart-admissible configuration
        stg = Stg("deadlock")
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        stg.add_state(StgState("X", StateKind.GLOBAL_EXEC))
        stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
        stg.add_state(StgState("r_sw", StateKind.RESET, resource="sw"))
        stg.add_state(StgState("w_a", StateKind.WAIT, node="a",
                               resource="sw"))
        stg.add_state(StgState("x_a", StateKind.EXEC, node="a",
                               resource="sw"))
        stg.add_state(StgState("d_a", StateKind.DONE, node="a",
                               resource="sw"))
        stg.initial = "R"
        stg.add_transition(StgTransition("R", "r_sw",
                                         actions=("reset_sw",)))
        stg.add_transition(StgTransition("r_sw", "X"))
        stg.add_transition(StgTransition("X", "w_a"))
        # 'ghost' never starts, so done_ghost is never admissible
        stg.add_transition(StgTransition("w_a", "x_a",
                                         conditions=("done_ghost",),
                                         actions=("start_a",)))
        stg.add_transition(StgTransition("x_a", "d_a",
                                         conditions=("done_a",)))
        stg.add_transition(StgTransition("d_a", "D"))
        controller = synthesize_system_controller(stg)
        for check in (verify_composition(stg, controller),
                      explicit_oracle(stg, controller)):
            assert not check.equivalent
            assert sum("never completes an activation" in m
                       for m in check.mismatches) == 2
        assert check.oracle == "agrees"

    def test_schedule_sanity_catches_a_mirrored_dependency_bug(self):
        # equivalence alone cannot see a schedule bug both sides
        # mirror faithfully: with a (fabricated) reversed dependency
        # the STG's own trace must fail the task-graph sanity check
        # even though controllers ≡ STG holds
        graph, mini, controller = implementation(*BUNDLED[0])
        reversed_edge = types.SimpleNamespace(
            edges=[types.SimpleNamespace(src="gain0", dst="band0")])
        for check in (verify_composition(mini, controller,
                                         graph=reversed_edge),
                      explicit_oracle(mini, controller,
                                      graph=reversed_edge)):
            assert not check.equivalent
            assert any("schedule sanity" in m for m in check.mismatches)
        assert check.oracle == "agrees"

    def test_restart_cycle_emissions_are_not_a_blind_spot(self):
        # a command emitted during the restart cycle itself must be
        # caught, not vanish between two activations
        graph, mini, controller = implementation(*BUNDLED[0])
        phase = controller.phase_fsm
        noisy = Fsm(phase.name)
        for state in phase.states:
            noisy.add_state(state, phase.state_outputs.get(state, ()))
        noisy.initial = phase.initial
        for t in phase.transitions:
            actions = t.actions
            if "restart" in t.conditions:
                actions = actions + ("write_spurious",)
            noisy.add_transition(t.src, t.dst, t.conditions, actions)
        broken = SystemController(controller.name, noisy,
                                  controller.sequencers,
                                  controller.done_flags)
        for check in (verify_composition(mini, broken, graph=graph),
                      explicit_oracle(mini, broken, graph=graph)):
            assert not check.equivalent
            assert any(m.startswith("projection 'dsp0'")
                       and "?restart !reset_dsp0" in m
                       for m in check.mismatches), check.mismatches
        assert check.oracle == "agrees"

    def test_summary_round_trips_tier_fields(self):
        graph, mini, controller = implementation(*BUNDLED[0])
        check = verify_composition(mini, controller, graph=graph)
        summary = check.summary()
        assert summary["tier"] == "symbolic"
        assert summary["oracle"] is None
        assert summary["pairs_checked"] == check.pairs_checked
        assert summary["mismatches"] == []

    def test_bad_arguments_rejected(self):
        # the check has one path: no strategy, bound or sampling knobs
        _, mini, controller = implementation(*BUNDLED[0])
        for removed in ("strategy", "max_states", "activations",
                        "environments", "max_cycles"):
            with pytest.raises(TypeError):
                verify_composition(mini, controller, **{removed: 1})


class TestExplicitOracle:
    @pytest.mark.parametrize("graph,arch,hw", BUNDLED,
                             ids=lambda value: getattr(value, "name", None))
    def test_bundled_apps_agree(self, graph, arch, hw):
        graph, mini, controller = implementation(graph, arch, hw)
        check = explicit_oracle(mini, controller, graph=graph)
        assert check.equivalent, check.mismatches
        assert check.tier == "bisimulation"
        assert check.oracle == "agrees"
        # the materialized automata have the step systems' state counts
        production = verify_composition(mini, controller, graph=graph)
        assert check.product_states == production.product_states
        assert check.reference_states == production.reference_states
        assert check.projections_checked == production.projections_checked

    def test_suite_oracle_input_is_pinned(self):
        # both sides' materialized automata and the oracle's verdict on
        # the 20-design test suite: a change to how the step systems are
        # explored or converted must keep every state, label and edge
        digest = hashlib.sha256()
        states = 0
        for spec in workload_suite(20, seed=5):
            graph, _board, _partition, schedule, _plan, controller = \
                build_design(spec)
            stg, _ = minimize_stg(build_stg(schedule))
            composition, *stepper = _controller_stepper(controller)
            for name, (initial, step, environment) in (
                    ("controller_composition",
                     (composition.initial, *stepper)),
                    (f"{stg.name}_steps", _stg_stepper(stg))):
                automaton = reachable_automaton(name, initial, step,
                                                environment=environment)
                states += len(automaton)
                digest.update(automaton.fingerprint().encode())
            digest.update(json.dumps(
                explicit_oracle(stg, controller, graph).summary(),
                sort_keys=True).encode())
        assert states == 2920
        assert digest.hexdigest() == SUITE_ORACLE_SHA256


#: sha256 of ``reachable_automaton(...).fingerprint()`` for both sides of
#: every ``workload_suite(20, seed=5)`` design (greedily partitioned on
#: ``minimal_board()``), followed by ``explicit_oracle(...).summary()``.
#: The state keys' text is part of the digest: on the controller side
#: the composition key of ints ``(states, flags, internal, consumed)``,
#: on the STG side the ``TokenExecutor`` run state of ints ``(latched,
#: active, fired)``, and on both the in-flight bitset of the environment.
SUITE_ORACLE_SHA256 = \
    "bee7470d3722757d04987c734fb001e44a0e7ba0755182b5762ff22f1c9fbc2d"


class TestVerifyFlowStage:
    @pytest.fixture(scope="class")
    def flow_and_result(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
        return flow, graph, flow.run(graph)

    def test_composition_check_exposed(self, flow_and_result):
        _, _, result = flow_and_result
        assert result.composition_check is not None
        assert result.composition_check.equivalent
        assert result.composition_check.tier == "symbolic"
        assert result.stage_runs.get("verify") == 1
        assert "verify" in result.stage_seconds

    def test_report_mentions_verification(self, flow_and_result):
        _, _, result = flow_and_result
        assert "verified composition" in result.report()
        assert "symbolic fixpoint" in result.report()
        assert "BDD nodes" not in result.report()
        assert "oracle" not in result.report()

    def test_stage_is_fingerprint_cached(self, flow_and_result):
        flow, graph, _ = flow_and_result
        warm = flow.run(graph)
        assert warm.composition_check is not None
        assert warm.composition_check.equivalent
        assert warm.stage_runs.get("verify", 0) == 0


class TestObservableClassDeterminism:
    """Pin: the symbolic verdict must not depend on hash order.

    ``_observable_classes`` seeds its per-unit classes from the distinct
    resource names, and the greedy packing of memory commands runs over
    the resulting class list -- if unordered-set iteration ever escaped
    into that list (the site at verify.py previously iterated
    ``set(resource_of.values())`` unsorted), two hosts could check and
    label different projections.  Downstream, the symbolic tier's
    pair-fixpoint exploration must be equally hash-independent: the
    pinned evidence is the full stats row of a symbolic run (pairs
    explored per class and reachable step-system sizes).
    Computing all of it under two different ``PYTHONHASHSEED`` values
    must give identical results.
    """

    SCRIPT = """
import json
from repro.apps import four_band_equalizer
from repro.controllers import synthesize_system_controller
from repro.controllers.verify import (_node_resources, _observable_classes,
                                      _system_alphabet,
                                      controller_step_system,
                                      stg_step_system)
from repro.automata import symbolic_trace_equivalence
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.platform import minimal_board
from repro.schedule import list_schedule
from repro.stg import build_stg, minimize_stg

graph, arch = four_band_equalizer(words=8), minimal_board()
mapping = {node.name: arch.fpga_names[0]
           if node.name in ("band0", "gain0") else arch.processor_names[0]
           for node in graph.internal_nodes()}
partition = from_mapping(graph, mapping, arch.fpga_names,
                         arch.processor_names)
schedule = list_schedule(partition, CostModel(graph, arch))
mini, _ = minimize_stg(build_stg(schedule))
controller = synthesize_system_controller(mini)
product = controller_step_system(controller)
reference = stg_step_system(mini)
actions, bursts = _system_alphabet((reference, product))
classes = _observable_classes(actions, bursts, _node_resources(controller))
result = symbolic_trace_equivalence(reference, product, classes)
print(json.dumps({
    "classes": [[label, sorted(members)] for label, members in classes],
    "equivalent": result.equivalent,
    "pairs": [[v.label, v.pairs] for v in result.verdicts],
    "states": [result.left_states, result.right_states],
}))
"""

    def _classes_under_hash_seed(self, seed):
        import os
        import subprocess
        import sys
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        completed = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                   env=env, capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
        import json
        return json.loads(completed.stdout)

    def test_symbolic_run_identical_across_hash_seeds(self):
        first = self._classes_under_hash_seed(0)
        second = self._classes_under_hash_seed(4242)
        assert first == second
        assert first["equivalent"]
        assert len(first["classes"]) > 1  # the partition is non-trivial
        assert all(pairs > 0 for _label, pairs in first["pairs"])
