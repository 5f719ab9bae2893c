"""Tests for system/datapath/IO controllers and bus arbiters."""

import pytest

from repro.apps import four_band_equalizer, fuzzy_controller
from repro.controllers import (ControllerHarness, FixedPriorityArbiter,
                               RoundRobinArbiter,
                               synthesize_datapath_controller,
                               synthesize_io_controller,
                               synthesize_system_controller)
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.stg import (StateKind, Stg, StgError, StgExecutor, StgState,
                       StgTransition, build_stg, global_state, minimize_stg)


def make_schedule(graph, arch, hw_nodes=()):
    mapping = {}
    for node in graph.internal_nodes():
        mapping[node.name] = arch.fpga_names[0] if node.name in hw_nodes \
            else arch.processor_names[0]
    partition = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
    return partition, list_schedule(partition, CostModel(graph, arch))


@pytest.fixture(scope="module")
def equalizer_controller():
    graph = four_band_equalizer(words=8)
    partition, schedule = make_schedule(graph, minimal_board(),
                                        {"band0", "gain0"})
    stg = build_stg(schedule)
    mini, _ = minimize_stg(stg)
    controller = synthesize_system_controller(mini)
    return graph, partition, schedule, stg, mini, controller


class TestSystemController:
    def test_one_sequencer_per_used_resource(self, equalizer_controller):
        _, partition, *_, controller = equalizer_controller
        assert set(controller.sequencers) == set(partition.resources_used)

    def test_fewer_states_than_full_stg(self, equalizer_controller):
        *_, stg, _, controller = equalizer_controller
        assert controller.total_states < len(stg) + len(controller.fsms)

    def test_outputs_cover_all_commands(self, equalizer_controller):
        graph, partition, *_, controller = equalizer_controller
        outputs = set(controller.outputs)
        for node in graph.nodes:
            assert f"start_{node.name}" in outputs
        for edge in partition.cut_edges():
            assert f"write_{edge.name}" in outputs
            assert f"read_{edge.name}" in outputs

    def test_inputs_are_done_signals(self, equalizer_controller):
        graph, *_, controller = equalizer_controller
        inputs = set(controller.inputs)
        done = {f"done_{n.name}" for n in graph.nodes}
        assert done <= inputs | {"restart"}

    def test_harness_completes_with_ideal_environment(
            self, equalizer_controller):
        *_, controller = equalizer_controller
        harness = ControllerHarness(controller)
        actions = harness.run(
            lambda newly: {f"done_{n}" for n in newly})
        assert harness.system_done
        assert "system_done" in actions

    def test_every_node_started_once(self, equalizer_controller):
        graph, *_, controller = equalizer_controller
        harness = ControllerHarness(controller)
        actions = harness.run(lambda newly: {f"done_{n}" for n in newly})
        starts = [a for a in actions if a.startswith("start_")]
        assert sorted(starts) == sorted(f"start_{n.name}"
                                        for n in graph.nodes)

    def test_harness_stalls_without_done(self, equalizer_controller):
        *_, controller = equalizer_controller
        harness = ControllerHarness(controller)
        for _ in range(20):
            harness.cycle()
        assert not harness.system_done

    def test_matches_stg_executor_behaviour(self, equalizer_controller):
        """The synthesized controller must reproduce the STG semantics."""
        graph, partition, _, stg, *_ , controller = equalizer_controller
        # run STG executor with the ideal environment
        ex = StgExecutor(stg)
        pending: set[str] = set()
        for _ in range(500):
            acts = ex.step(pending)
            pending = {"done_" + a[len("start_"):]
                       for a in acts if a.startswith("start_")}
            if ex.done:
                break
        stg_actions = ex.emitted

        harness = ControllerHarness(controller)
        ctl_actions = harness.run(lambda newly: {f"done_{n}"
                                                 for n in newly})

        def per_resource_starts(actions):
            projected: dict[str, list[str]] = {}
            for a in actions:
                if a.startswith("start_"):
                    node = a[len("start_"):]
                    projected.setdefault(
                        partition.resource_of(node), []).append(node)
            return projected

        assert per_resource_starts(stg_actions) == \
            per_resource_starts(ctl_actions)
        # identical command sets overall (controller adds system_done)
        assert set(stg_actions) <= set(ctl_actions)

    def test_restart_runs_again(self, equalizer_controller):
        *_, controller = equalizer_controller
        harness = ControllerHarness(controller)
        harness.run(lambda newly: {f"done_{n}" for n in newly})
        assert harness.system_done
        harness.cycle(external={"restart"})
        assert not harness.system_done
        actions = harness.run(lambda newly: {f"done_{n}" for n in newly})
        assert harness.system_done
        assert any(a.startswith("start_") for a in actions)

    def test_works_on_unminimized_stg(self, equalizer_controller):
        *_, stg, _, _ = equalizer_controller
        controller = synthesize_system_controller(stg)
        harness = ControllerHarness(controller)
        harness.run(lambda newly: {f"done_{n}" for n in newly})
        assert harness.system_done

    def test_sequencer_fsms_minimized_with_stats(self, equalizer_controller):
        *_, stg, mini, controller = equalizer_controller
        stats = controller.stats()
        assert set(stats["minimization"]) == {f.name
                                              for f in controller.fsms}
        for counts in stats["minimization"].values():
            assert counts["after"] <= counts["before"]
        assert stats["states_saved"] >= 0
        unminimized = synthesize_system_controller(mini, minimize=False)
        assert unminimized.stats()["minimization"] == {}
        for fsm in controller.fsms:
            assert len(fsm.states) <= \
                stats["minimization"][fsm.name]["before"]
        assert controller.total_states <= unminimized.total_states

    def test_controller_fingerprint_is_content_based(self,
                                                     equalizer_controller):
        *_, mini, controller = equalizer_controller
        again = synthesize_system_controller(mini)
        assert controller.fingerprint() == again.fingerprint()

    def test_renamed_global_states_still_project(self):
        """Chain projection anchors on state *kinds*, not the literal
        names "X"/"D" -- a renamed entry/terminal cannot break it."""
        stg = Stg("renamed")
        stg.add_state(StgState("SYS_R", StateKind.GLOBAL_RESET))
        stg.add_state(StgState("SYS_X", StateKind.GLOBAL_EXEC))
        stg.add_state(StgState("SYS_D", StateKind.GLOBAL_DONE))
        stg.add_state(StgState("r_cpu", StateKind.RESET, resource="cpu"))
        stg.add_state(StgState("x_a", StateKind.EXEC, node="a",
                               resource="cpu"))
        stg.initial = "SYS_R"
        stg.add_transition(StgTransition("SYS_R", "r_cpu",
                                         actions=("reset_cpu",)))
        stg.add_transition(StgTransition("r_cpu", "SYS_X"))
        stg.add_transition(StgTransition("SYS_X", "x_a",
                                         actions=("start_a",)))
        stg.add_transition(StgTransition("x_a", "SYS_D",
                                         conditions=("done_a",)))
        controller = synthesize_system_controller(stg)
        assert "x_a" in controller.sequencers["cpu"].states
        harness = ControllerHarness(controller)
        harness.run(lambda newly: {f"done_{n}" for n in newly})
        assert harness.system_done

    def test_global_state_lookup_errors(self):
        stg = Stg("bare")
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        with pytest.raises(StgError, match="no GLOBAL_EXEC"):
            global_state(stg, StateKind.GLOBAL_EXEC)

    def test_cyclic_chain_rejected(self):
        stg = Stg("cyclic")
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        stg.add_state(StgState("X", StateKind.GLOBAL_EXEC))
        stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
        stg.add_state(StgState("x_a", StateKind.EXEC, node="a",
                               resource="cpu"))
        stg.add_state(StgState("x_b", StateKind.EXEC, node="b",
                               resource="cpu"))
        stg.initial = "R"
        stg.add_transition(StgTransition("R", "X"))
        stg.add_transition(StgTransition("X", "x_a"))
        stg.add_transition(StgTransition("x_a", "x_b"))
        stg.add_transition(StgTransition("x_b", "x_a"))  # never reaches D
        stg.add_transition(StgTransition("D", "D"))
        with pytest.raises(StgError, match="revisits"):
            synthesize_system_controller(stg)

    def test_fuzzy_controller_on_cool_board(self):
        graph = fuzzy_controller()
        partition, schedule = make_schedule(graph, cool_board(),
                                            {"fz_e", "defuzz"})
        mini, _ = minimize_stg(build_stg(schedule))
        controller = synthesize_system_controller(mini)
        harness = ControllerHarness(controller)
        actions = harness.run(lambda newly: {f"done_{n}" for n in newly})
        starts = [a for a in actions if a.startswith("start_")]
        assert len(starts) == 31


class TestDatapathController:
    def test_states_one_per_node_plus_idle(self, equalizer_controller):
        _, partition, *_ = equalizer_controller
        latencies = {"band0": 50, "gain0": 20}
        dpc = synthesize_datapath_controller(partition, "fpga0", latencies)
        assert len(dpc.fsm.states) == 3
        assert dpc.nodes == ["band0", "gain0"]

    def test_dispatch_cycle(self, equalizer_controller):
        _, partition, *_ = equalizer_controller
        dpc = synthesize_datapath_controller(partition, "fpga0",
                                             {"band0": 50, "gain0": 20})
        state, outputs = dpc.fsm.step("idle", {"start_band0"})
        assert state == "busy_band0"
        assert "load_count_50" in outputs
        state, outputs = dpc.fsm.step(state, {"count_done"})
        assert state == "idle"
        assert "done_band0" in outputs

    def test_missing_latency_rejected(self, equalizer_controller):
        _, partition, *_ = equalizer_controller
        with pytest.raises(ValueError):
            synthesize_datapath_controller(partition, "fpga0",
                                           {"band0": 50})


class TestIoController:
    def test_ports_enumerated(self):
        graph = four_band_equalizer()
        ioc = synthesize_io_controller(graph)
        assert ioc.input_ports == ("x",)
        assert ioc.output_ports == ("y",)

    def test_sample_handshake(self):
        graph = four_band_equalizer()
        ioc = synthesize_io_controller(graph)
        state, outputs = ioc.fsm.step("idle", {"start_x"})
        assert state == "sample_x"
        assert "sample_x" in outputs
        state, outputs = ioc.fsm.step(state, {"port_ready_x"})
        assert state == "idle"
        assert "done_x" in outputs

    def test_drive_handshake(self):
        graph = four_band_equalizer()
        ioc = synthesize_io_controller(graph)
        state, outputs = ioc.fsm.step("idle", {"start_y"})
        assert state == "drive_y"
        assert "valid_y" in outputs


class TestArbiters:
    def test_fixed_priority_order(self):
        arb = FixedPriorityArbiter(["sysctl", "dsp0", "fpga0"])
        assert arb.grant({"fpga0", "dsp0"}) == "dsp0"
        assert arb.grant({"fpga0"}) == "fpga0"
        assert arb.grant(set()) is None

    def test_round_robin_rotates(self):
        arb = RoundRobinArbiter(["a", "b", "c"])
        assert arb.grant({"a", "b", "c"}) == "a"
        assert arb.grant({"a", "b", "c"}) == "b"
        assert arb.grant({"a", "b", "c"}) == "c"
        assert arb.grant({"a", "b", "c"}) == "a"

    def test_round_robin_no_starvation(self):
        arb = RoundRobinArbiter(["a", "b", "c"])
        winners = [arb.grant({"a", "c"}) for _ in range(6)]
        assert winners.count("a") == 3
        assert winners.count("c") == 3

    def test_unknown_master_rejected(self):
        arb = FixedPriorityArbiter(["a"])
        with pytest.raises(ValueError):
            arb.grant({"ghost"})

    def test_duplicate_masters_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(["a", "a"])

    def test_fsm_export(self):
        arb = FixedPriorityArbiter(["a", "b"])
        fsm = arb.to_fsm()
        assert fsm.validate() == []
        state, _ = fsm.step("idle", {"req_b"})
        assert state == "grant_b"
        # Moore output asserted while residing in the grant state
        _, outputs = fsm.step(state, set())
        assert "gnt_b" in outputs

    def test_reset(self):
        arb = RoundRobinArbiter(["a", "b"])
        arb.grant({"a"})
        arb.reset()
        assert arb.grant({"a", "b"}) == "a"
