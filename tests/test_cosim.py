"""Co-simulation tests: the synthesized system must compute what the
reference interpreter computes -- the end-to-end correctness statement
of the reproduction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import four_band_equalizer, fuzzy_controller, random_task_graph
from repro.comm import refine_communication
from repro.controllers import synthesize_system_controller
from repro.estimate import CostModel
from repro.graph import execute, from_mapping, to_signed
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.sim import CoSimulation, SimError
from repro.stg import build_stg, minimize_stg


def build_system(graph, arch, mapping_overrides=None, stimuli=None,
                 minimize=True, allow_direct=True):
    mapping = {n.name: arch.processor_names[0]
               for n in graph.internal_nodes()}
    mapping.update(mapping_overrides or {})
    partition = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
    schedule = list_schedule(partition, CostModel(graph, arch))
    stg = build_stg(schedule)
    if minimize:
        stg, _ = minimize_stg(stg)
    controller = synthesize_system_controller(stg)
    plan = refine_communication(schedule, arch, allow_direct=allow_direct)
    if stimuli is None:
        stimuli = {n.name: [7 * (i + 1) % 100 for i in range(n.words)]
                   for n in graph.inputs()}
    return CoSimulation(graph, partition, schedule, plan, controller,
                        arch, stimuli), stimuli, schedule


class TestEqualizerCosim:
    def test_matches_reference_pure_software(self):
        graph = four_band_equalizer(words=8)
        sim, stimuli, _ = build_system(graph, minimal_board())
        result = sim.run()
        assert result.outputs["y"] == execute(graph, stimuli)["y"]

    def test_matches_reference_mixed_partition(self):
        graph = four_band_equalizer(words=8)
        sim, stimuli, _ = build_system(
            graph, minimal_board(),
            {"band0": "fpga0", "gain0": "fpga0"})
        result = sim.run()
        assert result.outputs["y"] == execute(graph, stimuli)["y"]

    def test_matches_reference_two_fpgas_direct_channels(self):
        graph = four_band_equalizer(words=8)
        sim, stimuli, _ = build_system(
            graph, cool_board(),
            {"band0": "fpga0", "gain0": "fpga1", "band1": "fpga1"})
        result = sim.run()
        assert result.outputs["y"] == execute(graph, stimuli)["y"]

    def test_unminimized_stg_same_result(self):
        graph = four_band_equalizer(words=8)
        sim_full, stimuli, _ = build_system(
            graph, minimal_board(), {"band0": "fpga0"}, minimize=False)
        sim_mini, _, _ = build_system(
            graph, minimal_board(), {"band0": "fpga0"}, stimuli=stimuli)
        assert sim_full.run().outputs == sim_mini.run().outputs

    def test_cycle_count_in_schedule_ballpark(self):
        graph = four_band_equalizer(words=8)
        sim, _, schedule = build_system(graph, minimal_board(),
                                        {"band0": "fpga0"})
        result = sim.run()
        # event-driven execution with controller overhead: same order of
        # magnitude as the static schedule
        assert schedule.makespan // 3 <= result.cycles \
            <= 5 * schedule.makespan

    def test_bus_only_carries_memory_mapped_traffic(self):
        graph = four_band_equalizer(words=8)
        sim, _, _ = build_system(graph, cool_board(),
                                 {"band0": "fpga0", "gain0": "fpga1"})
        result = sim.run()
        assert result.bus_busy_ticks > 0
        assert result.memory_writes > 0

    def test_missing_io_stimuli_raise_no_stimulus(self):
        graph = four_band_equalizer(words=8)
        sim, _, _ = build_system(graph, minimal_board())
        # sabotage: clear the io stimuli so the input unit cannot run
        sim.units["io"].stimuli.clear()
        with pytest.raises(SimError, match="no stimulus for input 'x'"):
            sim.run()

    def test_deadlock_detection(self):
        graph = four_band_equalizer(words=8)
        sim, _, _ = build_system(graph, minimal_board())
        # sabotage: the first bus write waits on a read that never comes,
        # so its reader stalls until the deadlock bound
        edge = next(e.name for e in sim.graph.edges
                    if sim.partition.resource_of(e.src)
                    != sim.partition.resource_of(e.dst))
        sim.bus.write_interlocks[edge] = {"never_read"}
        with pytest.raises(SimError, match="^deadlock: no progress since"):
            sim.run()


class TestStreamedActivations:
    """CoSimulation.restart / run_stream: the block-processing mode."""

    @staticmethod
    def blocks(graph, count):
        return [{n.name: [(7 * (i + 1) + 13 * block) % 100
                          for i in range(n.words)]
                 for n in graph.inputs()}
                for block in range(count)]

    def test_one_result_per_block_all_matching_reference(self):
        graph = four_band_equalizer(words=8)
        blocks = self.blocks(graph, 3)
        sim, _, _ = build_system(graph, minimal_board(),
                                 {"band0": "fpga0", "gain0": "fpga0"},
                                 stimuli=blocks[0])
        results = sim.run_stream(blocks)
        assert len(results) == len(blocks)
        for block, result in zip(blocks, results):
            assert result.outputs["y"] == execute(graph, block)["y"]
        # cycle counters are cumulative and strictly increasing
        cycles = [r.cycles for r in results]
        assert cycles == sorted(cycles) and len(set(cycles)) == len(cycles)

    def test_streamed_blocks_match_fresh_runs(self):
        graph = four_band_equalizer(words=8)
        blocks = self.blocks(graph, 2)
        sim, _, _ = build_system(graph, minimal_board(), stimuli=blocks[0])
        streamed = sim.run_stream(blocks)
        # activation 2 through the restart path computes exactly what a
        # cold simulation of the same block computes, in the same time
        fresh, _, _ = build_system(graph, minimal_board(),
                                   stimuli=blocks[1])
        fresh_result = fresh.run()
        assert streamed[1].outputs == fresh_result.outputs
        assert streamed[1].cycles - streamed[0].cycles \
            == pytest.approx(fresh_result.cycles, abs=2)

    def test_premature_restart_raises(self):
        graph = four_band_equalizer(words=8)
        blocks = self.blocks(graph, 2)
        sim, _, _ = build_system(graph, minimal_board(), stimuli=blocks[0])
        with pytest.raises(SimError, match="before the activation"):
            sim.restart(blocks[1])
        # a partially-run system is still premature
        for _ in range(5):
            sim.step()
        with pytest.raises(SimError, match="before the activation"):
            sim.restart(blocks[1])


class TestFuzzyCosim:
    @pytest.mark.parametrize("hw_nodes", [
        (),
        ("fz_e", "fz_de"),
        ("rule00", "rule01", "rule02", "agg0a", "agg0"),
        ("defuzz", "scale_u"),
    ])
    def test_control_surface_points_match(self, hw_nodes):
        graph = fuzzy_controller()
        arch = cool_board()
        mapping = {n: ("fpga0" if i % 2 == 0 else "fpga1")
                   for i, n in enumerate(hw_nodes)}
        for err, derr in ((-100, 50), (0, 0), (80, -80)):
            stimuli = {"err": [err & 0xFFFF], "derr": [derr & 0xFFFF]}
            sim, _, _ = build_system(graph, arch, mapping, stimuli=stimuli)
            result = sim.run()
            expected = execute(graph, stimuli)
            assert result.outputs["u"] == expected["u"], \
                f"hw={hw_nodes} err={err} derr={derr}"

    def test_signed_interpretation_sensible(self):
        graph = fuzzy_controller()
        stimuli = {"err": [(-120) & 0xFFFF], "derr": [(-120) & 0xFFFF]}
        sim, _, _ = build_system(graph, cool_board(), {"fz_e": "fpga0"},
                                 stimuli=stimuli)
        result = sim.run()
        assert to_signed(result.outputs["u"][0], 16) < 0


class TestCosimPropertyBased:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=8, max_value=24),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=0, max_value=300))
    def test_random_systems_match_reference(self, n, gseed, pseed):
        graph = random_task_graph(n, seed=gseed)
        arch = cool_board()
        rng = random.Random(pseed)
        mapping = {node.name: rng.choice(arch.resource_names)
                   for node in graph.internal_nodes()}
        stimuli = {node.name: [rng.randrange(0, 1 << 15)
                               for _ in range(node.words)]
                   for node in graph.inputs()}
        sim, _, _ = build_system(graph, arch, mapping, stimuli=stimuli)
        result = sim.run()
        expected = execute(graph, stimuli)
        for out in graph.outputs():
            assert result.outputs[out.name] == expected[out.name]

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_stats_consistent(self, seed):
        graph = random_task_graph(12, seed=seed)
        arch = cool_board()
        sim, _, _ = build_system(graph, arch, {})
        result = sim.run()
        assert result.cycles > 0
        assert all(v >= 0 for v in result.unit_busy_ticks.values())
        assert result.memory_reads >= 0
