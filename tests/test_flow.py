"""Integration tests for the end-to-end COOL flow (paper Fig. 1)."""

import pytest

from repro.apps import four_band_equalizer, fuzzy_controller
from repro.codegen import check_vhdl
from repro.flow import CoolFlow
from repro.graph import execute
from repro.partition import GreedyPartitioner, MilpPartitioner
from repro.platform import cool_board, minimal_board


@pytest.fixture(scope="module")
def equalizer_flow_result():
    graph = four_band_equalizer(words=8)
    stimuli = {"x": [10, 20, 30, 40, 0, 0, 0, 0]}
    return CoolFlow(minimal_board()).run(graph, stimuli=stimuli), \
        graph, stimuli


class TestFlowStages:
    def test_all_stages_timed(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        for stage in ("validate", "partitioning", "stg", "communication",
                      "hls", "controllers", "codegen", "cosim"):
            assert stage in result.stage_seconds
            assert result.stage_seconds[stage] >= 0

    def test_minimization_reduces_states(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        assert result.minimization.states_after < \
            result.minimization.states_before

    def test_cosim_matches_reference(self, equalizer_flow_result):
        result, graph, stimuli = equalizer_flow_result
        assert result.sim_result is not None
        assert result.sim_result.outputs["y"] == \
            execute(graph, stimuli)["y"]

    def test_vhdl_files_all_check(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        assert result.vhdl_files
        for name, text in result.vhdl_files.items():
            assert check_vhdl(text) == [], name

    def test_c_files_for_used_processors(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        if result.partition_result.partition.sw_nodes():
            assert "dsp0.c" in result.c_files

    def test_netlist_valid(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        assert result.netlist.validate() == []

    def test_area_respects_capacity(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        for resource, clbs in result.clbs_per_fpga.items():
            assert clbs <= result.arch.fpga(resource).clb_capacity

    def test_report_mentions_key_facts(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        text = result.report()
        assert "partitioning" in text
        assert "STG" in text
        assert "co-simulation" in text
        assert "design time" in text

    def test_design_time_populated(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        assert result.design_time.total_s > 0
        if result.partition_result.partition.hw_nodes():
            assert result.design_time.hw_synthesis_s > 0


class TestFlowVariants:
    def test_flow_without_stimuli_skips_cosim(self):
        graph = four_band_equalizer(words=8)
        result = CoolFlow(minimal_board()).run(graph)
        assert result.sim_result is None

    def test_flow_with_deadline(self):
        graph = four_band_equalizer(words=8)
        arch = minimal_board()
        free = CoolFlow(arch).run(graph)
        deadline = free.makespan * 2
        result = CoolFlow(arch).run(graph, deadline=deadline)
        assert result.makespan <= deadline

    def test_flow_with_greedy_partitioner(self):
        graph = four_band_equalizer(words=8)
        stimuli = {"x": [5] * 8}
        result = CoolFlow(minimal_board(),
                          partitioner=GreedyPartitioner()).run(
            graph, stimuli=stimuli)
        assert result.sim_result.outputs["y"] == \
            execute(graph, stimuli)["y"]

    def test_flow_without_direct_comm(self):
        graph = four_band_equalizer(words=8)
        stimuli = {"x": [5] * 8}
        result = CoolFlow(cool_board(), allow_direct_comm=False).run(
            graph, stimuli=stimuli)
        assert result.plan.direct() == []
        assert result.sim_result.outputs["y"] == \
            execute(graph, stimuli)["y"]

    def test_flow_without_memory_reuse(self):
        graph = four_band_equalizer(words=8)
        stimuli = {"x": [5] * 8}
        result = CoolFlow(minimal_board(), reuse_memory=False).run(
            graph, stimuli=stimuli)
        assert result.sim_result.outputs["y"] == \
            execute(graph, stimuli)["y"]

    def test_guard_simplification_default_on(self, equalizer_flow_result):
        result, *_ = equalizer_flow_result
        report = result.guard_report
        assert report is not None and report["simplified"]
        assert report["care_sets"] and report["care_fallback"] is None
        assert report["guard_literals_after"] < \
            report["guard_literals_before"]
        assert "guard simplification:" in result.report()
        for text in result.vhdl_files.values():
            assert check_vhdl(text) == []


class TestFuzzyCaseStudy:
    """The Section 3 experiment in miniature (the benchmark runs more)."""

    def test_fuzzy_full_flow_on_paper_board(self):
        graph = fuzzy_controller()
        stimuli = {"err": [30], "derr": [(-60) & 0xFFFF]}
        flow = CoolFlow(cool_board(), partitioner=GreedyPartitioner())
        result = flow.run(graph, stimuli=stimuli)
        assert result.sim_result.outputs["u"] == \
            execute(graph, stimuli)["u"]
        # fits the board: 2 FPGAs with 196 CLBs, 64 kB memory
        for resource, clbs in result.clbs_per_fpga.items():
            assert clbs <= 196
        assert result.plan.memory_map.words_used <= 32 * 1024

    def test_design_time_shape_matches_paper(self):
        """<= ~60 min total, > 90 % in hardware synthesis."""
        graph = fuzzy_controller()
        flow = CoolFlow(cool_board(), partitioner=GreedyPartitioner())
        result = flow.run(graph)
        if result.partition_result.partition.hw_nodes():
            assert result.design_time.total_s <= 75 * 60
            assert result.design_time.hw_fraction > 0.90
