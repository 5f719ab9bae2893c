"""Unit + property tests for the scheduling package."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import four_band_equalizer, fuzzy_controller, random_task_graph
from repro.estimate import CostModel
from repro.graph import Partition, all_software, from_mapping
from repro.platform import cool_board, minimal_board
from repro.schedule import (Schedule, ScheduleEntry, ScheduleError,
                            TransferEntry,
                            alap_times, asap_times, check_schedule,
                            critical_path_length, gantt_chart, list_schedule,
                            slack, validate_schedule)


def hw_sw_partition(graph, arch, hw_nodes):
    mapping = {}
    for node in graph.internal_nodes():
        mapping[node.name] = arch.fpga_names[0] if node.name in hw_nodes \
            else arch.processor_names[0]
    return from_mapping(graph, mapping, arch.fpga_names, arch.processor_names)


@pytest.fixture
def equalizer_setup():
    graph = four_band_equalizer(words=8)
    arch = minimal_board()
    partition = hw_sw_partition(graph, arch, {"band0", "band1", "gain0"})
    model = CostModel(graph, arch)
    return graph, arch, partition, model


class TestFingerprint:
    def test_memo_follows_add_and_add_transfer(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        built = list_schedule(partition, model)
        grown = Schedule(partition)
        before = grown.fingerprint()
        for entry in built.entries.values():
            grown.add(entry)
        with_entries = grown.fingerprint()
        assert with_entries != before
        for transfer in built.transfers:
            grown.add_transfer(transfer)
        assert grown.fingerprint() != with_entries
        assert grown.fingerprint() == built.fingerprint()


class TestEntries:
    def test_bad_slot_rejected(self):
        with pytest.raises(ScheduleError):
            ScheduleEntry("n", "r", 5, 5)
        with pytest.raises(ScheduleError):
            ScheduleEntry("n", "r", -1, 3)

    def test_bad_direction_rejected(self):
        with pytest.raises(ScheduleError):
            TransferEntry("e", "sideways", 0, 1)


class TestAsapAlap:
    def test_asap_respects_dependencies(self, equalizer_setup):
        graph, _, partition, model = equalizer_setup
        asap = asap_times(partition, model)
        for edge in graph.edges:
            lat = model.latency(edge.src, partition.resource_of(edge.src))
            assert asap[edge.dst] >= asap[edge.src] + lat

    def test_alap_not_before_asap(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        asap = asap_times(partition, model)
        alap = alap_times(partition, model)
        for node, t in asap.items():
            assert alap[node] >= t

    def test_critical_nodes_have_zero_slack(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        slacks = slack(partition, model)
        assert min(slacks.values()) == 0

    def test_deadline_shifts_alap(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        base = critical_path_length(partition, model)
        relaxed = alap_times(partition, model, deadline=base + 100)
        tight = alap_times(partition, model, deadline=base)
        assert all(relaxed[n] == tight[n] + 100 for n in tight)


class TestListScheduler:
    def test_schedule_is_valid(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        assert validate_schedule(schedule) == []
        check_schedule(schedule)  # must not raise

    def test_all_nodes_scheduled(self, equalizer_setup):
        graph, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        assert set(schedule.entries) == set(graph.node_names)

    def test_makespan_at_least_critical_path(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        assert schedule.makespan >= critical_path_length(partition, model)

    def test_deterministic(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        s1 = list_schedule(partition, model)
        s2 = list_schedule(partition, model)
        assert [(e.node, e.start) for e in
                sorted(s1.entries.values(), key=lambda e: e.node)] == \
            [(e.node, e.start) for e in
             sorted(s2.entries.values(), key=lambda e: e.node)]

    def test_cut_edges_get_two_transfers(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        for edge in partition.cut_edges():
            directions = sorted(t.direction for t in schedule.transfers_of(edge))
            assert directions == ["read", "write"]

    def test_pure_software_serializes_on_cpu(self):
        graph = four_band_equalizer(words=8)
        arch = minimal_board()
        partition = all_software(graph, "dsp0", hw_resources=arch.fpga_names)
        model = CostModel(graph, arch)
        schedule = list_schedule(partition, model)
        cpu_busy = sum(e.duration for e in schedule.on_resource("dsp0"))
        internal = [n.name for n in graph.internal_nodes()]
        assert cpu_busy == sum(model.latency(n, "dsp0") for n in internal)

    def test_parallel_partition_beats_pure_software(self):
        graph = four_band_equalizer(words=16)
        arch = cool_board()
        model = CostModel(graph, arch)
        sw = all_software(graph, "dsp0", hw_resources=arch.fpga_names)
        mapping = {"band0": "fpga0", "gain0": "fpga0",
                   "band1": "fpga1", "gain1": "fpga1"}
        for node in graph.internal_nodes():
            mapping.setdefault(node.name, "dsp0")
        mixed = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
        t_sw = list_schedule(sw, model).makespan
        t_mixed = list_schedule(mixed, model).makespan
        assert t_mixed < t_sw

    def test_utilization_and_summary(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        summary = schedule.summary()
        assert summary["nodes"] == len(schedule.entries)
        for resource in partition.resources_used:
            assert 0 <= schedule.utilization(resource) <= 1

    def test_gantt_chart_renders(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        chart = gantt_chart(schedule)
        assert "makespan" in chart
        assert "dsp0" in chart and "bus" in chart


class TestSchedulePropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=8, max_value=40),
           st.integers(min_value=0, max_value=999),
           st.integers(min_value=0, max_value=999))
    def test_random_graph_random_partition_valid(self, n, seed, pseed):
        graph = random_task_graph(n, seed=seed)
        arch = cool_board()
        rng = random.Random(pseed)
        mapping = {node.name: rng.choice(arch.resource_names)
                   for node in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        model = CostModel(graph, arch)
        schedule = list_schedule(partition, model)
        assert validate_schedule(schedule) == []

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=99))
    def test_fuzzy_any_single_hw_node_valid(self, pick):
        graph = fuzzy_controller()
        arch = cool_board()
        internal = [n.name for n in graph.internal_nodes()]
        hw = {internal[pick % len(internal)]}
        partition = hw_sw_partition(graph, arch, hw)
        model = CostModel(graph, arch)
        schedule = list_schedule(partition, model)
        assert validate_schedule(schedule) == []


class TestValidatorCatchesCorruption:
    def test_overlap_detected(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        first = schedule.on_resource("dsp0")[0]
        # forge an overlapping entry on the same resource
        victim = schedule.on_resource("dsp0")[1]
        del schedule.entries[victim.node]
        schedule.entries[victim.node] = ScheduleEntry(
            victim.node, victim.resource, first.start, first.start + 1)
        assert any("overlaps" in p for p in validate_schedule(schedule))

    def test_missing_transfer_detected(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        schedule.transfers.pop()
        problems = validate_schedule(schedule)
        assert any("expected 1 write + 1 read" in p for p in problems)

    def test_wrong_resource_detected(self, equalizer_setup):
        _, _, partition, model = equalizer_setup
        schedule = list_schedule(partition, model)
        node = next(iter(schedule.entries))
        entry = schedule.entries.pop(node)
        schedule.entries[node] = ScheduleEntry(node, "fpga0" if
                                               entry.resource != "fpga0"
                                               else "dsp0",
                                               entry.start, entry.end)
        problems = validate_schedule(schedule)
        assert any("coloured" in p for p in problems)
