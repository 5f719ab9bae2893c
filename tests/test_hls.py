"""Unit + property tests for the high-level synthesis substrate."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import fuzzy_controller
from repro.flow.pipeline import fingerprint_of
from repro.graph import from_mapping, make_node
from repro.hls import (Dfg, DfgOp, HlsError, alap_schedule,
                       allocate_minimal, asap_schedule, bind,
                       datapath_area_clbs, expand_node, list_schedule_ops,
                       synthesize_node, synthesize_resource)
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import cool_board, minimal_board, xc4005
from repro.workloads import workload_suite


def fir_node(taps=4, words=8):
    return make_node("f", "fir", {"taps": tuple(range(1, taps + 1))},
                     words=words)


def chain_dfg(length=5, category="add"):
    dfg = Dfg("chain")
    prev = None
    for _ in range(length):
        prev = dfg.add_op(category, (prev,) if prev is not None else ())
    return dfg


class TestDfg:
    def test_add_op_dependency_check(self):
        dfg = Dfg("t")
        with pytest.raises(HlsError):
            dfg.add_op("add", (42,))

    def test_topological_order(self):
        dfg = chain_dfg(4)
        assert dfg.topological_order() == [0, 1, 2, 3]

    def test_critical_path(self):
        dfg = chain_dfg(5, "mul")
        assert dfg.critical_path(lambda c: 2) == 10

    def test_categories(self):
        dfg = Dfg("t")
        dfg.add_op("add")
        dfg.add_op("add")
        dfg.add_op("mul")
        assert dfg.categories() == {"add": 2, "mul": 1}


class TestExpand:
    def test_mov_dropped(self):
        node = make_node("c", "copy", words=4)
        assert len(expand_node(node)) == 0

    def test_op_counts_match_mix(self):
        node = fir_node(taps=4, words=8)
        dfg = expand_node(node)
        # 4 taps x 8 words MACs (movs dropped)
        assert dfg.categories() == {"mac": 32}

    def test_lane_parallelism(self):
        node = fir_node(taps=4, words=8)
        dfg = expand_node(node)
        fpga = xc4005()
        # 8 independent lanes: with 8 FUs the critical path is 4 MACs
        assert dfg.critical_path(fpga.latency_for) == \
            4 * fpga.latency_for("mac")


class TestSchedulers:
    @pytest.fixture
    def fir_dfg(self):
        return expand_node(fir_node(taps=4, words=8))

    def test_asap_respects_deps(self, fir_dfg):
        fpga = xc4005()
        schedule = asap_schedule(fir_dfg, fpga.latency_for)
        assert schedule.validate() == []

    def test_alap_within_asap_length(self, fir_dfg):
        fpga = xc4005()
        asap = asap_schedule(fir_dfg, fpga.latency_for)
        alap = alap_schedule(fir_dfg, fpga.latency_for)
        assert alap.length == asap.length
        assert alap.validate() == []

    def test_list_schedule_respects_fu_limits(self, fir_dfg):
        fpga = xc4005()
        for n_fus in (1, 2, 4):
            schedule = list_schedule_ops(fir_dfg, fpga.latency_for,
                                         {"mac": n_fus})
            assert schedule.validate({"mac": n_fus}) == []

    def test_more_fus_never_slower(self, fir_dfg):
        fpga = xc4005()
        lengths = [list_schedule_ops(fir_dfg, fpga.latency_for,
                                     {"mac": n}).length
                   for n in (1, 2, 4, 8)]
        assert lengths == sorted(lengths, reverse=True)

    def test_single_fu_length_is_serial(self, fir_dfg):
        fpga = xc4005()
        schedule = list_schedule_ops(fir_dfg, fpga.latency_for, {"mac": 1})
        assert schedule.length == 32 * fpga.latency_for("mac")

    def test_missing_fu_limit_rejected(self, fir_dfg):
        with pytest.raises(HlsError):
            list_schedule_ops(fir_dfg, xc4005().latency_for, {})

    def test_op_reading_one_value_twice(self):
        # regression: the reader of a value read twice waited for two
        # predecessor releases but got one, so scheduling never finished
        dfg = Dfg("square")
        a = dfg.add_op("add")
        square = dfg.add_op("mul", (a, a))
        dfg.add_op("add", (square, a, square))
        fpga = xc4005()
        schedule = list_schedule_ops(dfg, fpga.latency_for,
                                     allocate_minimal(dfg))
        assert schedule.validate(allocate_minimal(dfg)) == []
        assert schedule.start == {0: 0, 1: 1, 2: 1 + fpga.latency_for("mul")}
        assert dfg.successor_map() == {0: [1, 2], 1: [2], 2: []}

    def test_a_cyclic_dfg_is_rejected_before_scheduling(self):
        dfg = chain_dfg(3)
        # add_op only reads earlier ops, so close the cycle 0 -> 1 -> 2
        # -> 0 by editing the ops directly
        dfg.ops[0] = DfgOp(0, "add", (2,))
        with pytest.raises(HlsError, match="'chain' contains a cycle"):
            list_schedule_ops(dfg, xc4005().latency_for, {"add": 1})

    def test_an_op_readied_in_a_step_starts_in_a_later_one(self):
        # a latency-0 start readies its reader at once, but the reader
        # joins the ready ops only after the step
        dfg = chain_dfg(3)
        schedule = list_schedule_ops(dfg, lambda category: 0, {"add": 1})
        assert schedule.start == {0: 0, 1: 1, 2: 2}
        assert schedule.length == 2


class TestAllocation:
    def test_minimal_one_per_category(self):
        dfg = expand_node(fir_node())
        assert allocate_minimal(dfg) == {"mac": 1}


class TestBinding:
    def test_fu_counts_match_schedule_peak(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=4, words=8))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": 3})
        binding = bind(schedule)
        assert binding.fu_counts["mac"] <= 3

    def test_no_fu_double_booking(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=4, words=8))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": 2})
        binding = bind(schedule)
        for category, count in binding.fu_counts.items():
            for index in range(count):
                ops = binding.ops_on_fu(category, index)
                slots = sorted((schedule.start[u],
                                schedule.start[u]
                                + schedule.latency_of[category])
                               for u in ops)
                for (s1, e1), (s2, e2) in zip(slots, slots[1:]):
                    assert s2 >= e1

    def test_register_lifetimes_disjoint(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=4, words=4))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": 2})
        binding = bind(schedule)
        regs: dict[int, list[int]] = {}
        for uid, reg in binding.register_of.items():
            regs.setdefault(reg, []).append(uid)
        # registers exist and are reused (fewer registers than values)
        assert binding.register_count <= len(dfg)


class TestSynthesizeNode:
    def test_fir_fits_xc4005(self):
        result = synthesize_node(fir_node(taps=5, words=16), xc4005())
        assert 0 < result.area_clbs <= 196
        assert result.latency_cycles > 0

    def test_pure_move_node_degenerates(self):
        node = make_node("c", "copy", words=4)
        result = synthesize_node(node, xc4005())
        assert result.area_clbs == 1
        assert result.latency_cycles == 1

    def test_quick_estimate_brackets_hls(self):
        """The pre-partitioning estimator must be in the HLS ballpark."""
        from repro.estimate import hw_area_clbs, hw_cycles
        fpga = xc4005()
        for node in (fir_node(taps=5, words=16),
                     make_node("d", "defuzz",
                               {"centroids": (0, 50, 100)}, words=1),
                     make_node("g", "gain", {"factor": 3}, words=8)):
            estimate = hw_cycles(node, fpga)
            actual = synthesize_node(node, fpga).latency_cycles
            assert actual <= 4 * estimate + 8
            assert estimate <= 4 * actual + 8
            est_area = hw_area_clbs(node, fpga)
            act_area = synthesize_node(node, fpga).area_clbs
            assert act_area <= 4 * est_area
            assert est_area <= 4 * act_area + 8


class TestSynthesizeResource:
    def test_sharing_cheaper_than_sum(self):
        graph = fuzzy_controller()
        arch = cool_board()
        hw = ["rule00", "rule01", "rule02", "rule10"]
        mapping = {n.name: ("fpga0" if n.name in hw else "dsp0")
                   for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        shared = synthesize_resource(graph, partition, "fpga0",
                                     arch.fpga("fpga0"))
        individual = sum(shared.node_areas.values())
        assert shared.datapath_area_clbs < individual

    def test_latencies_for_all_nodes(self):
        graph = fuzzy_controller()
        arch = cool_board()
        hw = ["fz_e", "defuzz"]
        mapping = {n.name: ("fpga0" if n.name in hw else "dsp0")
                   for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        shared = synthesize_resource(graph, partition, "fpga0",
                                     arch.fpga("fpga0"))
        assert set(shared.latencies) == set(hw)
        assert all(v >= 1 for v in shared.latencies.values())

    def test_empty_resource(self):
        graph = fuzzy_controller()
        arch = cool_board()
        mapping = {n.name: "dsp0" for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        shared = synthesize_resource(graph, partition, "fpga0",
                                     arch.fpga("fpga0"))
        assert shared.total_area_clbs == 0
        assert shared.latencies == {}


#: sha256 over every ``synthesize_resource`` result of ``workload_suite(20,
#: seed=5)``, greedily partitioned on ``minimal_board()``.  Any change to
#: an HLS schedule, binding, RTL datapath or CLB price changes it, so an
#: HLS refactoring or speed-up must keep it.
SUITE_HLS_SHA256 = \
    "75070d2721789aae2a87ea0a3fc00bf27336f006f4047c2db41b6920bcd3bae7"


def suite_hls_results(count=6):
    """``synthesize_resource`` results of the first test-suite designs."""
    results = []
    for spec in workload_suite(20, seed=5)[:count]:
        graph = spec.build()
        board = minimal_board()
        partition = GreedyPartitioner().partition(
            PartitioningProblem(graph, board)).partition
        results.extend(synthesize_resource(graph, partition, f.name, f)
                       for f in board.fpgas)
    return [r for r in results if r.latencies]


class TestResultFingerprint:
    """An HLS result put into a flow context by hand (``FlowContext.put``)
    is named by its content: every node latency and price must reach it."""

    def test_one_node_area_changes_it(self):
        result = suite_hls_results(1)[0]
        before = fingerprint_of(result)
        result.node_areas[sorted(result.node_areas)[0]] += 1
        assert fingerprint_of(result) != before

    def test_one_node_latency_changes_it(self):
        result = suite_hls_results(1)[0]
        before = fingerprint_of(result)
        result.latencies[sorted(result.latencies)[0]] += 1
        assert fingerprint_of(result) != before


def test_suite_hls_output_is_pinned():
    """Schedules, bindings, RTL and CLB prices stay byte-identical.

    A shared result keeps only each node's latency and area, so the
    schedule, binding and RTL of a node come from ``synthesize_node``,
    and the shared result must agree with it on latency and area.
    """
    digest = hashlib.sha256()
    nodes = 0
    for spec in workload_suite(20, seed=5):
        graph = spec.build()
        board = minimal_board()
        partition = GreedyPartitioner().partition(
            PartitioningProblem(graph, board)).partition
        for fpga in board.fpgas:
            shared = synthesize_resource(graph, partition, fpga.name, fpga)
            entry = [shared.resource, shared.datapath_area_clbs,
                     shared.controller_area_clbs, repr(shared.shared_rtl)]
            assert sorted(shared.node_areas) == sorted(shared.latencies)
            for name in sorted(shared.latencies):
                result = synthesize_node(graph.node(name), fpga)
                assert shared.latencies[name] == result.latency_cycles
                assert shared.node_areas[name] == result.area_clbs
                entry.append((name, result.area_clbs,
                              sorted(result.schedule.start.items()),
                              sorted(result.binding.fu_of.items()),
                              sorted(result.binding.register_of.items()),
                              repr(result.rtl)))
                nodes += 1
            digest.update(repr(entry).encode())
    assert nodes == 77
    assert digest.hexdigest() == SUITE_HLS_SHA256


class TestHlsPropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=4))
    def test_schedule_always_valid_and_monotone(self, taps, words, fus):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=taps, words=words))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": fus})
        assert schedule.validate({"mac": fus}) == []
        binding = bind(schedule)
        assert binding.fu_counts.get("mac", 0) <= fus
        rtl_area = datapath_area_clbs(
            __import__("repro.hls.rtl", fromlist=["build_rtl"]).build_rtl(
                "t", 16, schedule, binding), fpga)
        assert rtl_area >= 1
