"""Tests for VHDL/C/netlist code generation and the VHDL checker."""

import hashlib
import itertools
import random
import re

import pytest

from repro.apps import four_band_equalizer, fuzzy_controller
from repro.codegen import (check_vhdl, datapath_to_vhdl, fsm_to_vhdl,
                           generate_netlist, guard_literal_count,
                           netlist_text, software_to_c)
from repro.comm import refine_communication
from repro.controllers import (Fsm, synthesize_datapath_controller,
                               synthesize_io_controller,
                               synthesize_system_controller)
from repro.estimate import CostModel
from repro.flow import CoolFlow
from repro.graph import from_mapping
from repro.hls import synthesize_node
from repro.partition import GreedyPartitioner
from repro.platform import cool_board, minimal_board, xc4005
from repro.schedule import list_schedule
from repro.stg import build_stg, minimize_stg
from repro.workloads import workload_suite


def implementation(graph, arch, hw_nodes=()):
    mapping = {}
    for node in graph.internal_nodes():
        mapping[node.name] = arch.fpga_names[0] if node.name in hw_nodes \
            else arch.processor_names[0]
    partition = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
    schedule = list_schedule(partition, CostModel(graph, arch))
    stg, _ = minimize_stg(build_stg(schedule))
    controller = synthesize_system_controller(stg)
    plan = refine_communication(schedule, arch)
    return partition, schedule, controller, plan


@pytest.fixture(scope="module")
def equalizer_impl():
    graph = four_band_equalizer(words=8)
    return (graph,) + implementation(graph, minimal_board(),
                                     {"band0", "gain0"})


class TestFsmVhdl:
    def test_all_controller_fsms_pass_checker(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        for fsm in controller.fsms:
            text = fsm_to_vhdl(fsm)
            assert check_vhdl(text) == [], f"{fsm.name} failed:\n{text}"

    def test_entity_and_ports_present(self, equalizer_impl):
        *_, controller, _ = equalizer_impl
        text = fsm_to_vhdl(controller.phase_fsm)
        assert "entity phase is" in text
        assert "clk : in std_logic" in text
        assert "rst : in std_logic" in text
        assert "system_done : out std_logic" in text

    def test_case_covers_all_states(self, equalizer_impl):
        *_, controller, _ = equalizer_impl
        seq = next(iter(controller.sequencers.values()))
        text = fsm_to_vhdl(seq)
        for state in seq.states:
            assert f"when st_{state} =>" in text

    def test_io_and_datapath_controllers_emit(self, equalizer_impl):
        graph, partition, *_ = equalizer_impl
        ioc = synthesize_io_controller(graph)
        assert check_vhdl(fsm_to_vhdl(ioc.fsm)) == []
        dpc = synthesize_datapath_controller(partition, "fpga0",
                                             {"band0": 60, "gain0": 25})
        assert check_vhdl(fsm_to_vhdl(dpc.fsm)) == []

    def test_encoding_comment(self, equalizer_impl):
        *_, controller, _ = equalizer_impl
        assert "encoding scheme: one_hot" in fsm_to_vhdl(
            controller.phase_fsm, encoding="one_hot")


class TestDatapathVhdl:
    def test_fir_datapath_passes_checker(self):
        from repro.graph import make_node
        node = make_node("band0", "fir", {"taps": (1, 2, 3)}, words=8)
        result = synthesize_node(node, xc4005())
        text = datapath_to_vhdl(result.rtl)
        assert check_vhdl(text) == [], text
        assert "entity band0 is" in text

    def test_micro_schedule_documented(self):
        from repro.graph import make_node
        node = make_node("g", "gain", {"factor": 3}, words=4)
        result = synthesize_node(node, xc4005())
        text = datapath_to_vhdl(result.rtl)
        assert "-- step 0:" in text


class TestVhdlChecker:
    def test_accepts_valid(self):
        fsm = Fsm("ok")
        fsm.add_state("a")
        fsm.add_state("b")
        fsm.add_transition("a", "b", conditions=("x",), actions=("y",))
        assert check_vhdl(fsm_to_vhdl(fsm)) == []

    def test_detects_unbalanced_process(self):
        text = fsm_to_vhdl(_simple_fsm()).replace("end process;", "", 1)
        assert any("process" in p for p in check_vhdl(text))

    def test_detects_undeclared_signal(self):
        text = fsm_to_vhdl(_simple_fsm())
        text = text.replace("begin", "begin\n  ghost <= '1';", 1)
        assert any("ghost" in p for p in check_vhdl(text))

    def test_detects_unknown_entity_reference(self):
        text = "architecture rtl of missing is\nbegin\nend architecture;"
        assert any("unknown entity" in p for p in check_vhdl(text))


def _simple_fsm():
    fsm = Fsm("simple")
    fsm.add_state("a")
    fsm.add_state("b")
    fsm.add_transition("a", "b", conditions=("x",), actions=("y",))
    fsm.add_transition("b", "a", conditions=("x",))
    return fsm


def _case_arm(text, state):
    """The emitted lines of one ``when st_<state> =>`` case arm."""
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip() == f"when st_{state} =>":
            start = i + 1
    assert start is not None, f"no case arm for {state}"
    arm = []
    for line in lines[start:]:
        stripped = line.strip()
        if stripped.startswith("when ") or stripped == "end case;":
            break
        arm.append(stripped)
    return arm


def _interpret_arm(arm, inputs, default_state):
    """Execute an emitted if/elsif/else cascade for one input valuation."""
    next_state, outputs = default_state, set()
    taken = False
    branch_active = False
    seen_if = False
    for line in arm:
        match = re.match(r"(?:if|elsif) (.*) then$", line)
        if match:
            seen_if = True
            if taken:
                branch_active = False
                continue
            expr = match.group(1)
            expr_py = re.sub(
                r"(\w+) = '([01])'",
                lambda m: (f"({m.group(1)!r} in inputs)" if m.group(2) == "1"
                           else f"({m.group(1)!r} not in inputs)"),
                expr)
            branch_active = eval(expr_py, {"inputs": inputs})  # noqa: S307
            taken = taken or branch_active
        elif line == "else":
            branch_active = not taken
            taken = True
        elif line == "end if;":
            branch_active = False
        elif line.startswith("--") or line == "null;":
            continue
        else:
            active = branch_active if seen_if else True
            assign = re.match(r"(\w+) <= '1';", line)
            goto = re.match(r"next_state <= st_(\w+);", line)
            if active and assign:
                outputs.add(assign.group(1))
            if active and goto:
                next_state = goto.group(1)
    return next_state, outputs


def _random_fsm(rng, trial):
    fsm = Fsm(f"rand{trial}")
    states = [f"s{i}" for i in range(rng.randint(2, 4))]
    for state in states:
        fsm.add_state(state, outputs=tuple(
            rng.sample(["m0", "m1"], rng.randint(0, 1))))
    for _ in range(rng.randint(1, 6)):
        fsm.add_transition(
            rng.choice(states), rng.choice(states),
            conditions=tuple(rng.sample(["a", "b", "c"], rng.randint(0, 2))),
            actions=tuple(rng.sample(["x", "y"], rng.randint(0, 2))))
    return fsm, states


class TestCascadeEmission:
    """The emitted cascade must implement ``Fsm.step`` exactly --
    unconditional transitions anywhere in the priority list included."""

    @pytest.mark.parametrize("simplify", [False, True],
                             ids=["default", "simplified"])
    def test_differential_against_fsm_step(self, simplify):
        rng = random.Random(99)
        for trial in range(120):
            fsm, states = _random_fsm(rng, trial)
            text = fsm_to_vhdl(fsm, simplify=simplify)
            assert check_vhdl(text) == [], text
            for state in states:
                arm = _case_arm(text, state)
                for k in range(4):
                    for combo in itertools.combinations("abc", k):
                        inputs = set(combo)
                        want_next, want_out = fsm.step(state, inputs)
                        got_next, got_out = _interpret_arm(arm, inputs,
                                                           state)
                        assert (want_next, set(want_out)) == \
                            (got_next, got_out), (trial, state, inputs)

    def test_mid_cascade_unconditional_becomes_else_arm(self):
        fsm = Fsm("shadow")
        for state in ("a", "b", "c", "d"):
            fsm.add_state(state)
        fsm.add_transition("a", "b", conditions=("go",))
        fsm.add_transition("a", "c")                      # else arm
        fsm.add_transition("a", "d", conditions=("x",))   # unreachable
        text = fsm_to_vhdl(fsm)
        arm = _case_arm(text, "a")
        assert "else" in arm
        assert any("unreachable" in line for line in arm), arm
        assert not any("st_d" in line and line.startswith("next_state")
                       for line in arm)
        assert check_vhdl(text) == []

    def test_leading_unconditional_reports_shadowed_tail(self):
        fsm = Fsm("lead")
        for state in ("a", "b", "c"):
            fsm.add_state(state)
        fsm.add_transition("a", "b")
        fsm.add_transition("a", "c", conditions=("x",))
        text = fsm_to_vhdl(fsm)
        arm = _case_arm(text, "a")
        assert arm[0] == "next_state <= st_b;"
        assert any("unreachable" in line for line in arm)


class TestSimplifiedEmission:
    def test_merged_branches_factor_common_literal(self):
        fsm = Fsm("factored")
        fsm.add_state("s")
        fsm.add_state("t")
        fsm.add_transition("s", "t", conditions=("c1", "c2"), actions=("x",))
        fsm.add_transition("s", "t", conditions=("c1", "c3"), actions=("x",))
        fsm.add_transition("t", "t")
        text = fsm_to_vhdl(fsm, simplify=True)
        assert "c1 = '1' and (c2 = '1' or c3 = '1')" in text
        assert guard_literal_count(text) == 3
        assert check_vhdl(text) == []

    def test_dead_branch_pruned(self):
        fsm = Fsm("dead")
        fsm.add_state("s")
        fsm.add_state("t")
        fsm.add_state("u")
        fsm.add_transition("s", "t", conditions=("a",))
        fsm.add_transition("s", "u", conditions=("a", "b"))  # shadowed
        fsm.add_transition("t", "t")
        fsm.add_transition("u", "u")
        base = fsm_to_vhdl(fsm)
        simp = fsm_to_vhdl(fsm, simplify=True)
        assert guard_literal_count(simp) < guard_literal_count(base)
        assert "st_u" not in "\n".join(_case_arm(simp, "s"))

    def test_care_sets_reduce_literals(self):
        fsm = Fsm("cared")
        fsm.add_state("w")
        fsm.add_state("r")
        fsm.add_transition("w", "r", conditions=("done_a", "done_b"))
        fsm.add_transition("r", "r")
        care = {"w": [{"done_a"}, {"done_a", "done_b"}]}
        text = fsm_to_vhdl(fsm, simplify=True, care_of=care)
        assert "done_b = '1'" in text
        assert "done_a" not in _case_arm(text, "w")[0]
        assert guard_literal_count(text) == 1

    def test_guard_literal_count_ignores_assignments(self):
        fsm = Fsm("metric")
        fsm.add_state("a")
        fsm.add_state("b")
        fsm.add_transition("a", "b", conditions=("p", "q"), actions=("x",))
        text = fsm_to_vhdl(fsm)
        assert guard_literal_count(text) == 2

    def test_fsm_guard_literals_matches_emitted_baseline(self):
        from repro.codegen import fsm_guard_literals
        rng = random.Random(5)
        for trial in range(30):
            fsm, _states = _random_fsm(rng, trial)
            assert fsm_guard_literals(fsm) == \
                guard_literal_count(fsm_to_vhdl(fsm))

    def test_double_tautology_care_sets_emit_valid_cascade(self):
        # both branches' covers become tautologies under the don't-cares;
        # only the highest-priority one may survive (no stray 'else')
        fsm = Fsm("taut")
        for state in ("s", "t1", "t2"):
            fsm.add_state(state)
        fsm.add_transition("s", "t1", conditions=("a",))
        fsm.add_transition("s", "t2", conditions=("b",))
        fsm.add_transition("t1", "t1")
        fsm.add_transition("t2", "t2")
        care = {"s": [{"a"}, {"a", "b"}]}  # 'a' always latched in s
        text = fsm_to_vhdl(fsm, simplify=True, care_of=care)
        assert check_vhdl(text) == []
        arm = _case_arm(text, "s")
        assert "else" not in arm
        assert arm == ["next_state <= st_t1;"], arm
        # and the emitted arm agrees with Fsm.step on every care vector
        for valuation in care["s"]:
            want_next, _ = fsm.step("s", set(valuation))
            got_next, _ = _interpret_arm(arm, set(valuation), "s")
            assert got_next == want_next

    def test_factored_or_terms_are_parenthesized(self):
        # a shared-literal factor plus a disjoint cube must not emit
        # the illegal 'A and (B or C) or D' mixed-operator form
        fsm = Fsm("mixed")
        fsm.add_state("s")
        fsm.add_state("t")
        fsm.add_transition("s", "t", conditions=("a", "b"), actions=("x",))
        fsm.add_transition("s", "t", conditions=("a", "c"), actions=("x",))
        fsm.add_transition("s", "t", conditions=("d",), actions=("x",))
        fsm.add_transition("t", "t")
        text = fsm_to_vhdl(fsm, simplify=True)
        cascade = "\n".join(_case_arm(text, "s"))
        assert "(a = '1' and (b = '1' or c = '1')) or d = '1'" \
            in cascade, cascade
        assert check_vhdl(text) == []


#: sha256 over ``name + text`` of every ``vhdl_files`` entry, in name
#: order, of ``CoolFlow`` runs on the first six designs of
#: ``workload_suite(20, seed=5)`` on the two-FPGA board: system
#: controller FSMs, I/O controller, bus arbiter, datapath controllers
#: and datapaths.  Computed before codegen memoized its emission.
FLOW_VHDL_SHA256 = \
    "853f30a0ac272d122586e07ef3d4d896fb868423bc46a8fe1b91a5206af52bb8"


class TestFlowVhdlPin:
    def test_every_emitted_vhdl_file_is_pinned(self):
        digest = hashlib.sha256()
        kinds: dict[str, int] = {}
        for spec in workload_suite(20, seed=5)[:6]:
            result = CoolFlow(cool_board(),
                              partitioner=GreedyPartitioner()).run(
                                  spec.build())
            for name in sorted(result.vhdl_files):
                digest.update(name.encode())
                digest.update(result.vhdl_files[name].encode())
                kind = name.split("_")[0].removesuffix(".vhd")
                kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {"arbiter": 6, "dp": 12, "dpc": 12, "ioc": 6,
                         "phase": 6, "seq": 23}
        assert digest.hexdigest() == FLOW_VHDL_SHA256


class TestCCodegen:
    def test_program_structure(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        code = software_to_c(graph, partition, schedule, plan, "dsp0")
        assert "int main(void)" in code
        for entry in schedule.on_resource("dsp0"):
            assert f"static void f_{entry.node}(" in code
            assert f"f_{entry.node}(" in code

    def test_memory_mapped_addresses_match_plan(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        code = software_to_c(graph, partition, schedule, plan, "dsp0")
        for channel in plan.memory_mapped():
            producer = channel.channel.producer_unit
            consumer = channel.channel.consumer_unit
            if "dsp0" in (producer, consumer):
                assert f"0x{channel.cell.address:04X}" in code

    def test_schedule_order_preserved(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        code = software_to_c(graph, partition, schedule, plan, "dsp0")
        order = [e.node for e in schedule.on_resource("dsp0")]
        positions = [code.index(f"/* node {n} ") for n in order]
        assert positions == sorted(positions)

    def test_start_done_handshake(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        code = software_to_c(graph, partition, schedule, plan, "dsp0")
        assert "while (!START_REG(0))" in code
        assert "DONE_REG(0) = 1;" in code

    def test_fir_body_realistic(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        code = software_to_c(graph, partition, schedule, plan, "dsp0")
        assert "acc += (long)taps[j]" in code

    def test_braces_balanced(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        code = software_to_c(graph, partition, schedule, plan, "dsp0")
        assert code.count("{") == code.count("}")


class TestNetlist:
    def test_fig4_components_present(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        netlist = generate_netlist(partition, minimal_board(), controller,
                                   plan)
        names = {c.name for c in netlist.components}
        assert {"sysctl", "io_controller", "arbiter", "dsp0", "fpga0",
                "dpc_fpga0", "sram", "sysbus"} <= names

    def test_every_node_has_start_done_nets(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        netlist = generate_netlist(partition, minimal_board(), controller,
                                   plan)
        net_names = {n.name for n in netlist.nets}
        for node in graph.nodes:
            assert f"start_{node.name}" in net_names
            assert f"done_{node.name}" in net_names

    def test_validates_clean(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        netlist = generate_netlist(partition, minimal_board(), controller,
                                   plan)
        assert netlist.validate() == []

    def test_direct_channels_point_to_point(self):
        graph = four_band_equalizer(words=8)
        arch = cool_board()
        mapping = {n.name: "dsp0" for n in graph.internal_nodes()}
        mapping.update({"band0": "fpga0", "gain0": "fpga1"})
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        schedule = list_schedule(partition, CostModel(graph, arch))
        stg, _ = minimize_stg(build_stg(schedule))
        controller = synthesize_system_controller(stg)
        plan = refine_communication(schedule, arch)
        netlist = generate_netlist(partition, arch, controller, plan)
        direct_nets = [n for n in netlist.nets
                       if n.name.startswith("direct_")]
        assert direct_nets
        for net in direct_nets:
            assert net.driver.split(".")[0] == "fpga0"
            assert net.sinks[0].split(".")[0] == "fpga1"

    def test_text_rendering(self, equalizer_impl):
        graph, partition, schedule, controller, plan = equalizer_impl
        netlist = generate_netlist(partition, minimal_board(), controller,
                                   plan)
        text = netlist_text(netlist)
        assert "components:" in text
        assert "sysctl" in text
        assert "XC4005" in text

    def test_fuzzy_netlist_on_paper_board(self):
        graph = fuzzy_controller()
        arch = cool_board()
        partition, schedule, controller, plan = implementation(
            graph, arch, {"fz_e", "fz_de"})
        netlist = generate_netlist(partition, arch, controller, plan)
        stats = netlist.stats()
        assert stats["by_kind"]["fpga"] == 2
        assert stats["by_kind"]["processor"] == 1
        assert stats["by_kind"]["memory"] == 1
