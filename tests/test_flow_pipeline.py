"""Tests for the stage-graph pipeline engine and the incremental flow."""

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.apps import four_band_equalizer
from repro.flow import (CoolFlow, FlowContext, PipelineError,
                        PipelineExecutor, Stage, StageCache,
                        build_flow_stages, fingerprint_of,
                        select_eviction_victim)
from repro.graph import TaskGraph, execute
from repro.obs import Tracer, activate
from repro.partition import (GreedyPartitioner, MilpPartitioner, Partitioner,
                             PartitioningProblem, evaluate_mapping)
from repro.platform import (Bus, Fpga, MemoryDevice, TargetArchitecture,
                            cool_board, dsp56001, minimal_board)


class TestFingerprints:
    def test_taskgraph_content_hash_is_stable(self):
        a = four_band_equalizer(words=8)
        b = four_band_equalizer(words=8)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_taskgraph_hash_changes_on_mutation(self):
        graph = four_band_equalizer(words=8)
        before = graph.fingerprint()
        graph.add_node(name="extra", kind="gain", params={"shift": 1})
        assert graph.fingerprint() != before

    def test_taskgraph_hash_differs_for_different_payload(self):
        assert four_band_equalizer(words=8).fingerprint() != \
            four_band_equalizer(words=4).fingerprint()

    def test_architecture_fingerprint(self):
        assert minimal_board().fingerprint() == minimal_board().fingerprint()
        assert minimal_board().fingerprint() != cool_board().fingerprint()

    def test_partition_and_schedule_fingerprints(self):
        graph = four_band_equalizer(words=8)
        problem = PartitioningProblem(graph, minimal_board())
        mapping = {n.name: "dsp0" for n in graph.internal_nodes()}
        p1, s1, _ = evaluate_mapping(problem, mapping)
        p2, s2, _ = evaluate_mapping(problem, dict(mapping))
        assert p1.fingerprint() == p2.fingerprint()
        assert s1.fingerprint() == s2.fingerprint()
        moved = dict(mapping)
        moved[graph.internal_nodes()[0].name] = "fpga0"
        p3, s3, _ = evaluate_mapping(problem, moved)
        assert p3.fingerprint() != p1.fingerprint()
        assert s3.fingerprint() != s1.fingerprint()

    def test_partitioner_fingerprint_covers_config(self):
        assert GreedyPartitioner().fingerprint() == \
            GreedyPartitioner().fingerprint()
        assert MilpPartitioner(objective="min_time").fingerprint() != \
            MilpPartitioner().fingerprint()

    def test_plain_value_fingerprints(self):
        assert fingerprint_of(None) == fingerprint_of(None)
        assert fingerprint_of((1, "a")) == fingerprint_of((1, "a"))
        assert fingerprint_of({"k": [1, 2]}) == fingerprint_of({"k": [1, 2]})
        assert fingerprint_of(1) != fingerprint_of(2)


def flow_names(**roots):
    """The context of one executor run of the flow and the fingerprint
    of every artifact in it.

    ``roots`` override the flow's default roots (the equalizer on the
    minimal board, greedy partitioning, cosim stimuli).
    """
    roots = {"graph": four_band_equalizer(words=8), "arch": minimal_board(),
             "deadline": None, "partitioner": GreedyPartitioner(),
             "comm_options": (True, True), "stimuli": {"x": [5] * 8},
             **roots}
    stages = build_flow_stages()
    ctx = FlowContext(**roots)
    PipelineExecutor(stages).request(
        ctx, [key for stage in stages for key in stage.outputs])
    return ctx, {key: ctx.fingerprint(key) for key in ctx.keys()}


class TestOutputNames:
    """Stage outputs are named by their stage's inputs (input-addressed).

    Only the roots and the ``content_addressed`` outputs (partitioning,
    the minimized STG, the system controller) are content-hashed; every
    other name must change with every declared input of its stage and
    nothing else.
    """

    def test_every_declared_input_renames_every_output(self):
        stages = build_flow_stages()
        ctx, _ = flow_names()
        executor = PipelineExecutor(stages)
        executor.request(ctx, [k for stage in stages for k in stage.outputs])
        checked = 0
        for stage in stages:
            named = [k for k in stage.outputs
                     if k not in stage.content_addressed]
            if not named:
                continue
            names = {k: ctx.fingerprint(k) for k in stage.outputs}
            for key in stage.inputs:
                value, name = ctx.get(key), ctx.fingerprint(key)
                # same value under another name: the stage must re-run
                # and rename every input-addressed output, whatever the
                # value, while content-addressed ones keep their hash
                ctx.put_fingerprinted(key, value, name + "'")
                executor.request(ctx, stage.outputs)
                for output in stage.outputs:
                    renamed = ctx.fingerprint(output) != names[output]
                    assert renamed == (output in named), \
                        (stage.name, key, output)
                ctx.put_fingerprinted(key, value, name)
                executor.request(ctx, stage.outputs)
                assert {k: ctx.fingerprint(k)
                        for k in stage.outputs} == names
                checked += 1
        assert checked == sum(len(stage.inputs) for stage in stages
                              if stage.name != "partitioning") > 30

    def test_the_content_addressed_outputs(self):
        assert {stage.name: stage.content_addressed
                for stage in build_flow_stages()
                if stage.content_addressed} == {
            "partitioning": ("partition_result", "partition", "schedule"),
            "stg": ("stg",), "controllers": ("controller",)}
        with pytest.raises(PipelineError, match="undeclared outputs"):
            Stage("s", ("x",), ("y",), lambda ctx: {"y": 1},
                  content_addressed=("z",))

    def test_changed_roots_rename_exactly_the_stages_that_read_them(self):
        _, base = flow_names()
        _, stimuli = flow_names(stimuli={"x": [7] * 8})
        assert {k for k in base if base[k] != stimuli[k]} == \
            {"stimuli", "sim_result"}
        _, comm = flow_names(comm_options=(False, True))
        assert {k for k in base if base[k] != comm[k]} == \
            {"comm_options", "plan", "vhdl_files", "c_files", "netlist",
             "guard_report", "sim_result"}
        _, board = flow_names(arch=cool_board())
        assert {k for k in base if base[k] == board[k]} == \
            {"graph", "deadline", "partitioner", "comm_options", "stimuli",
             "validated"}

    def test_equal_inputs_give_equal_names(self):
        first_ctx, first = flow_names()
        second_ctx, second = flow_names()
        assert first == second
        assert first_ctx.get("hls_results") is not \
            second_ctx.get("hls_results")
        assert len(set(first.values())) == len(first)

    def test_names_are_stable_across_hash_seeds(self):
        script = ("import sys; sys.path[:0] = sys.argv[1:]\n"
                  "from test_flow_pipeline import flow_names\n"
                  "print(sorted(flow_names()[1].items()))")
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        expected = sorted(flow_names()[1].items())
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            printed = subprocess.run(
                [sys.executable, "-c", script, here, src], env=env,
                capture_output=True, text=True, check=True).stdout
            assert printed == f"{expected}\n", seed


def _counting_stages(counter):
    def double(ctx):
        counter["double"] += 1
        return {"doubled": ctx.get("x") * 2}

    def shout(ctx):
        counter["shout"] += 1
        return {"shouted": f"{ctx.get('doubled')}!{ctx.get('suffix')}"}

    return [
        Stage("double", ("x",), ("doubled",), double),
        Stage("shout", ("doubled", "suffix"), ("shouted",), shout),
    ]


class TestPipelineExecutor:
    def test_runs_only_what_is_requested(self):
        counter = {"double": 0, "shout": 0}
        executor = PipelineExecutor(_counting_stages(counter))
        ctx = FlowContext(x=21, suffix="?")
        executor.request(ctx, ["doubled"])
        assert ctx.get("doubled") == 42
        assert counter == {"double": 1, "shout": 0}

    def test_skips_fresh_stages(self):
        counter = {"double": 0, "shout": 0}
        executor = PipelineExecutor(_counting_stages(counter))
        ctx = FlowContext(x=21, suffix="?")
        executor.request(ctx, ["shouted"])
        executor.request(ctx, ["shouted"])
        assert counter == {"double": 1, "shout": 1}

    def test_reruns_only_stages_whose_inputs_changed(self):
        counter = {"double": 0, "shout": 0}
        executor = PipelineExecutor(_counting_stages(counter))
        ctx = FlowContext(x=21, suffix="?")
        executor.request(ctx, ["shouted"])
        ctx.put("suffix", "!!")  # only the second stage depends on this
        executor.request(ctx, ["shouted"])
        assert counter == {"double": 1, "shout": 2}
        assert ctx.get("shouted") == "42!!!"

    def test_missing_input_raises(self):
        executor = PipelineExecutor(_counting_stages({"double": 0,
                                                      "shout": 0}))
        with pytest.raises(PipelineError, match="missing input"):
            executor.request(FlowContext(), ["doubled"])

    def test_unknown_requested_artifact_raises(self):
        executor = PipelineExecutor(_counting_stages({"double": 0,
                                                      "shout": 0}))
        with pytest.raises(PipelineError, match="no stage produces"):
            executor.request(FlowContext(x=1), ["doubeld"])  # typo

    def test_requesting_seeded_artifact_is_allowed(self):
        executor = PipelineExecutor(_counting_stages({"double": 0,
                                                      "shout": 0}))
        executor.request(FlowContext(x=1, suffix="?"), ["x"])  # no-op

    def test_commit_outputs_replaces_cache_entry(self):
        cache = StageCache()
        counter = {"double": 0, "shout": 0}
        executor = PipelineExecutor(_counting_stages(counter), cache=cache)
        ctx = FlowContext(x=21, suffix="?")
        executor.request(ctx, ["doubled"])
        ctx.put("doubled", 1000)  # driver refines the stage's output
        executor.commit_outputs(ctx, "double")
        fresh = PipelineExecutor(_counting_stages(counter), cache=cache)
        ctx2 = FlowContext(x=21, suffix="?")
        fresh.request(ctx2, ["doubled"])
        assert ctx2.get("doubled") == 1000
        assert counter["double"] == 1  # refined value served from cache

    def test_refine_replaces_outputs_timed_as_the_stage(self):
        counter = {"double": 0, "shout": 0}
        executor = PipelineExecutor(_counting_stages(counter))
        ctx = FlowContext(x=21, suffix="?")
        executor.request(ctx, ["shouted"])
        ran = executor.stage_seconds["double"]
        tracer = Tracer()
        with activate(tracer):
            executor.refine(ctx, "double", lambda ctx: {"doubled": 1000})
        (refined,) = tracer.spans()
        assert (refined.name, refined.kind) == ("double", "stage")
        assert refined.attributes == {"cache": "refine"}
        assert executor.stage_seconds["double"] == ran + refined.duration
        assert executor.stage_runs["double"] == 1
        # downstream stages see the refined output on the next request
        executor.request(ctx, ["shouted"])
        assert ctx.get("shouted") == "1000!?"
        with pytest.raises(PipelineError, match="did not produce"):
            executor.refine(ctx, "double", lambda ctx: {})

    def test_commit_outputs_unknown_stage_raises(self):
        executor = PipelineExecutor(_counting_stages({"double": 0,
                                                      "shout": 0}))
        with pytest.raises(PipelineError, match="unknown stage"):
            executor.commit_outputs(FlowContext(x=1), "nope")

    def test_duplicate_producer_rejected(self):
        stage = Stage("a", (), ("k",), lambda ctx: {"k": 1})
        clone = Stage("b", (), ("k",), lambda ctx: {"k": 2})
        with pytest.raises(PipelineError, match="produced by both"):
            PipelineExecutor([stage, clone])

    def test_stage_must_produce_declared_outputs(self):
        stage = Stage("bad", ("x",), ("y",), lambda ctx: {})
        executor = PipelineExecutor([stage])
        with pytest.raises(PipelineError, match="did not produce"):
            executor.request(FlowContext(x=1), ["y"])

    def test_cross_executor_cache(self):
        cache = StageCache()
        counter = {"double": 0, "shout": 0}
        first = PipelineExecutor(_counting_stages(counter), cache=cache)
        first.request(FlowContext(x=21, suffix="?"), ["shouted"])
        second = PipelineExecutor(_counting_stages(counter), cache=cache)
        ctx = FlowContext(x=21, suffix="?")
        second.request(ctx, ["shouted"])
        assert counter == {"double": 1, "shout": 1}
        assert second.stage_runs == {"double": 0, "shout": 0}
        assert second.cache_hits == {"double": 1, "shout": 1}
        assert ctx.get("shouted") == "42!?"

    def test_cache_lru_eviction(self):
        cache = StageCache(max_entries=1)
        cache.put("s", ("a",), {"k": (1, "fp")})
        cache.put("s", ("b",), {"k": (2, "fp")})
        assert len(cache) == 1
        assert cache.get("s", ("a",)) is None
        assert cache.get("s", ("b",)) is not None

    def test_snapshot_delta_reports_window_honestly(self):
        # a fully-warm re-sweep must report hit_rate 1.0 for its own
        # window, not ~0.5 diluted by the cold pass that came before
        cache = StageCache()
        cache.put("s", ("a",), {"k": (1, "fp")})
        cache.get("s", ("miss",))
        cache.get("s", ("a",))
        assert cache.stats()["hit_rate"] == 0.5
        window = cache.snapshot()
        cache.get("s", ("a",))
        cache.get("s", ("a",))
        warm = cache.stats(since=window)
        assert warm["hits"] == 2
        assert warm["misses"] == 0
        assert warm["hit_rate"] == 1.0
        # lifetime view unchanged by windowing
        assert cache.stats()["hits"] == 3

    def test_merge_stats_across_caches(self):
        views = [{"entries": 10, "max_entries": 64, "hits": 8, "misses": 2},
                 {"entries": 5, "max_entries": 64, "hits": 0, "misses": 5}]
        merged = StageCache.merge_stats(views)
        assert merged["entries"] == 15
        assert merged["hits"] == 8 and merged["misses"] == 7
        assert merged["hit_rate"] == round(8 / 15, 4)
        assert merged["caches"] == 2

    def test_merge_stats_of_nothing(self):
        merged = StageCache.merge_stats([])
        assert merged["caches"] == 0
        assert merged["hit_rate"] == 0.0

    def test_merge_stats_of_mixed_tiered_and_flat_views(self):
        # shard reduce may see tiered views (store-backed workers) and
        # flat views (memory-only workers) in the same sweep: numeric
        # counters sum, nested l1/l2 tiers merge recursively, and the
        # top-level hit rate is recomputed over the merged counters
        tiered = {"hits": 4, "misses": 1, "promotions": 2,
                  "l1": {"entries": 3, "max_entries": 64,
                         "hits": 2, "misses": 3},
                  "l2": {"hits": 2, "misses": 1, "entries": 9,
                         "bytes": 4096, "evictions": 0,
                         "quarantined": 0, "hit_rate": 0.6667}}
        flat = {"entries": 5, "max_entries": 64, "hits": 1, "misses": 4,
                "hit_rate": 0.2}
        merged = StageCache.merge_stats([tiered, flat])
        assert merged["caches"] == 2
        assert merged["hits"] == 5 and merged["misses"] == 5
        assert merged["hit_rate"] == 0.5
        assert merged["promotions"] == 2
        # the flat view's entries stay top-level; the tiered view's
        # occupancy lives in its nested tiers
        assert merged["entries"] == 5
        assert merged["l1"] == {"entries": 3, "max_entries": 64,
                                "hits": 2, "misses": 3,
                                "hit_rate": 0.4, "caches": 1}
        assert merged["l2"]["hits"] == 2
        assert merged["l2"]["bytes"] == 4096
        assert merged["l2"]["hit_rate"] == round(2 / 3, 4)
        assert merged["l2"]["caches"] == 1

    def test_merge_stats_mixed_with_empty_view(self):
        views = [{"entries": 2, "max_entries": 64, "hits": 3, "misses": 1},
                 {}]
        merged = StageCache.merge_stats(views)
        assert merged["caches"] == 2
        assert merged["hits"] == 3 and merged["misses"] == 1
        assert merged["hit_rate"] == 0.75

    def test_merge_stats_of_two_tiered_views(self):
        view = {"hits": 2, "misses": 2, "promotions": 1,
                "l1": {"entries": 1, "max_entries": 8,
                       "hits": 1, "misses": 3},
                "l2": {"hits": 1, "misses": 2, "entries": 4}}
        merged = StageCache.merge_stats([view, view])
        assert merged["caches"] == 2
        assert merged["hits"] == 4 and merged["misses"] == 4
        assert merged["l1"]["caches"] == 2
        assert merged["l1"]["hits"] == 2 and merged["l1"]["misses"] == 6
        assert merged["l2"]["entries"] == 8  # shared store counted per view


class _AllHardware(Partitioner):
    """Force every internal node onto the first FPGA (ignores area)."""

    name = "all_hw"

    def solve(self, problem):
        fpga = problem.arch.fpga_names[0]
        return {n.name: fpga for n in problem.graph.internal_nodes()}


def _tiny_fpga_board(clb_capacity: int) -> TargetArchitecture:
    """A board whose FPGA is deliberately undersized for the equalizer."""
    return TargetArchitecture(
        name=f"tiny_{clb_capacity}",
        processors=(dsp56001("dsp0"),),
        fpgas=(Fpga(name="fpga0", model="XC-tiny",
                    clb_capacity=clb_capacity, clock_hz=10e6),),
        memory=MemoryDevice("sram", 64 * 1024, base_address=0x1000,
                            word_bytes=2, read_cycles=1, write_cycles=1),
        bus=Bus("sysbus", width_bits=16, clock_hz=10e6, cycles_per_word=1),
    )


class TestAreaRepair:
    def test_undersized_fpga_converges_by_eviction(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(_tiny_fpga_board(2), partitioner=_AllHardware())
        result = flow.run(graph)
        repairs = result.partition_result.stats["area_repairs"]
        assert repairs >= 1
        for resource, clbs in result.clbs_per_fpga.items():
            assert clbs <= result.arch.fpga(resource).clb_capacity
        # evicted nodes actually run in software
        assert result.partition_result.partition.sw_nodes()
        assert "dsp0.c" in result.c_files

    def test_repaired_flow_still_simulates_correctly(self):
        graph = four_band_equalizer(words=8)
        stimuli = {"x": [7, -3 & 0xFFFF, 12, 0, 5, 0, 0, 0]}
        flow = CoolFlow(_tiny_fpga_board(2), partitioner=_AllHardware())
        result = flow.run(graph, stimuli=stimuli)
        assert result.partition_result.stats["area_repairs"] >= 1
        assert result.sim_result.outputs["y"] == execute(graph, stimuli)["y"]

    def test_repair_time_is_traced_as_partitioning(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(_tiny_fpga_board(2), partitioner=_AllHardware())
        tracer = Tracer()
        with activate(tracer):
            result = flow.run(graph)
        assert result.partition_result.stats["area_repairs"] >= 1
        traced = 0.0
        for entry in tracer.spans():
            if entry.kind == "stage" and entry.name == "partitioning":
                traced += entry.duration
        # the eviction search is a partitioning stage span, so the trace
        # and stage_seconds agree to the last bit
        assert traced == result.stage_seconds["partitioning"]

    def test_non_convergence_raises(self, monkeypatch):
        graph = four_band_equalizer(words=8)
        arch = _tiny_fpga_board(2)

        def always_overflowing(graph_, partition, resource, fpga):
            node_areas = {name: 100 for name in partition.nodes_on(resource)}
            return SimpleNamespace(node_areas=node_areas,
                                   total_area_clbs=fpga.clb_capacity + 1,
                                   latencies={})

        monkeypatch.setattr("repro.flow.cool.synthesize_resource",
                            always_overflowing)
        flow = CoolFlow(arch, partitioner=_AllHardware())
        with pytest.raises(RuntimeError, match="area repair"):
            flow.run(graph)

    def test_victim_selection_respects_deadline(self):
        """The largest node is skipped when evicting it breaks the deadline."""
        graph = TaskGraph("victims")
        graph.add_node(name="in0", kind="input", width=16, words=8)
        graph.add_node(name="heavy", kind="fir",
                       params={"taps": tuple(range(1, 13)), "shift": 2},
                       width=16, words=8)
        graph.add_node(name="light", kind="gain",
                       params={"factor": 2, "shift": 1},
                       width=16, words=8)
        graph.add_node(name="out0", kind="output", width=16, words=8)
        graph.add_edge("in0", "heavy")
        graph.add_edge("heavy", "light")
        graph.add_edge("light", "out0")

        arch = _tiny_fpga_board(400)
        problem_free = PartitioningProblem(graph, arch)
        both_hw = {"heavy": "fpga0", "light": "fpga0"}
        makespans = {}
        for victim in ("heavy", "light"):
            mapping = dict(both_hw)
            mapping[victim] = "dsp0"
            _, schedule, _ = evaluate_mapping(problem_free, mapping)
            makespans[victim] = schedule.makespan
        assert makespans["heavy"] > makespans["light"], \
            "scenario needs the heavy node to be slower in software"

        deadline = makespans["light"]
        problem = PartitioningProblem(graph, arch, deadline=deadline)
        partition, _, _ = evaluate_mapping(problem, both_hw)
        # "heavy" saves the most area but breaks the deadline -> "light"
        victim, moved, schedule, report = select_eviction_victim(
            problem, partition, "fpga0",
            {"heavy": 100, "light": 50}, "dsp0")
        assert victim == "light"
        assert report.deadline_ok
        assert moved.resource_of("light") == "dsp0"
        assert moved.resource_of("heavy") == "fpga0"

    def test_victim_selection_falls_back_to_largest(self):
        graph = four_band_equalizer(words=8)
        arch = _tiny_fpga_board(2)
        problem = PartitioningProblem(graph, arch, deadline=1)  # hopeless
        mapping = {n.name: "fpga0" for n in graph.internal_nodes()}
        partition, _, _ = evaluate_mapping(problem, mapping)
        areas = {name: 10 + i
                 for i, name in enumerate(partition.nodes_on("fpga0"))}
        biggest = max(areas, key=areas.get)
        victim, *_ = select_eviction_victim(problem, partition, "fpga0",
                                            areas, "dsp0")
        assert victim == biggest

    def test_victim_selection_without_candidates_raises(self):
        graph = four_band_equalizer(words=8)
        problem = PartitioningProblem(graph, _tiny_fpga_board(2))
        mapping = {n.name: "dsp0" for n in graph.internal_nodes()}
        partition, _, _ = evaluate_mapping(problem, mapping)
        with pytest.raises(RuntimeError, match="no evictable nodes"):
            select_eviction_victim(problem, partition, "fpga0", {}, "dsp0")


class TestIncrementalReexecution:
    def test_stg_and_comm_not_rerun_during_area_repair(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(_tiny_fpga_board(2), partitioner=_AllHardware())
        result = flow.run(graph)
        repairs = result.partition_result.stats["area_repairs"]
        assert repairs >= 1
        # hls re-ran once per repair, co-synthesis ran exactly once
        assert result.stage_runs["hls"] == repairs + 1
        assert result.stage_runs["stg"] == 1
        assert result.stage_runs["communication"] == 1
        assert result.stage_runs["codegen"] == 1

    def test_deadline_sweep_shares_downstream_stages(self):
        # partitioning outputs are content-hashed, so deadlines that
        # reach the same partition share every later stage on a shared
        # cache; input-addressed partitions would re-run them per deadline
        graph = four_band_equalizer(words=8)
        stimuli = {"x": [10, 20, 30, 40, 0, 0, 0, 0]}
        free = CoolFlow(minimal_board(),
                        partitioner=GreedyPartitioner()).run(graph)
        deadlines = [None, free.makespan, free.makespan * 5 // 4,
                     free.makespan * 2, free.makespan * 3]
        cache = StageCache()
        runs: dict[str, int] = {}
        partitions = set()
        for deadline in deadlines:
            shared = CoolFlow(minimal_board(),
                              partitioner=GreedyPartitioner(),
                              stage_cache=cache).run(
                graph, stimuli=stimuli, deadline=deadline)
            fresh = CoolFlow(minimal_board(),
                             partitioner=GreedyPartitioner()).run(
                graph, stimuli=stimuli, deadline=deadline)
            assert shared.partition_result.partition.mapping == \
                fresh.partition_result.partition.mapping
            assert shared.partition_result.feasibility == \
                fresh.partition_result.feasibility
            assert shared.vhdl_files == fresh.vhdl_files
            assert shared.c_files == fresh.c_files
            assert shared.clbs_per_fpga == fresh.clbs_per_fpga
            assert shared.plan.stats() == fresh.plan.stats()
            assert shared.guard_report == fresh.guard_report
            assert shared.composition_check == fresh.composition_check
            assert shared.sim_result.outputs == fresh.sim_result.outputs
            assert shared.sim_result.cycles == fresh.sim_result.cycles
            partitions.add(shared.partition_result.partition.fingerprint())
            for stage, count in shared.stage_runs.items():
                runs[stage] = runs.get(stage, 0) + count
        assert 2 <= len(partitions) < len(deadlines)
        assert runs["validate"] == 1
        assert runs["partitioning"] == len(deadlines)
        for stage in ("stg", "communication", "hls", "controllers",
                      "verify", "codegen", "cosim"):
            assert runs[stage] == len(partitions), stage

    def test_boards_with_one_stg_share_verify(self):
        # the minimized STG and the system controller are content-hashed:
        # an all-software mapping on two boards is two schedules but one
        # STG, so the second board re-runs stg and controllers but not
        # the composition proof
        graph = four_band_equalizer(words=8)
        cache = StageCache()
        CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                 stage_cache=cache).run(graph, deadline=100_000)
        shared = CoolFlow(cool_board(), partitioner=GreedyPartitioner(),
                          stage_cache=cache).run(graph, deadline=100_000)
        fresh = CoolFlow(cool_board(), partitioner=GreedyPartitioner()).run(
            graph, deadline=100_000)
        assert shared.stage_runs["stg"] == 1
        assert shared.stage_runs["controllers"] == 1
        assert shared.stage_runs["verify"] == 0
        assert shared.composition_check == fresh.composition_check
        assert shared.vhdl_files == fresh.vhdl_files

    def test_second_run_after_area_repair_skips_eviction_search(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(_tiny_fpga_board(2), partitioner=_AllHardware())
        first = flow.run(graph)
        repairs = first.partition_result.stats["area_repairs"]
        assert repairs >= 1
        second = flow.run(graph)
        # the converged mapping was committed to the cache: no stage
        # re-runs, and the repaired stats are preserved
        assert sum(second.stage_runs.values()) == 0
        assert second.partition_result.stats["area_repairs"] == repairs
        assert second.clbs_per_fpga == first.clbs_per_fpga

    def test_result_dicts_are_isolated_from_cache(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
        first = flow.run(graph)
        first.vhdl_files["injected.vhd"] = "-- mutated by caller"
        first.c_files["rogue.c"] = "int main(){}"
        second = flow.run(graph)
        assert "injected.vhd" not in second.vhdl_files
        assert "rogue.c" not in second.c_files

    def test_partition_stats_are_isolated_from_cache(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
        first = flow.run(graph)
        first.partition_result.stats["note"] = "mine"
        second = flow.run(graph)
        assert "note" not in second.partition_result.stats

    def test_second_run_hits_stage_cache(self):
        graph = four_band_equalizer(words=8)
        stimuli = {"x": [10, 20, 30, 40, 0, 0, 0, 0]}
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
        first = flow.run(graph, stimuli=stimuli)
        assert sum(first.stage_runs.values()) > 0
        second = flow.run(graph, stimuli=stimuli)
        assert sum(second.stage_runs.values()) == 0
        # everything is still reported, timed and identical
        for stage in ("validate", "partitioning", "stg", "communication",
                      "hls", "controllers", "codegen", "cosim"):
            assert stage in second.stage_seconds
        assert second.vhdl_files == first.vhdl_files
        assert second.makespan == first.makespan
        assert second.sim_result.outputs == first.sim_result.outputs

    def test_changed_graph_misses_stage_cache(self):
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
        flow.run(four_band_equalizer(words=8))
        other = flow.run(four_band_equalizer(words=4))
        assert sum(other.stage_runs.values()) > 0

    def test_changed_deadline_reruns_partitioning_only_downstream(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
        free = flow.run(graph)
        relaxed = flow.run(graph, deadline=free.makespan * 4)
        # partitioning re-ran (new deadline artifact) ...
        assert relaxed.stage_runs["partitioning"] == 1
        # ... but validation was cache-served
        assert relaxed.stage_runs["validate"] == 0

    def test_shared_cache_across_flow_instances(self):
        graph = four_band_equalizer(words=8)
        cache = StageCache()
        first = CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                         stage_cache=cache)
        first.run(graph)
        second = CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                          stage_cache=cache)
        result = second.run(graph)
        assert sum(result.stage_runs.values()) == 0
