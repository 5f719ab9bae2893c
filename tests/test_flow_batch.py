"""Tests for parallel batch execution and design-space exploration."""

import time

import pytest

from repro.apps import four_band_equalizer, fuzzy_controller
from repro.flow import (BatchRunner, CoolFlow, DesignSpaceExplorer,
                        ExplorationResult, FlowJob, StageCache)
from repro.graph import TaskGraph, execute
from repro.partition import GreedyPartitioner, MilpPartitioner
from repro.platform import cool_board, minimal_board
from repro.workloads import build_graphs, workload_suite


class SleepyPartitioner(GreedyPartitioner):
    """Simulates a straggler job for the timeout tests."""

    def __init__(self, sleep_s: float = 2.0):
        super().__init__()
        self.sleep_s = sleep_s

    def solve(self, problem):
        time.sleep(self.sleep_s)
        return super().solve(problem)


def _jobs():
    equalizer = four_band_equalizer(words=8)
    return [
        FlowJob(graph=equalizer, arch=minimal_board(),
                partitioner=GreedyPartitioner(), label="eq/greedy"),
        FlowJob(graph=equalizer, arch=minimal_board(),
                partitioner=MilpPartitioner(), label="eq/milp"),
        FlowJob(graph=fuzzy_controller(), arch=cool_board(),
                partitioner=GreedyPartitioner(), label="fuzzy/greedy"),
        FlowJob(graph=equalizer, arch=cool_board(),
                partitioner=GreedyPartitioner(),
                stimuli={"x": [5] * 8}, label="eq/cosim"),
    ]


class TestBatchRunner:
    def test_serial_and_parallel_agree(self):
        serial = BatchRunner(backend="serial").run(_jobs())
        parallel = BatchRunner(shards=2).run(_jobs())
        assert len(serial) == len(parallel) == 4
        assert all(o.ok for o in serial + parallel)
        assert [o.job.label for o in serial] == \
            [o.job.label for o in parallel]
        assert ExplorationResult.from_outcomes(parallel).points == \
            ExplorationResult.from_outcomes(serial).points

    def test_outcomes_keep_input_order(self):
        outcomes = BatchRunner(shards=2).run(_jobs())
        assert [o.job.label for o in outcomes] == \
            ["eq/greedy", "eq/milp", "fuzzy/greedy", "eq/cosim"]
        assert all(o.seconds > 0 for o in outcomes)

    def test_cosim_job_matches_reference(self):
        outcome = BatchRunner(backend="serial").run([_jobs()[3]])[0]
        graph = four_band_equalizer(words=8)
        assert outcome.result.sim_result.outputs["y"] == \
            execute(graph, {"x": [5] * 8})["y"]

    def test_failures_are_isolated(self):
        broken = TaskGraph("broken")
        broken.add_node(name="a", kind="gain",
                        params={"factor": 2, "shift": 1})
        broken.add_node(name="b", kind="gain",
                        params={"factor": 2, "shift": 1})
        broken.add_edge("a", "b")
        broken.add_edge("b", "a")  # cycle -> validation fails
        jobs = [_jobs()[0],
                FlowJob(graph=broken, arch=minimal_board(), label="bad"),
                _jobs()[2]]
        outcomes = BatchRunner(shards=2).run(jobs)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].result is None
        assert "GraphError" in outcomes[1].error

    def test_unknown_backend_rejected(self):
        for backend in ("carrier-pigeon", "thread", "process"):
            with pytest.raises(ValueError, match="backend"):
                BatchRunner(backend=backend)

    def test_arguments_a_backend_would_ignore_are_rejected(self):
        # worker counts mean nothing to the serial backend, and a live
        # cache cannot be shared with shard worker processes: accepting
        # either would ignore it silently
        with pytest.raises(ValueError, match="max_workers"):
            BatchRunner(max_workers=4)
        with pytest.raises(ValueError, match="max_workers"):
            BatchRunner(backend="serial", max_workers=4)
        with pytest.raises(ValueError, match="stage_cache"):
            BatchRunner(shards=2, stage_cache=StageCache())
        with pytest.raises(ValueError, match="stage_cache"):
            BatchRunner(backend="shard", stage_cache=StageCache())
        assert BatchRunner().backend == "serial"
        assert BatchRunner(backend="shard", max_workers=2).backend == "shard"

    def test_job_names(self):
        job = FlowJob(graph=four_band_equalizer(words=8),
                      arch=minimal_board(), partitioner=GreedyPartitioner())
        assert job.name == "equalizer@minimal_board/greedy"
        assert FlowJob(graph=job.graph, arch=job.arch,
                       label="custom").name == "custom"

    def test_default_job_name_tracks_flow_default_partitioner(self):
        # partitioner=None means "whatever CoolFlow defaults to"; the
        # displayed algorithm must come from that same source of truth
        # (a hardcoded name drifts whenever the flow default is renamed)
        job = FlowJob(graph=four_band_equalizer(words=8),
                      arch=minimal_board())
        default_name = CoolFlow.default_partitioner().name
        assert default_name in job.name
        assert job.name == \
            f"equalizer@minimal_board/{default_name}"


class TestStreamingRunner:
    def test_progress_callback_streams_completions(self):
        events = []

        def progress(outcome, done, total):
            events.append((outcome.job.label, done, total))

        outcomes = BatchRunner(shards=2).run(_jobs(), progress=progress)
        assert [o.job.label for o in outcomes] == \
            ["eq/greedy", "eq/milp", "fuzzy/greedy", "eq/cosim"]
        assert [d for _, d, _ in events] == [1, 2, 3, 4]
        assert all(t == 4 for _, _, t in events)
        # completion order covers exactly the submitted jobs
        assert sorted(label for label, _, _ in events) == \
            sorted(o.job.label for o in outcomes)

    def test_progress_callback_on_serial_backend(self):
        events = []
        BatchRunner(backend="serial").run(
            _jobs()[:2], progress=lambda o, d, t: events.append((d, t)))
        assert events == [(1, 2), (2, 2)]

    def test_progress_callback_failure_does_not_abort_sweep(self):
        # a buggy observer must never sink a sweep whose jobs all
        # succeeded: the exception is swallowed, warned about once, and
        # later completions keep streaming to the same callback
        events = []

        def progress(outcome, done, total):
            events.append((outcome.job.label, done))
            if done == 1:
                raise RuntimeError("observer bug")

        with pytest.warns(RuntimeWarning, match="progress callback"):
            outcomes = BatchRunner(shards=2).run(_jobs(), progress=progress)
        assert [o.job.label for o in outcomes] == \
            ["eq/greedy", "eq/milp", "fuzzy/greedy", "eq/cosim"]
        assert all(o.ok for o in outcomes)
        assert [d for _, d in events] == [1, 2, 3, 4]

    def test_progress_callback_warns_once_for_repeat_failures(self):
        import warnings as _warnings

        def progress(outcome, done, total):
            raise RuntimeError("always broken")

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            outcomes = BatchRunner(backend="serial").run(
                _jobs()[:3], progress=progress)
        assert all(o.ok for o in outcomes)
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1

    def test_shared_stage_cache_across_jobs(self):
        cache = StageCache(max_entries=512)
        runner = BatchRunner(backend="serial", stage_cache=cache)
        job = FlowJob(graph=four_band_equalizer(words=8),
                      arch=minimal_board(),
                      partitioner=GreedyPartitioner())
        first, second = runner.run([job, job])
        assert first.ok and second.ok
        assert sum(second.result.stage_runs.values()) == 0, \
            "second identical job must be served from the shared cache"
        assert cache.stats()["hits"] > 0
        assert first.result.report() == second.result.report()

    def test_job_timeout_turns_straggler_into_failed_outcome(self):
        # the serial backend applies the budget rule of both backends:
        # checked when the job returns, an over-budget result discarded
        equalizer = four_band_equalizer(words=8)
        jobs = [FlowJob(graph=equalizer, arch=minimal_board(),
                        partitioner=GreedyPartitioner(), label="fast"),
                FlowJob(graph=equalizer, arch=minimal_board(),
                        partitioner=SleepyPartitioner(1.2), label="slow"),
                FlowJob(graph=equalizer, arch=cool_board(),
                        partitioner=GreedyPartitioner(), label="after")]
        outcomes = BatchRunner(job_timeout=0.8).run(jobs)
        assert outcomes[0].ok and outcomes[0].result is not None
        assert not outcomes[1].ok
        assert "Timeout" in outcomes[1].error
        assert "budget" in outcomes[1].error
        assert "discarded" in outcomes[1].error
        assert outcomes[1].result is None
        assert outcomes[1].seconds >= 0.8
        assert outcomes[2].ok, "the sweep continues after an expired job"

    def test_bad_job_timeout_rejected(self):
        with pytest.raises(ValueError, match="job_timeout"):
            BatchRunner(job_timeout=0.0)


class TestSpecBasedJobs:
    def test_exactly_one_design_source_required(self):
        arch = minimal_board()
        spec = workload_suite(1, seed=5)[0]
        graph = four_band_equalizer(words=8)
        with pytest.raises(ValueError, match="exactly one design source"):
            FlowJob(arch=arch)
        with pytest.raises(ValueError, match="exactly one design source"):
            FlowJob(graph=graph, workload=spec, arch=arch)
        with pytest.raises(ValueError, match="architecture"):
            FlowJob(graph=graph)

    def test_spec_job_matches_built_graph_job(self):
        arch = minimal_board()
        spec = workload_suite(1, seed=5)[0]
        by_spec = BatchRunner(backend="serial").run(
            [FlowJob(workload=spec, arch=arch,
                     partitioner=GreedyPartitioner())])[0]
        by_graph = BatchRunner(backend="serial").run(
            [FlowJob(graph=spec.build(), arch=arch,
                     partitioner=GreedyPartitioner())])[0]
        assert by_spec.ok and by_graph.ok
        assert by_spec.result.report() == by_graph.result.report()

    def test_spec_job_names_use_label(self):
        arch = minimal_board()
        spec = workload_suite(1, seed=5)[0]
        job = FlowJob(workload=spec, arch=arch,
                      partitioner=GreedyPartitioner())
        assert job.design_name == spec.label
        assert job.name.startswith(spec.label)

    def test_explorer_accepts_spec_entries(self):
        specs = workload_suite(2, seed=9)
        explorer = DesignSpaceExplorer(
            specs, [minimal_board()], [GreedyPartitioner()],
            runner=BatchRunner(backend="serial"))
        result = explorer.explore()
        assert len(result.points) == 2
        assert {p.label.split("@")[0] for p in result.points} == \
            {s.label for s in specs}


class TestDesignSpaceExplorer:
    @pytest.fixture(scope="class")
    def exploration(self):
        graph = four_band_equalizer(words=8)
        explorer = DesignSpaceExplorer(
            graph,
            architectures=[minimal_board(), cool_board()],
            partitioners=[GreedyPartitioner(), MilpPartitioner()],
            deadlines=[None, 10_000],
            runner=BatchRunner(),
        )
        return explorer.explore()

    def test_sweep_covers_cross_product(self, exploration):
        assert len(exploration.points) + len(exploration.failures) == 8

    def test_pareto_front_is_nonempty_subset(self, exploration):
        front = exploration.pareto()
        assert front
        assert set(front) <= set(exploration.feasible_points())
        # no front point may be dominated by any other feasible point
        for p in front:
            assert not any(q.dominates(p)
                           for q in exploration.feasible_points())

    def test_ranked_puts_pareto_first(self, exploration):
        ranked = exploration.ranked()
        assert len(ranked) == len(exploration.points)
        front = set(exploration.pareto())
        prefix = ranked[: len(front)]
        assert set(prefix) == front

    def test_table_renders(self, exploration):
        text = exploration.table()
        assert "makespan" in text
        assert "CLBs" in text
        for point in exploration.pareto():
            assert point.label in text

    def test_deadline_points_respect_deadline(self, exploration):
        for point in exploration.points:
            if point.deadline is not None and point.feasible:
                assert point.makespan <= point.deadline

    def test_infeasible_points_excluded_from_front_and_ranked_last(self):
        graph = four_band_equalizer(words=8)
        exploration = DesignSpaceExplorer(
            graph,
            architectures=[minimal_board()],
            partitioners=[GreedyPartitioner()],
            deadlines=[None, 100],  # 100 ticks is hopeless -> infeasible
            runner=BatchRunner(backend="serial"),
        ).explore()
        infeasible = [p for p in exploration.points if not p.feasible]
        assert infeasible, "scenario needs an infeasible point"
        assert not set(infeasible) & set(exploration.pareto())
        ranked = exploration.ranked()
        assert all(p.feasible for p in ranked[: len(ranked)
                                             - len(infeasible)])
        assert ranked[0].feasible
        # infeasible rows are flagged in the table
        for line in exploration.table().splitlines():
            if "@100" in line:
                assert line.startswith("!")

    def test_same_name_partitioners_get_distinct_labels(self):
        explorer = DesignSpaceExplorer(
            four_band_equalizer(words=8),
            architectures=[minimal_board()],
            partitioners=[GreedyPartitioner(),
                          GreedyPartitioner(max_moves=1)],
        )
        labels = [job.label for job in explorer.jobs()]
        assert len(labels) == len(set(labels))
        assert labels == ["minimal_board/greedy#1", "minimal_board/greedy#2"]

    def test_dominance_is_strict(self):
        a = next(iter(_jobs()), None)  # noqa: F841 - just exercise import
        from repro.flow import DesignPoint
        base = dict(label="x", algorithm="a", arch="b", deadline=None,
                    hw_nodes=1, sw_nodes=1, feasible=True)
        p = DesignPoint(makespan=10, total_clbs=5, memory_words=3, **base)
        q = DesignPoint(makespan=12, total_clbs=5, memory_words=3, **base)
        assert p.dominates(q)
        assert not q.dominates(p)
        assert not p.dominates(p)

    def test_infeasible_outlier_does_not_flatten_feasible_scores(self):
        # regression: `worst` used to be computed over *all* points, so
        # one wildly infeasible outlier flattened the scores ordering
        # the feasible tier
        from repro.flow import DesignPoint, ExplorationResult
        base = dict(algorithm="a", arch="b", deadline=None, hw_nodes=1,
                    sw_nodes=1)
        good = DesignPoint(label="good", makespan=100, total_clbs=10,
                           memory_words=10, feasible=True, **base)
        better = DesignPoint(label="better", makespan=60, total_clbs=14,
                             memory_words=10, feasible=True, **base)
        outlier = DesignPoint(label="outlier", makespan=10 ** 9,
                              total_clbs=10 ** 9, memory_words=10 ** 9,
                              feasible=False, **base)
        result = ExplorationResult(points=[good, better, outlier])
        ranked = result.ranked(front=set())
        assert ranked[-1] is outlier
        # with feasible-set normalization the two feasible points score
        # distinctly: `better` trades 40% makespan for 40% CLBs on very
        # different scales
        feasible = [p for p in ranked if p.feasible]
        worst = [100, 14, 10]
        scores = [sum(p.metrics[i] / worst[i] for i in range(3))
                  for p in feasible]
        assert feasible[0].label == "better"
        assert scores[0] < scores[1]

    def test_all_infeasible_falls_back_to_full_set(self):
        from repro.flow import DesignPoint, ExplorationResult
        base = dict(algorithm="a", arch="b", deadline=None, hw_nodes=1,
                    sw_nodes=1, feasible=False)
        p = DesignPoint(label="p", makespan=10, total_clbs=5,
                        memory_words=3, **base)
        q = DesignPoint(label="q", makespan=20, total_clbs=5,
                        memory_words=3, **base)
        ranked = ExplorationResult(points=[q, p]).ranked()
        assert [r.label for r in ranked] == ["p", "q"]


class TestMultiGraphExplorer:
    @pytest.fixture(scope="class")
    def exploration(self):
        graphs = build_graphs(workload_suite(4, seed=9))
        explorer = DesignSpaceExplorer(
            graphs,
            architectures=[minimal_board()],
            partitioners=[GreedyPartitioner(), MilpPartitioner()],
            runner=BatchRunner(backend="serial"),
        )
        return graphs, explorer, explorer.explore()

    def test_cross_product_covers_graphs(self, exploration):
        graphs, explorer, result = exploration
        assert len(explorer.jobs()) == len(graphs) * 2
        assert len(result.points) + len(result.failures) == len(graphs) * 2

    def test_labels_prefixed_with_graph_name(self, exploration):
        graphs, explorer, _ = exploration
        labels = [job.label for job in explorer.jobs()]
        assert len(set(labels)) == len(labels)
        for graph in graphs:
            assert any(label.startswith(f"{graph.name}@")
                       for label in labels)

    def test_pareto_is_judged_per_graph(self, exploration):
        graphs, _, result = exploration
        front = result.pareto()
        by_graph = result.by_graph()
        assert set(by_graph) == {g.name for g in graphs}
        # a front point may only be dominated by rivals of another graph
        for point in front:
            rivals = [q for q in by_graph[point.graph] if q.feasible]
            assert not any(q.dominates(point) for q in rivals)
        # every graph with a feasible point is represented on the front
        for name, points in by_graph.items():
            if any(p.feasible for p in points):
                assert any(p.graph == name for p in front)

    def test_single_graph_stays_backward_compatible(self):
        graph = four_band_equalizer(words=8)
        explorer = DesignSpaceExplorer(
            graph, architectures=[minimal_board()],
            partitioners=[GreedyPartitioner()],
            runner=BatchRunner(backend="serial"))
        assert explorer.graph is graph
        labels = [job.label for job in explorer.jobs()]
        assert labels == ["minimal_board/greedy"]

    def test_duplicate_graph_names_rejected(self):
        graph = four_band_equalizer(words=8)
        with pytest.raises(ValueError, match="unique"):
            DesignSpaceExplorer([graph, graph],
                                architectures=[minimal_board()],
                                partitioners=[GreedyPartitioner()])

    def test_empty_graphs_rejected(self):
        with pytest.raises(ValueError, match="graph"):
            DesignSpaceExplorer([], architectures=[minimal_board()],
                                partitioners=[GreedyPartitioner()])
