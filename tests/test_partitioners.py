"""Unit + integration tests for the partitioning algorithms."""

import signal
import sys

import pytest
from scipy.optimize import OptimizeResult

from repro.apps import four_band_equalizer, fuzzy_controller, random_task_graph
from repro.partition import (GaConfig, GeneticPartitioner, GreedyPartitioner,
                             MilpError, MilpHeuristicPartitioner,
                             MilpPartitioner, PartitioningProblem,
                             area_usage, build_formulation,
                             check_feasibility, evaluate_mapping,
                             memory_words_needed, solve_milp)
from repro.graph import all_software
from repro.platform import cool_board, minimal_board, multi_board
from repro.schedule import validate_schedule
from repro.workloads import workload_suite

ALL_PARTITIONERS = [
    MilpPartitioner(),
    GreedyPartitioner(),
    MilpHeuristicPartitioner(),
    GeneticPartitioner(GaConfig(population=16, generations=12, seed=3)),
]


@pytest.fixture(scope="module")
def equalizer_problem():
    return PartitioningProblem(four_band_equalizer(words=8), minimal_board())


@pytest.fixture(scope="module")
def fuzzy_problem():
    return PartitioningProblem(fuzzy_controller(), cool_board())


class TestFeasibility:
    def test_pure_software_uses_no_area(self, equalizer_problem):
        p = equalizer_problem
        part = all_software(p.graph, "dsp0", hw_resources=p.arch.fpga_names)
        assert area_usage(part, p.model) == {"fpga0": 0}
        report = check_feasibility(part, p.model)
        assert report.area_ok and report.feasible

    def test_memory_words_scale_with_cut(self, equalizer_problem):
        p = equalizer_problem
        sw = all_software(p.graph, "dsp0", hw_resources=p.arch.fpga_names)
        mapping = {n.name: "dsp0" for n in p.graph.internal_nodes()}
        mapping["band0"] = "fpga0"
        mixed = p.make_partition(mapping)
        assert memory_words_needed(mixed, p.arch) > \
            memory_words_needed(sw, p.arch)

    def test_report_problems_listed(self, equalizer_problem):
        p = equalizer_problem
        part = all_software(p.graph, "dsp0", hw_resources=p.arch.fpga_names)
        report = check_feasibility(part, p.model, makespan=100, deadline=10)
        assert not report.feasible
        assert any("deadline" in s for s in report.problems())


class TestFormulation:
    def test_variable_counts(self, equalizer_problem):
        form, idx = build_formulation(equalizer_problem, "min_time")
        n_nodes = len(equalizer_problem.graph.internal_nodes())
        n_res = len(equalizer_problem.resources)
        internal_edges = [e for e in equalizer_problem.graph.edges
                          if not equalizer_problem.graph.node(e.src).is_io
                          and not equalizer_problem.graph.node(e.dst).is_io]
        assert form.n_binaries == n_nodes * n_res
        assert form.n_vars == n_nodes * n_res + len(internal_edges) + 1

    def test_min_area_requires_deadline(self, equalizer_problem):
        with pytest.raises(MilpError):
            build_formulation(equalizer_problem, "min_area", deadline=None)

    def test_unknown_objective_rejected(self, equalizer_problem):
        with pytest.raises(ValueError):
            build_formulation(equalizer_problem, "min_everything")

    def test_assignment_constraints_one_per_node(self, equalizer_problem):
        form, _ = build_formulation(equalizer_problem, "min_time")
        assert len(form.a_eq) == len(equalizer_problem.graph.internal_nodes())
        assert all(rhs == 1.0 for rhs in form.b_eq)


class TestBackendsAgree:
    """``solve_milp`` outcomes: an optimum, ``None`` or ``MilpError``.

    The class keeps the name it had when it compared two MILP solvers,
    so its test ids stay stable.
    """

    def test_infeasible_detected_by_both(self, equalizer_problem):
        form, _ = build_formulation(equalizer_problem, "min_area", deadline=1)
        assert solve_milp(form) is None

    def test_solver_failure_is_not_infeasibility(self, equalizer_problem,
                                                 monkeypatch):
        # HiGHS stopping on an iteration or time limit says nothing about
        # the constraints: it must raise, not pass for "infeasible"
        stopped = OptimizeResult(status=1, success=False, x=None,
                                 message="Time limit reached.")
        monkeypatch.setattr(sys.modules[solve_milp.__module__], "milp",
                            lambda **_: stopped)
        form, _ = build_formulation(equalizer_problem, "min_time")
        with pytest.raises(MilpError, match="status 1.*Time limit reached"):
            solve_milp(form)


class TestPartitioners:
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS,
                             ids=lambda p: p.name)
    def test_valid_result_on_equalizer(self, partitioner, equalizer_problem):
        result = partitioner.partition(equalizer_problem)
        assert validate_schedule(result.schedule) == []
        assert result.feasibility.area_ok
        assert result.feasibility.memory_ok
        summary = result.summary()
        assert summary["algorithm"] == partitioner.name
        assert summary["makespan"] == result.makespan

    def test_greedy_schedules_its_answer_once(self, equalizer_problem,
                                              monkeypatch):
        # partition() reuses the evaluation the search made last, so
        # every list schedule is one of the search's evaluations
        from repro.partition import base
        calls = []
        schedule = base.list_schedule
        monkeypatch.setattr(base, "list_schedule",
                            lambda *a: calls.append(1) or schedule(*a))
        partitioner = GreedyPartitioner()
        result = partitioner.partition(equalizer_problem)
        assert len(calls) == partitioner.stats()["evaluations"]
        assert result.schedule.partition is result.partition
        _, want, report = evaluate_mapping(equalizer_problem,
                                           result.partition.mapping)
        assert result.schedule == want and result.feasibility == report

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS,
                             ids=lambda p: p.name)
    def test_beats_pure_software_on_equalizer(self, partitioner,
                                              equalizer_problem):
        p = equalizer_problem
        sw = all_software(p.graph, "dsp0", hw_resources=p.arch.fpga_names)
        _, sw_schedule, _ = evaluate_mapping(
            p, {n.name: "dsp0" for n in p.graph.internal_nodes()})
        result = partitioner.partition(p)
        assert result.makespan <= sw_schedule.makespan

    def test_milp_min_area_meets_deadline(self):
        graph = four_band_equalizer(words=8)
        arch = minimal_board()
        free = PartitioningProblem(graph, arch)
        best = MilpPartitioner().partition(free).makespan
        sw_time = evaluate_mapping(
            free, {n.name: "dsp0" for n in graph.internal_nodes()}
        )[1].makespan
        deadline = (best + sw_time) // 2
        problem = PartitioningProblem(graph, arch, deadline=deadline)
        result = MilpPartitioner().partition(problem)
        assert result.makespan <= deadline
        assert result.feasibility.feasible
        # area-minimizing: should not use more hardware than the
        # unconstrained makespan-minimizer
        assert result.hw_area <= MilpPartitioner().partition(free).hw_area

    def test_milp_impossible_deadline_raises(self, equalizer_problem):
        problem = PartitioningProblem(equalizer_problem.graph,
                                      equalizer_problem.arch, deadline=1)
        with pytest.raises(MilpError):
            MilpPartitioner().partition(problem)

    def test_greedy_respects_area(self):
        problem = PartitioningProblem(fuzzy_controller(), cool_board())
        result = GreedyPartitioner().partition(problem)
        for fpga in problem.arch.fpgas:
            assert result.feasibility.area[fpga.name] <= fpga.clb_capacity

    def test_milp_heuristic_without_processors_terminates(self):
        # 700 CLBs of nodes on one 400-CLB FPGA and no processor to evict
        # to: the repair must give up (in milliseconds; the alarm turns a
        # repair loop that never ends into a failure) and report the
        # result infeasible, as the greedy partitioner does
        problem = PartitioningProblem(workload_suite(5, seed=1)[0].build(),
                                      multi_board(n_processors=0, n_fpgas=1))

        def timed_out(signum, frame):
            raise TimeoutError("area repair did not terminate within 5 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            result = MilpHeuristicPartitioner().partition(problem)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        greedy = GreedyPartitioner().partition(problem)
        assert result.feasibility.area == {"fpga0": 700}
        assert not result.feasibility.feasible
        assert result.feasibility.problems() == greedy.feasibility.problems()

    def test_genetic_deterministic_in_seed(self, equalizer_problem):
        a = GeneticPartitioner(GaConfig(population=10, generations=6,
                                        seed=11)).partition(equalizer_problem)
        b = GeneticPartitioner(GaConfig(population=10, generations=6,
                                        seed=11)).partition(equalizer_problem)
        assert a.partition.mapping == b.partition.mapping

    def test_genetic_config_overrides(self):
        ga = GeneticPartitioner(population=5, generations=2, seed=1)
        assert ga.config.population == 5
        assert ga.config.generations == 2

    def test_fuzzy_fits_paper_board(self, fuzzy_problem):
        # the case study: 31 nodes must fit DSP + 2x196 CLBs + 64 kB
        result = GreedyPartitioner().partition(fuzzy_problem)
        assert result.feasibility.feasible
        assert validate_schedule(result.schedule) == []


class TestGaConfig:
    @pytest.mark.parametrize("field,value", [
        ("population", 0), ("tournament", 0), ("generations", -1),
        ("elite", -1), ("crossover_rate", 1.5), ("crossover_rate", -0.1),
        ("mutation_rate", 1.01), ("mutation_rate", -0.5)])
    def test_out_of_range_field_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"GaConfig.{field} "):
            GaConfig(**{field: value})
        with pytest.raises(ValueError, match=f"GaConfig.{field} "):
            GeneticPartitioner(**{field: value})

    def test_boundary_values_run(self, equalizer_problem):
        ga = GeneticPartitioner(population=1, tournament=1, generations=1,
                                elite=0, crossover_rate=0.0,
                                mutation_rate=1.0, seed=4)
        result = ga.partition(equalizer_problem)
        assert result.stats["generations_run"] == 1
        assert validate_schedule(result.schedule) == []

    def test_zero_generations_returns_best_seeded_genome(
            self, equalizer_problem):
        # population 2 on a one-DSP, one-FPGA board is exactly the two
        # seeded corners: everything in software, everything in hardware
        ga = GeneticPartitioner(population=2, generations=0)
        result = ga.partition(equalizer_problem)
        nodes = [n.name for n in equalizer_problem.graph.internal_nodes()]
        resources = list(equalizer_problem.resources)
        corners = [tuple([index] * len(nodes))
                   for index in range(len(resources))]
        best = min(corners, key=lambda genome: ga._fitness(
            equalizer_problem, genome, nodes, resources))
        assert result.stats["generations_run"] == 0
        assert result.stats["fitness_evaluations"] == 2
        assert {v: result.partition.mapping[v] for v in nodes} == \
            {v: resources[g] for v, g in zip(nodes, best)}


class TestPartitionersOnRandomGraphs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_partitioners_valid(self, seed):
        graph = random_task_graph(16, seed=seed)
        problem = PartitioningProblem(graph, cool_board())
        for partitioner in (MilpPartitioner(),
                            GreedyPartitioner(),
                            GeneticPartitioner(GaConfig(population=10,
                                                        generations=6,
                                                        seed=seed))):
            result = partitioner.partition(problem)
            assert validate_schedule(result.schedule) == []
            assert result.feasibility.area_ok
