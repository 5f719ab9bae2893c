"""Ablation A: COOL's partitioning engines compared.

Paper Section 2 lists three options -- MILP, MILP+heuristic, genetic
algorithms.  This benchmark compares them (plus the greedy heuristic)
on three workloads and asserts that every engine returns a feasible
implementation and that the MILP's makespan is within 1.15x (+1 tick)
of every heuristic's.

The slack is needed: the MILP is exact for its own objective, the load
surrogate (the busiest resource or bus), not for the list-schedule
makespan reported here, so a heuristic can beat it on makespan -- the
genetic algorithm does on the fuzzy controller (344 against 391) and
the greedy heuristic on the equalizer (748 against 815).  The output
prints each workload's MILP / best-heuristic makespan ratio next to
the bound.
"""

from repro.apps import four_band_equalizer, fuzzy_controller, random_task_graph
from repro.partition import (GaConfig, GeneticPartitioner, GreedyPartitioner,
                             MilpHeuristicPartitioner, MilpPartitioner,
                             PartitioningProblem)
from repro.platform import cool_board
from repro.schedule import validate_schedule

ENGINES = [
    MilpPartitioner(),
    MilpHeuristicPartitioner(),
    GreedyPartitioner(),
    GeneticPartitioner(GaConfig(population=20, generations=15, seed=3)),
]

HEURISTICS = ("greedy", "genetic", "milp+heuristic")
#: MILP makespan may exceed a heuristic's by this factor (+1 tick).
SLACK = 1.15

WORKLOADS = [
    ("equalizer", lambda: four_band_equalizer(words=16)),
    ("fuzzy", fuzzy_controller),
    ("random_20", lambda: random_task_graph(20, seed=4)),
]


def compare():
    arch = cool_board()
    table = {}
    for wname, build in WORKLOADS:
        problem = PartitioningProblem(build(), arch)
        for engine in ENGINES:
            table[(wname, engine.name)] = engine.partition(problem)
    return table


def test_ablation_partitioner_comparison(benchmark, run_once):
    table = run_once(benchmark, compare)

    print("\nAblation A -- partitioning engines:")
    print(f"  {'workload':<11} {'engine':<16} {'makespan':>9} "
          f"{'hw CLBs':>8} {'cut':>4} {'time[s]':>8}")
    for (wname, ename), result in table.items():
        assert validate_schedule(result.schedule) == []
        assert result.feasibility.area_ok and result.feasibility.memory_ok
        print(f"  {wname:<11} {ename:<16} {result.makespan:>9} "
              f"{result.hw_area:>8} {len(result.partition.cut_edges()):>4} "
              f"{result.runtime_s:>8.3f}")

    print(f"\n  {'workload':<11} {'MILP/best heuristic':>20} {'bound':>6}")
    for wname, _ in WORKLOADS:
        milp = table[(wname, "milp")].makespan
        best = min(table[(wname, ename)].makespan for ename in HEURISTICS)
        print(f"  {wname:<11} {milp / best:>20.3f} {SLACK:>6.2f}")
        assert milp <= int(SLACK * best) + 1
