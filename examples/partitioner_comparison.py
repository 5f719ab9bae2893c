#!/usr/bin/env python3
"""Compare COOL's three partitioning engines (paper Section 2).

Runs the MILP (HiGHS), the MILP+heuristic combination, the greedy
heuristic and the genetic algorithm on the equalizer, the fuzzy
controller and a random TGFF-style graph; prints makespan, hardware
area, cut traffic and runtime for each.
"""

from repro.apps import four_band_equalizer, fuzzy_controller, random_task_graph
from repro.partition import (GaConfig, GeneticPartitioner, GreedyPartitioner,
                             MilpHeuristicPartitioner, MilpPartitioner,
                             PartitioningProblem)
from repro.platform import cool_board

PARTITIONERS = [
    MilpPartitioner(),
    MilpHeuristicPartitioner(),
    GreedyPartitioner(),
    GeneticPartitioner(GaConfig(population=24, generations=25, seed=7)),
]

WORKLOADS = [
    ("equalizer", four_band_equalizer(words=16)),
    ("fuzzy", fuzzy_controller()),
    ("random_24", random_task_graph(24, seed=11)),
]


def main() -> None:
    arch = cool_board()
    header = (f"{'workload':<12} {'algorithm':<16} {'makespan':>9} "
              f"{'hw CLBs':>8} {'hw nodes':>9} {'cut':>4} {'time[s]':>8}")
    print(header)
    print("-" * len(header))
    for name, graph in WORKLOADS:
        problem = PartitioningProblem(graph, arch)
        sw_bound = problem.model.software_bound()
        for partitioner in PARTITIONERS:
            result = partitioner.partition(problem)
            print(f"{name:<12} {partitioner.name:<16} "
                  f"{result.makespan:>9} {result.hw_area:>8} "
                  f"{len(result.partition.hw_nodes()):>9} "
                  f"{len(result.partition.cut_edges()):>4} "
                  f"{result.runtime_s:>8.3f}")
        print(f"{name:<12} {'(pure software)':<16} {sw_bound:>9} "
              f"{'0':>8} {'0':>9} {'-':>4} {'-':>8}")
        print()


if __name__ == "__main__":
    main()
