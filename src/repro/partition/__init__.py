"""Hardware/software partitioning: MILP (HiGHS), MILP+heuristic, greedy, GA."""

from .base import (PartitioningProblem, PartitionResult, Partitioner,
                   evaluate_mapping)
from .feasibility import (FeasibilityReport, area_usage, check_feasibility,
                          memory_words_needed)
from .milp import (MilpError, MilpFormulation, MilpPartitioner,
                   build_formulation, solve_milp)
from .heuristic import GreedyPartitioner, MilpHeuristicPartitioner
from .genetic import GaConfig, GeneticPartitioner

__all__ = [
    "PartitioningProblem", "PartitionResult", "Partitioner",
    "evaluate_mapping", "FeasibilityReport", "area_usage",
    "check_feasibility", "memory_words_needed", "MilpError",
    "MilpFormulation", "MilpPartitioner", "build_formulation", "solve_milp",
    "GreedyPartitioner",
    "MilpHeuristicPartitioner", "GaConfig", "GeneticPartitioner",
]
