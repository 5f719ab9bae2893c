"""Common interfaces of the partitioning algorithms.

COOL offers three partitioning engines -- "mixed integer linear
programming (MILP), a combination of MILP and a heuristic, or ... genetic
algorithms" (paper Section 2).  All of them implement the
:class:`Partitioner` interface here and return a :class:`PartitionResult`
that couples the coloured graph with its static schedule, which is
exactly the pair the co-synthesis step consumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..estimate.model import CostModel
from ..fingerprint import content_hash
from ..graph.partition import Partition, from_mapping
from ..graph.taskgraph import TaskGraph
from ..platform.architecture import TargetArchitecture
from ..schedule.list_scheduler import list_schedule
from ..schedule.schedule import Schedule
from .feasibility import FeasibilityReport, check_feasibility

__all__ = ["PartitioningProblem", "PartitionResult", "Partitioner",
           "evaluate_mapping"]


@dataclass
class PartitioningProblem:
    """One partitioning task: graph, architecture and constraints.

    Parameters
    ----------
    graph:
        The task graph to partition.
    arch:
        The target board.
    deadline:
        Optional makespan bound in bus ticks.  With a deadline the
        canonical COOL objective applies: *minimize hardware area subject
        to the deadline* (the DAES'97 formulation).  Without one the
        objective is to minimize the makespan subject to area.
    """

    graph: TaskGraph
    arch: TargetArchitecture
    deadline: int | None = None
    model: CostModel = field(init=False)

    def __post_init__(self) -> None:
        self.model = CostModel(self.graph, self.arch)

    @property
    def resources(self) -> tuple[str, ...]:
        return self.arch.resource_names

    def make_partition(self, mapping: dict[str, str]) -> Partition:
        return from_mapping(self.graph, mapping, self.arch.fpga_names,
                            self.arch.processor_names)


@dataclass
class PartitionResult:
    """Partitioner output: coloured graph + static schedule + report."""

    partition: Partition
    schedule: Schedule
    feasibility: FeasibilityReport
    algorithm: str
    runtime_s: float
    stats: dict = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    @property
    def hw_area(self) -> int:
        return sum(self.feasibility.area.values())

    def fingerprint(self) -> str:
        """Content hash of the solution (not of solver wall-clock)."""
        return content_hash((self.partition.fingerprint(),
                             self.schedule.fingerprint(), self.algorithm,
                             self.feasibility.feasible))

    def summary(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "makespan": self.makespan,
            "hw_area_clbs": self.hw_area,
            "hw_nodes": len(self.partition.hw_nodes()),
            "sw_nodes": len(self.partition.sw_nodes()),
            "cut_edges": len(self.partition.cut_edges()),
            "feasible": self.feasibility.feasible,
            "runtime_s": round(self.runtime_s, 4),
            **self.stats,
        }


def evaluate_mapping(problem: PartitioningProblem,
                     mapping: dict[str, str]) -> tuple[Partition, Schedule,
                                                       FeasibilityReport]:
    """Schedule a mapping and check its feasibility (shared helper)."""
    partition = problem.make_partition(mapping)
    schedule = list_schedule(partition, problem.model)
    report = check_feasibility(partition, problem.model,
                               makespan=schedule.makespan,
                               deadline=problem.deadline)
    return partition, schedule, report


class Partitioner:
    """Base class: concrete partitioners implement :meth:`solve`."""

    name = "abstract"

    def solve(self, problem: PartitioningProblem) -> dict[str, str]:
        """Return a mapping node -> resource for all internal nodes."""
        raise NotImplementedError

    def partition(self, problem: PartitioningProblem) -> PartitionResult:
        """Template method: solve, schedule, check, package."""
        started = time.perf_counter()
        mapping = self.solve(problem)
        partition, schedule, report = evaluate_mapping(problem, mapping)
        elapsed = time.perf_counter() - started
        return PartitionResult(partition, schedule, report, self.name,
                               elapsed, self.stats())

    def stats(self) -> dict:
        """Algorithm-specific counters for reports (override freely)."""
        return {}

    def fingerprint(self) -> str:
        """Content hash of the algorithm and its configuration.

        Two partitioner instances of the same class with the same
        constructor attributes fingerprint identically, so the flow's
        stage cache can reuse a partitioning result across runs.
        Underscore-prefixed attributes are excluded: they hold run
        scratch state (counters, caches), not configuration.
        """
        # repro-lint: ignore[DET102] -- vars(self) enumerates the
        # partitioner's own config attributes, which are plain values
        # with content-based reprs; the (key, repr) pairs are sorted
        # before hashing, so the fingerprint is a pure function of
        # configuration, not of dict order or process state
        config = tuple(sorted((k, repr(v)) for k, v in vars(self).items()
                              if not k.startswith("_")))
        return content_hash((type(self).__qualname__, self.name, config))
