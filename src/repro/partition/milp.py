"""MILP formulation of hardware/software partitioning.

Follows the structure of the authors' formulation (Niemann & Marwedel,
"An Algorithm for Hardware/Software Partitioning using Mixed Integer
Linear Programming", DAES 1997, reference [4] of the paper):

* binary variables ``x[v,r]`` -- node ``v`` is mapped to resource ``r``;
* relaxed-binary variables ``y[e]`` -- edge ``e`` crosses processing
  units (``y >= x[u,r] - x[v,r]`` for every resource forces ``y = 1``
  exactly for cut edges; minimization drives it back to 0 elsewhere, so
  ``y`` needs no integrality constraint);
* assignment constraints (every node gets exactly one resource);
* area constraints per FPGA (<= CLB capacity);
* load constraints per resource and for the shared bus (<= deadline),
  the linear surrogate of the schedule-makespan constraint -- any real
  schedule is at least as long as its busiest resource, so these are
  valid lower-bound constraints; the partitioner closes the gap to the
  *real* list schedule with an outer deadline-tightening loop.

Two objectives:

* ``min_area`` (the canonical COOL objective): minimize total hardware
  area plus weighted communication, subject to a deadline;
* ``min_time``: minimize the load bound ``T`` subject to area capacity.

:func:`solve_milp` hands the program to HiGHS through
:func:`scipy.optimize.milp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from .base import PartitioningProblem, Partitioner

__all__ = ["MilpFormulation", "build_formulation", "solve_milp",
           "MilpPartitioner", "MilpError"]

#: ``scipy.optimize.milp`` status of a proven-infeasible program.
_INFEASIBLE = 2


class MilpError(RuntimeError):
    """Raised when no implementable partition can be derived."""


@dataclass
class MilpFormulation:
    """A mixed integer linear program in inequality standard form.

    minimize    c . z
    subject to  A_ub . z <= b_ub,   A_eq . z == b_eq,
                lb <= z <= ub,      z[i] integral where integrality[i] = 1

    Rows are stored sparsely as ``{var_index: coefficient}`` dictionaries.
    """

    var_names: list[str] = field(default_factory=list)
    c: list[float] = field(default_factory=list)
    a_ub: list[dict[int, float]] = field(default_factory=list)
    b_ub: list[float] = field(default_factory=list)
    a_eq: list[dict[int, float]] = field(default_factory=list)
    b_eq: list[float] = field(default_factory=list)
    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    integrality: list[int] = field(default_factory=list)

    def add_var(self, name: str, cost: float = 0.0, low: float = 0.0,
                high: float = 1.0, integral: bool = False) -> int:
        index = len(self.var_names)
        self.var_names.append(name)
        self.c.append(cost)
        self.lb.append(low)
        self.ub.append(high)
        self.integrality.append(1 if integral else 0)
        return index

    def add_le(self, row: dict[int, float], rhs: float) -> None:
        """Add the constraint ``row . z <= rhs``."""
        self.a_ub.append(dict(row))
        self.b_ub.append(rhs)

    def add_eq(self, row: dict[int, float], rhs: float) -> None:
        self.a_eq.append(dict(row))
        self.b_eq.append(rhs)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_binaries(self) -> int:
        return sum(self.integrality)

    def index_of(self, name: str) -> int:
        return self.var_names.index(name)


@dataclass
class _Indexing:
    """Variable bookkeeping shared by builder and extractor."""

    nodes: list[str]
    resources: list[str]
    x: dict[tuple[str, str], int]
    y: dict[str, int]
    t: int | None = None


def build_formulation(problem: PartitioningProblem,
                      objective: str = "min_area",
                      deadline: int | None = None,
                      comm_weight: float = 1.0) -> tuple[MilpFormulation,
                                                         _Indexing]:
    """Build the MILP for ``problem``.

    ``deadline`` overrides ``problem.deadline`` (the outer tightening
    loop passes adjusted values).
    """
    if objective not in ("min_area", "min_time"):
        raise ValueError(f"unknown objective {objective!r}")
    deadline = deadline if deadline is not None else problem.deadline
    if objective == "min_area" and deadline is None:
        raise MilpError("min_area objective requires a deadline")

    graph, arch, model = problem.graph, problem.arch, problem.model
    nodes = [n.name for n in graph.internal_nodes()]
    resources = list(arch.resource_names)
    form = MilpFormulation()

    indexing = _Indexing(nodes, resources, {}, {})
    for v in nodes:
        for r in resources:
            cost = 0.0
            if objective == "min_area" and arch.is_hardware(r):
                cost = float(model.area(v, r))
            indexing.x[(v, r)] = form.add_var(f"x[{v},{r}]", cost,
                                              integral=True)

    internal_edges = [e for e in graph.edges
                      if not graph.node(e.src).is_io
                      and not graph.node(e.dst).is_io]
    for e in internal_edges:
        cost = comm_weight * model.transfer_ticks(e) \
            if objective == "min_area" else 0.0
        indexing.y[e.name] = form.add_var(f"y[{e.name}]", cost)

    if objective == "min_time":
        indexing.t = form.add_var("T", cost=1.0, low=0.0, high=float("inf"))

    # assignment: every node on exactly one resource
    for v in nodes:
        form.add_eq({indexing.x[(v, r)]: 1.0 for r in resources}, 1.0)

    # cut indicators: y_e >= x[u,r] - x[v,r] for every resource
    for e in internal_edges:
        for r in resources:
            form.add_le({indexing.x[(e.src, r)]: 1.0,
                         indexing.x[(e.dst, r)]: -1.0,
                         indexing.y[e.name]: -1.0}, 0.0)

    # area capacity per FPGA
    for fpga in arch.fpgas:
        row = {indexing.x[(v, fpga.name)]: float(model.area(v, fpga.name))
               for v in nodes}
        form.add_le(row, float(fpga.clb_capacity))

    # constant bus traffic: edges touching the I/O controller are always
    # cut; internal cut edges contribute via y
    io_ticks = sum(model.transfer_ticks(e) for e in graph.edges
                   if graph.node(e.src).is_io or graph.node(e.dst).is_io)

    def time_bound_row() -> list[tuple[dict[int, float], float]]:
        rows = []
        for r in resources:
            row = {indexing.x[(v, r)]: float(model.latency(v, r))
                   for v in nodes}
            rows.append((row, 0.0))
        bus_row = {indexing.y[e.name]: float(model.transfer_ticks(e))
                   for e in internal_edges}
        rows.append((bus_row, float(io_ticks)))
        return rows

    if objective == "min_area":
        for row, constant in time_bound_row():
            form.add_le(row, float(deadline) - constant)
    else:
        for row, constant in time_bound_row():
            row = dict(row)
            row[indexing.t] = -1.0
            form.add_le(row, -constant)

    return form, indexing


def _sparse(rows: list[dict[int, float]], n_vars: int) -> csr_matrix:
    data, row_idx, col_idx = [], [], []
    for i, row in enumerate(rows):
        for j, coef in row.items():
            row_idx.append(i)
            col_idx.append(j)
            data.append(coef)
    return csr_matrix((data, (row_idx, col_idx)),
                      shape=(len(rows), n_vars))


def solve_milp(form: MilpFormulation) -> np.ndarray | None:
    """Return the optimal solution vector, or ``None`` if infeasible.

    Any other HiGHS outcome (iteration or time limit, unbounded, solver
    error) raises :class:`MilpError` naming the status: it says nothing
    about whether the constraints can be met.
    """
    constraints = []
    if form.a_ub:
        constraints.append(LinearConstraint(
            _sparse(form.a_ub, form.n_vars),
            ub=np.asarray(form.b_ub, dtype=float)))
    if form.a_eq:
        rhs = np.asarray(form.b_eq, dtype=float)
        constraints.append(LinearConstraint(
            _sparse(form.a_eq, form.n_vars), lb=rhs, ub=rhs))

    result = milp(
        c=np.asarray(form.c, dtype=float),
        constraints=constraints,
        integrality=np.asarray(form.integrality),
        bounds=Bounds(np.asarray(form.lb, dtype=float),
                      np.asarray(form.ub, dtype=float)),
    )
    if result.status == _INFEASIBLE:
        return None
    if not result.success or result.x is None:
        raise MilpError(f"HiGHS stopped with status {result.status}: "
                        f"{result.message}")
    return result.x


def extract_mapping(solution, indexing: _Indexing) -> dict[str, str]:
    """Read the node -> resource mapping out of a solution vector."""
    mapping: dict[str, str] = {}
    for v in indexing.nodes:
        # max() keeps the first maximal resource, matching the
        # strict-improvement scan this replaces
        best_r, _ = max(((r, solution[indexing.x[(v, r)]])
                         for r in indexing.resources),
                        key=lambda item: item[1])
        mapping[v] = best_r
    return mapping


class MilpPartitioner(Partitioner):
    """Partitioning by MILP, with a deadline-tightening outer loop.

    Every round builds the program with :func:`build_formulation` and
    solves it exactly with :func:`solve_milp` (HiGHS).

    Parameters
    ----------
    objective:
        ``"auto"`` picks ``min_area`` when the problem has a deadline and
        ``min_time`` otherwise.
    comm_weight:
        Weight of communication ticks against CLBs in the min_area
        objective.
    max_rounds:
        Iterations of the deadline-tightening loop: the load-based MILP
        deadline is reduced whenever the *real* list schedule of the MILP
        solution misses the requested deadline.
    """

    name = "milp"

    def __init__(self, objective: str = "auto", comm_weight: float = 1.0,
                 max_rounds: int = 10) -> None:
        self.objective = objective
        self.comm_weight = comm_weight
        self.max_rounds = max_rounds
        self._stats: dict = {}

    def solve(self, problem: PartitioningProblem) -> dict[str, str]:
        from .base import evaluate_mapping
        objective = self.objective
        if objective == "auto":
            objective = "min_area" if problem.deadline is not None \
                else "min_time"

        self._stats = {"objective": objective, "rounds": 0}
        deadline = problem.deadline
        best_mapping: dict[str, str] | None = None
        target = problem.deadline

        rounds = self.max_rounds if objective == "min_area" else 1
        for round_no in range(rounds):
            form, indexing = build_formulation(
                problem, objective, deadline, self.comm_weight)
            solution = solve_milp(form)
            self._stats["rounds"] = round_no + 1
            self._stats["variables"] = form.n_vars
            self._stats["binaries"] = form.n_binaries
            if solution is None:
                break
            mapping = extract_mapping(solution, indexing)
            best_mapping = mapping
            if objective != "min_area" or target is None:
                return mapping
            _, schedule, _ = evaluate_mapping(problem, mapping)
            if schedule.makespan <= target:
                return mapping
            # the load surrogate under-estimated the schedule: tighten
            assert deadline is not None
            overshoot = schedule.makespan - target
            deadline = max(1, deadline - max(overshoot, deadline // 16))

        if best_mapping is None:
            raise MilpError(
                "MILP found no implementable partition (deadline or area "
                "constraints are infeasible for this graph/architecture)")
        return best_mapping

    def stats(self) -> dict:
        return dict(self._stats)
