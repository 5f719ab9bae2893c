"""Greedy gain-driven partitioning heuristics.

Two engines:

* :class:`GreedyPartitioner` -- COOL-style constructive heuristic.
  Starts from the pure-software solution on the best processor and
  repeatedly moves the node with the best *gain* to a hardware resource,
  where gain is measured on the **real** list schedule (makespan
  reduction), normalized by CLB cost when minimizing area.  Stops when
  the deadline is met (min_area mode) or no move improves the makespan
  (min_time mode).

* :class:`MilpHeuristicPartitioner` -- the paper's "combination of MILP
  and a heuristic": the LP relaxation of the full MILP is solved
  (``linprog``, HiGHS) and every node is rounded to the resource with
  its largest relaxed value; that mapping seeds a greedy repair and
  improver.  No variable stays binary, so no branch-and-bound runs:
  this trades optimality for speed on large graphs, the role the
  combination plays in COOL.
"""

from __future__ import annotations

from .base import PartitioningProblem, Partitioner, evaluate_mapping

__all__ = ["GreedyPartitioner", "MilpHeuristicPartitioner"]

#: A relaxed node assignment whose largest LP value falls below this
#: counts as fractional in :class:`MilpHeuristicPartitioner`'s stats.
INTEGRALITY_THRESHOLD = 0.99


def _best_processor(problem: PartitioningProblem) -> str:
    """Processor with the lowest serial software makespan."""
    arch = problem.arch
    if not arch.processors:
        # all-hardware board: start everything on the first FPGA
        return arch.fpga_names[0]
    internal = [n.name for n in problem.graph.internal_nodes()]
    return min(arch.processor_names,
               key=lambda p: sum(problem.model.latency(v, p)
                                 for v in internal))


class GreedyPartitioner(Partitioner):
    """Constructive gain-based heuristic (software-first).

    Parameters
    ----------
    max_moves:
        Upper bound on accepted moves (defaults to node count, i.e. the
        heuristic may move everything to hardware).
    candidates_per_round:
        Only the ``k`` nodes with the largest software load are evaluated
        each round -- the classic trick that keeps the heuristic
        O(k * moves) schedule evaluations.
    """

    name = "greedy"

    def __init__(self, max_moves: int | None = None,
                 candidates_per_round: int = 8) -> None:
        self.max_moves = max_moves
        self.candidates_per_round = candidates_per_round
        self._stats: dict = {}
        #: ``(problem, mapping items, evaluation)`` of the last solve
        self._solved: tuple | None = None

    def solve(self, problem: PartitioningProblem) -> dict[str, str]:
        model = problem.model
        arch = problem.arch
        home = _best_processor(problem)
        internal = [n.name for n in problem.graph.internal_nodes()]
        mapping = {v: home for v in internal}
        hw_names = list(arch.fpga_names)
        self._stats = {"moves": 0, "evaluations": 0}
        self._solved = None
        if not hw_names:
            return mapping

        evaluated = evaluate_mapping(problem, mapping)
        _, schedule, report = evaluated
        self._stats["evaluations"] += 1
        best_makespan = schedule.makespan
        area_left = {f.name: f.clb_capacity for f in arch.fpgas}
        max_moves = self.max_moves if self.max_moves is not None \
            else len(internal)

        while self._stats["moves"] < max_moves:
            if problem.deadline is not None \
                    and best_makespan <= problem.deadline \
                    and report.feasible:
                break  # min_area mode: deadline met, stop adding hardware
            software = [v for v in internal if mapping[v] == home]
            if not software:
                break
            candidates = sorted(
                software, key=lambda v: -model.latency(v, home)
            )[: self.candidates_per_round]

            best_move, best_ratio = None, -1.0
            for v in candidates:
                for f in hw_names:
                    if model.area(v, f) > area_left[f]:
                        continue
                    trial = dict(mapping)
                    trial[v] = f
                    trial_evaluated = evaluate_mapping(problem, trial)
                    _, trial_schedule, trial_report = trial_evaluated
                    self._stats["evaluations"] += 1
                    if not trial_report.memory_ok:
                        continue
                    gain = best_makespan - trial_schedule.makespan
                    ratio = gain / max(model.area(v, f), 1)
                    if gain > 0 and ratio > best_ratio:
                        best_move, best_ratio = (v, f), ratio
                        best_trial = trial_evaluated
            if best_move is None:
                break
            # the winning trial is the accepted mapping, in the same
            # dict order, so its evaluation is reused as is
            v, f = best_move
            mapping[v] = f
            area_left[f] -= model.area(v, f)
            evaluated = best_trial
            _, schedule, report = evaluated
            best_makespan = schedule.makespan
            self._stats["moves"] += 1

        self._solved = (problem, list(mapping.items()), evaluated)
        return mapping

    def evaluate(self, problem: PartitioningProblem, mapping: dict[str, str]):
        """The last :meth:`solve`'s evaluation of its accepted mapping
        (its winning trial, or the all-software start) when ``mapping``
        is that mapping for ``problem``; otherwise a fresh one."""
        solved, self._solved = self._solved, None
        if (solved is not None and solved[0] is problem
                and solved[1] == list(mapping.items())):
            return solved[2]
        return evaluate_mapping(problem, mapping)

    def stats(self) -> dict:
        return dict(self._stats)


class MilpHeuristicPartitioner(Partitioner):
    """The paper's MILP + heuristic combination.

    Solves the LP relaxation of the full MILP and maps every node to
    its largest relaxed assignment (the argmax mapping).  From that
    seed, nodes are evicted from over-full FPGAs to the best processor,
    then :class:`GreedyPartitioner`-style single moves improve the
    makespan.  When the relaxation is infeasible the seed is the
    all-software mapping.  :data:`INTEGRALITY_THRESHOLD` only counts
    the relaxation's fractional nodes for the ``fractional_nodes``
    stat; it decides nothing.
    """

    name = "milp+heuristic"

    def __init__(self) -> None:
        self._stats: dict = {}

    def solve(self, problem: PartitioningProblem) -> dict[str, str]:
        import numpy as np
        from scipy.optimize import linprog

        from .milp import _sparse, build_formulation, extract_mapping

        objective = "min_area" if problem.deadline is not None else "min_time"
        form, indexing = build_formulation(problem, objective)

        ub = np.asarray([1e9 if u == float("inf") else u for u in form.ub])
        result = linprog(
            c=np.asarray(form.c, dtype=float),
            A_ub=_sparse(form.a_ub, form.n_vars) if form.a_ub else None,
            b_ub=np.asarray(form.b_ub) if form.b_ub else None,
            A_eq=_sparse(form.a_eq, form.n_vars) if form.a_eq else None,
            b_eq=np.asarray(form.b_eq) if form.b_eq else None,
            bounds=np.column_stack([np.asarray(form.lb), ub]),
            method="highs",
        )

        if result.success and result.x is not None:
            relaxed = extract_mapping(result.x, indexing)
            fractional = 0
            for v in indexing.nodes:
                top = max(result.x[indexing.x[(v, r)]]
                          for r in indexing.resources)
                if top < INTEGRALITY_THRESHOLD:
                    fractional += 1
            self._stats = {"lp_status": "ok", "fractional_nodes": fractional}
            seed_mapping = relaxed
        else:
            # LP infeasible (e.g. impossible deadline): greedy from scratch
            self._stats = {"lp_status": "infeasible", "fractional_nodes": -1}
            seed_mapping = {n.name: _best_processor(problem)
                            for n in problem.graph.internal_nodes()}

        improved = self._repair_and_improve(problem, seed_mapping)
        return improved

    # ------------------------------------------------------------------
    def _repair_and_improve(self, problem: PartitioningProblem,
                            mapping: dict[str, str]) -> dict[str, str]:
        """Fix area violations, then greedy single-move improvement."""
        model, arch = problem.model, problem.arch
        home = _best_processor(problem)
        mapping = dict(mapping)

        # repair: evict cheapest-gain nodes from over-full FPGAs
        for fpga in arch.fpgas:
            if fpga.name == home:
                continue  # nowhere to evict to: the result stays infeasible
            def used() -> int:
                return sum(model.area(v, fpga.name) for v, r in mapping.items()
                           if r == fpga.name)
            while used() > fpga.clb_capacity:
                on_fpga = [v for v, r in mapping.items() if r == fpga.name]
                victim = max(on_fpga, key=lambda v: model.area(v, fpga.name))
                mapping[victim] = home

        _, schedule, _ = evaluate_mapping(problem, mapping)
        best = schedule.makespan
        moves = 0
        improved = True
        while improved and moves < 2 * len(mapping):
            improved = False
            # single-pass first-improvement over all nodes and resources
            for v in sorted(mapping):
                for r in problem.resources:
                    if r == mapping[v]:
                        continue
                    if arch.is_hardware(r):
                        load = sum(model.area(u, r) for u, q in mapping.items()
                                   if q == r and u != v)
                        if load + model.area(v, r) > arch.fpga(r).clb_capacity:
                            continue
                    trial = dict(mapping)
                    trial[v] = r
                    _, trial_schedule, trial_report = \
                        evaluate_mapping(problem, trial)
                    if trial_schedule.makespan < best \
                            and trial_report.memory_ok:
                        mapping, best = trial, trial_schedule.makespan
                        moves += 1
                        improved = True
                        break
                if improved:
                    break
        self._stats["improvement_moves"] = moves
        return mapping

    def stats(self) -> dict:
        return dict(self._stats)
