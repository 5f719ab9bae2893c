"""Minimizer equivalence at suite scale (randomized harness).

The kernel minimizer is the single algorithm behind both STG
equivalence merging and controller FSM minimization, so its
behaviour-preservation guarantee is asserted across a generated
``workload_suite`` population, not just the curated apps:

* every suite STG, minimized through the kernel, is trace-equivalent to
  its unminimized original under the closed-loop ideal environment
  (per-resource start projections, action multisets, dependency order);
* every controller FSM (phase + sequencers), minimized through the
  kernel, produces the same ``simulate`` output as the original on
  seeded random input traces.
"""

import random

import pytest

from repro.controllers import synthesize_system_controller
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import minimal_board
from repro.stg import StgExecutor, build_stg, minimize_stg
from repro.workloads import workload_suite

SUITE = workload_suite(20, seed=3)


def scheduled(spec):
    graph = spec.build()
    problem = PartitioningProblem(graph, minimal_board())
    result = GreedyPartitioner().partition(problem)
    return graph, result.partition, result.schedule


def auto_run(stg, max_rounds=500):
    """Ideal environment: every started node reports done next step."""
    executor = StgExecutor(stg)
    pending: set[str] = set()
    for _ in range(max_rounds):
        actions = executor.step(pending)
        pending = {"done_" + a[len("start_"):]
                   for a in actions if a.startswith("start_")}
        if executor.done:
            break
        if not actions and not pending:
            break
    return executor


def flat_actions(executor):
    return executor.emitted


@pytest.mark.parametrize("spec", SUITE,
                         ids=lambda s: f"{s.family}-{s.seed}")
def test_minimized_stg_trace_equivalent(spec):
    graph, partition, schedule = scheduled(spec)
    stg = build_stg(schedule)
    mini, report = minimize_stg(stg)
    assert report.states_after <= report.states_before
    assert mini.validate() == []

    ex_full, ex_mini = auto_run(stg), auto_run(mini)
    assert ex_full.done and ex_mini.done

    def starts_by_resource(executor):
        projected = {}
        for action in flat_actions(executor):
            if action.startswith("start_"):
                node = action[len("start_"):]
                projected.setdefault(partition.resource_of(node),
                                     []).append(node)
        return projected

    assert starts_by_resource(ex_full) == starts_by_resource(ex_mini)
    assert sorted(flat_actions(ex_full)) == sorted(flat_actions(ex_mini))
    for executor in (ex_full, ex_mini):
        starts = [a for a in flat_actions(executor)
                  if a.startswith("start_")]
        position = {a[len("start_"):]: i for i, a in enumerate(starts)}
        for edge in graph.edges:
            assert position[edge.src] < position[edge.dst]


@pytest.mark.parametrize("spec", SUITE[::2],
                         ids=lambda s: f"{s.family}-{s.seed}")
def test_minimized_controller_fsms_simulate_identically(spec):
    _, _, schedule = scheduled(spec)
    mini, _ = minimize_stg(build_stg(schedule))
    controller = synthesize_system_controller(mini, minimize=False)
    rng = random.Random(f"fsm-equivalence:{spec.seed}")
    for fsm in controller.fsms:
        reduced = fsm.minimize()
        assert len(reduced.states) <= len(fsm.states)
        assert reduced.validate() == []
        universe = fsm.inputs
        for _ in range(5):
            trace = [{s for s in universe if rng.random() < 0.4}
                     for _ in range(3 * len(fsm.states))]
            assert [outputs for _, outputs in fsm.simulate(trace)] == \
                [outputs for _, outputs in reduced.simulate(trace)]
