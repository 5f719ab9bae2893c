"""Guard-simplification soundness: original vs simplified guards.

The symbolic pipeline may only change *representation*, never
observable behaviour.  :func:`repro.controllers.simplify_controller_guards`
reduces FSM condition literals against reachability care sets -- the
simplified FSMs must step identically on **every** harvested care
valuation, and the rebuilt controller must still prove equivalent to
its STG (the paper's headline claim, now on simplified guards).

The emitter-level rewrite (``fsm_to_vhdl(simplify=True)``) is checked
in ``tests/test_codegen.py`` and ``tests/test_verify_differential.py``.
The population is a 20-design ``workload_suite`` -- the same randomized
harness the kernel-equivalence tests use.
"""

import pytest

from repro.controllers import (harvest_care_sets,
                               simplify_controller_guards,
                               synthesize_system_controller,
                               verify_composition)
from repro.controllers.verify import explicit_oracle
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import minimal_board
from repro.stg import build_stg, minimize_stg
from repro.workloads import workload_suite

SUITE = workload_suite(20, seed=5)


def suite_design(spec):
    graph = spec.build()
    result = GreedyPartitioner().partition(
        PartitioningProblem(graph, minimal_board()))
    stg, _ = minimize_stg(build_stg(result.schedule))
    return graph, stg


@pytest.mark.parametrize("spec", SUITE,
                         ids=lambda s: f"{s.family}-{s.seed}")
def test_simplified_controller_steps_identically_on_care_vectors(spec):
    """Property: on every reachable valuation, original == simplified."""
    _graph, stg = suite_design(spec)
    controller = synthesize_system_controller(stg)
    care = harvest_care_sets(controller)
    simplified, stats = simplify_controller_guards(controller,
                                                   care_sets=care)
    assert stats["simplified"]
    assert stats["literals_after"] <= stats["literals_before"]
    for original, reduced in zip(controller.fsms, simplified.fsms):
        observed = care.get(original.name, {})
        for state in original.states:
            for valuation in observed.get(state, ()):
                assert original.step(state, set(valuation)) == \
                    reduced.step(state, set(valuation)), \
                    (original.name, state, sorted(valuation))


@pytest.mark.parametrize("spec", SUITE[:6],
                         ids=lambda s: f"{s.family}-{s.seed}")
def test_simplified_controller_still_verifies_against_stg(spec):
    graph, stg = suite_design(spec)
    controller = synthesize_system_controller(stg)
    simplified, stats = simplify_controller_guards(controller)
    assert stats["simplified"]
    check = verify_composition(stg, simplified, graph=graph)
    assert check.equivalent, check.mismatches
    assert check.tier == "symbolic"
    # the explicit oracle re-proves the simplified controller too
    assert explicit_oracle(stg, simplified, graph=graph).oracle == "agrees"


def test_suite_reduces_literals_somewhere():
    """The reachability don't-cares must actually buy something."""
    total_before = total_after = 0
    for spec in SUITE[:8]:
        _graph, stg = suite_design(spec)
        controller = synthesize_system_controller(stg)
        _simplified, stats = simplify_controller_guards(controller)
        total_before += stats["literals_before"]
        total_after += stats["literals_after"]
    assert total_after < total_before
