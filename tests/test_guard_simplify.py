"""The shipped guard rewrite: ``fsm_to_vhdl(simplify=True)``.

The flow's codegen stage re-covers every controller state's guard
cascade against the reachability care sets
:func:`repro.controllers.harvest_care_sets` records.  Verify proves the
*unsimplified* controller equivalent to its STG; the emitted cascades
are not proved.  They are checked against the original cascade on every
harvested care valuation by ``test_care_set_emission_steps_like_the_fsm``
in ``tests/test_verify_differential.py`` (and the guard-simplification
bench's ``rewrite`` gate).  This file checks that the care sets buy
literals on the shipped path and pins the emitted bytes over a
20-design ``workload_suite`` -- the same randomized harness the
kernel-equivalence tests use.
"""

import hashlib

from repro.codegen import fsm_to_vhdl, guard_literal_count
from repro.controllers import (harvest_care_sets,
                               synthesize_system_controller)
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import minimal_board
from repro.stg import build_stg, minimize_stg
from repro.workloads import workload_suite

SUITE = workload_suite(20, seed=5)


def suite_stg(spec):
    result = GreedyPartitioner().partition(
        PartitioningProblem(spec.build(), minimal_board()))
    return minimize_stg(build_stg(result.schedule))[0]


def test_suite_reduces_literals_somewhere():
    """The reachability don't-cares must buy literals in the shipped VHDL.

    Both sums emit with ``simplify=True``; only the care sets differ, so
    an empty harvest (which the emitter treats like ``None``) fails.
    """
    with_care = without_care = 0
    for spec in SUITE[:8]:
        controller = synthesize_system_controller(suite_stg(spec))
        care = harvest_care_sets(controller)
        for fsm in controller.fsms:
            with_care += guard_literal_count(fsm_to_vhdl(
                fsm, simplify=True, care_of=care.get(fsm.name)))
            without_care += guard_literal_count(fsm_to_vhdl(
                fsm, simplify=True, care_of=None))
    assert with_care < without_care


#: sha256 of the concatenated ``fsm_to_vhdl(simplify=True)`` texts of
#: every controller FSM of ``SUITE``, as emitted by the BDD-based cover
#: extractor this rewrite replaced.
SUITE_VHDL_SHA256 = \
    "7a8df995a76e0557a3b81f9515e889ac9a65cd6ea5820d86be673504a99bcd85"


def test_simplified_vhdl_is_pinned():
    """The truth-table guard rewrite emits the very bytes of the BDD one."""
    digest = hashlib.sha256()
    fsms = 0
    for spec in SUITE:
        controller = synthesize_system_controller(suite_stg(spec))
        care = harvest_care_sets(controller)
        for fsm in controller.fsms:
            digest.update(fsm_to_vhdl(fsm, simplify=True,
                                      care_of=care.get(fsm.name)).encode())
            fsms += 1
    assert fsms == 80
    assert digest.hexdigest() == SUITE_VHDL_SHA256
