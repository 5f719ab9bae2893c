"""Invariant tests: STG minimization safety and memory-cell lifetimes.

Three properties the flow relies on but never re-checks at runtime:

* minimization output always passes ``Stg.validate()`` (for the
  generated workload families too, not just the curated apps);
* ``_rebuild`` can never leave ``initial`` pointing at a contracted
  state -- the entry state survives every reduction;
* ``MemoryCell.overlaps_in_time`` boundary semantics (a write tick equal
  to a read-end tick means *disjoint* lifetimes) agree with what the
  ``StgExecutor``-driven co-simulation actually does to shared cells.
"""

import pytest

from repro.flow import CoolFlow
from repro.graph import execute
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.stg import (StateKind, Stg, StgError, StgExecutor, StgState,
                       StgTransition, minimize_stg)
from repro.stg.memory import MemoryCell
from repro.stg.minimize import _rebuild
from repro.workloads import (ChainSpec, ForkJoinSpec, LayeredDagSpec,
                             stimuli_for)

WORKLOAD_SPECS = [ChainSpec(length=5, seed=11),
                  ForkJoinSpec(branches=3, depth=1, seed=12),
                  LayeredDagSpec(nodes=8, layers=3, seed=13)]


def _flow_result(spec, stimuli=None):
    graph = spec.build()
    flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
    return graph, flow.run(graph, stimuli=stimuli)


class TestMinimizationInvariants:
    @pytest.mark.parametrize("spec", WORKLOAD_SPECS,
                             ids=lambda s: s.family)
    def test_minimized_stg_validates(self, spec):
        _, result = _flow_result(spec)
        assert result.stg_full.validate() == []
        assert result.stg.validate() == []
        assert result.minimization.states_after == len(result.stg)

    @pytest.mark.parametrize("spec", WORKLOAD_SPECS,
                             ids=lambda s: s.family)
    def test_initial_state_survives(self, spec):
        _, result = _flow_result(spec)
        assert result.stg.initial is not None
        assert result.stg.initial in result.stg
        # and re-minimizing an already minimal graph is stable
        again, report = minimize_stg(result.stg)
        assert again.initial == result.stg.initial
        assert again.validate() == []

    def test_initial_wait_state_never_contracted(self):
        # pathological but legal: the entry state is an unguarded WAIT,
        # exactly the shape wait-contraction folds away.  The entry
        # state must survive or `initial` would dangle.
        stg = Stg("entry-wait")
        stg.add_state(StgState("w0", StateKind.WAIT, node="n0",
                               resource="cpu"))
        stg.add_state(StgState("x0", StateKind.EXEC, node="n0",
                               resource="cpu"))
        stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
        stg.initial = "w0"
        stg.add_transition(StgTransition("w0", "x0", actions=("start_n0",)))
        stg.add_transition(StgTransition("x0", "D", conditions=("done_n0",)))
        mini, report = minimize_stg(stg)
        assert mini.initial == "w0"
        assert "w0" in mini
        assert mini.validate() == []
        # behaviour is intact: executing still emits the start action
        ex = StgExecutor(mini)
        ex.step()
        ex.step({"done_n0"})
        assert ex.done
        assert "start_n0" in ex.emitted

    def test_initial_done_state_never_contracted(self):
        stg = Stg("entry-done")
        stg.add_state(StgState("d0", StateKind.DONE, node="n0",
                               resource="cpu"))
        stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
        stg.initial = "d0"
        stg.add_transition(StgTransition("d0", "D", actions=("ack",)))
        mini, _ = minimize_stg(stg)
        assert mini.initial == "d0"
        assert mini.validate() == []

    def test_rebuild_rejects_dropped_initial(self):
        stg = Stg("guard")
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
        stg.initial = "R"
        stg.add_transition(StgTransition("R", "D"))
        with pytest.raises(StgError, match="initial"):
            _rebuild(stg, keep={"D"}, transitions=[], name="broken")


class TestMemoryCellBoundaries:
    def test_write_tick_equal_to_read_end_is_disjoint(self):
        earlier = MemoryCell("e1", address=0, words=4, live_from=0,
                             live_until=10)
        later = MemoryCell("e2", address=0, words=4, live_from=10,
                           live_until=20)
        # the write of `later` lands exactly on the read-end tick of
        # `earlier`: half-open lifetimes, the cells may share addresses
        assert not earlier.overlaps_in_time(later)
        assert not later.overlaps_in_time(earlier)
        assert earlier.overlaps_in_space(later)

    def test_one_tick_overlap_collides(self):
        earlier = MemoryCell("e1", address=0, words=4, live_from=0,
                             live_until=10)
        later = MemoryCell("e2", address=0, words=4, live_from=9,
                           live_until=20)
        assert earlier.overlaps_in_time(later)
        assert later.overlaps_in_time(earlier)

    @pytest.mark.parametrize("spec", WORKLOAD_SPECS,
                             ids=lambda s: s.family)
    def test_reused_cells_match_executor_traces(self, spec):
        """With lifetime reuse on, the StgExecutor-driven co-simulation
        must still produce the golden outputs -- the system-level check
        that the half-open boundary convention is safe in execution."""
        graph = spec.build()
        stimuli = stimuli_for(graph, seed=5)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                        reuse_memory=True)
        result = flow.run(graph, stimuli=stimuli)
        memory_map = result.plan.memory_map
        assert memory_map.validate() == []
        # space-sharing cells must be strictly ordered in time with
        # at most touching boundaries
        cells = sorted(memory_map.cells.values(),
                       key=lambda c: (c.live_from, c.edge))
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                if a.overlaps_in_space(b):
                    assert a.live_until <= b.live_from \
                        or b.live_until <= a.live_from
        golden = execute(graph, stimuli)
        assert result.sim_result is not None
        for node in graph.outputs():
            assert result.sim_result.outputs[node.name] == golden[node.name]
