"""The table-driven list scheduler against the scan-based one it replaced.

``reference_list_schedule`` below is the earlier scheduler, kept
verbatim: it re-derives the topological order and every latency and
transfer cost through the cost model on each call, re-sorts its ready
list before every pop and scans each timeline from its first interval.
:func:`repro.schedule.list_schedule` reads the same quantities from
:meth:`repro.estimate.CostModel.schedule_tables`, pops ready nodes from a
heap and books timeline slots by bisection.  Hypothesis draws graphs
from every workload family and :class:`repro.workloads.RandomDagSpec`,
including wide fan-in, extreme communication-to-computation ratios and
chains whose every node is critical, and random node-to-resource
mappings over ``minimal_board``, ``cool_board`` and ``multi_board``.
Both schedulers must give the same entries, in the same order, and the
same bus transfers.  Two mappings share one cost model, so the second
schedule reads tables the first one built.

``test_greedy_partitions_are_pinned`` pins the sha256 of every
:class:`repro.partition.GreedyPartitioner` result on the 20-design test
suite: the greedy partitioner prices each move on the list schedule, so
any change in the schedule shows up in its choices.
``test_greedy_reuses_the_winning_trial`` checks the partitioner against
``parent_greedy_solve``, a verbatim copy of the loop that re-scheduled
each accepted mapping, on the 52-design sweep.  The example budget
follows the active hypothesis profile (``tests/conftest.py``).
"""

import hashlib
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimate.model import CostModel
from repro.graph import from_mapping
from repro.graph.partition import Partition
from repro.partition import (GreedyPartitioner, PartitioningProblem,
                             evaluate_mapping)
from repro.partition.heuristic import _best_processor
from repro.platform import cool_board, minimal_board, multi_board
from repro.schedule import list_schedule
from repro.schedule.asap_alap import _edge_delay, _latency
from repro.schedule.schedule import (Schedule, ScheduleEntry, ScheduleError,
                                     TransferEntry)
from repro.workloads import (ChainSpec, DctSpec, EqualizerSpec, ForkJoinSpec,
                             LayeredDagSpec, RandomDagSpec, TreeSpec,
                             workload_suite)

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)

#: sha256 over every greedy result of ``workload_suite(20, seed=5)`` on
#: ``minimal_board`` (mapping, schedule fingerprint and ``stats()``)
GREEDY_SUITE_SHA256 = \
    "fcf922a3a09d8a76eb21a25b7593ee9a3023ab286d251924efac2bacd4733db0"


# ----------------------------------------------------------------------
# the reference: the scan-based scheduler, verbatim
# ----------------------------------------------------------------------
@dataclass
class _Timeline:
    """Busy intervals of one exclusive resource, kept sorted."""

    busy: list[tuple[int, int]] = field(default_factory=list)

    def earliest_slot(self, after: int, duration: int) -> int:
        """First start >= after such that [start, start+duration) is free."""
        start = after
        for b_start, b_end in self.busy:
            if b_end <= start:
                continue
            if b_start >= start + duration:
                break
            start = b_end
        return start

    def reserve(self, start: int, duration: int) -> None:
        self.busy.append((start, start + duration))
        self.busy.sort()


def _priorities(partition: Partition, model: CostModel) -> dict[str, int]:
    """Critical-path-to-sink length of every node (higher = schedule first)."""
    graph = partition.graph
    prio: dict[str, int] = {}
    for name in reversed(graph.topological_order()):
        lat = _latency(model, partition, name)
        downstream = 0
        for edge in graph.out_edges(name):
            downstream = max(downstream,
                             _edge_delay(model, partition, edge)
                             + prio[edge.dst])
        prio[name] = lat + downstream
    return prio


def reference_list_schedule(partition: Partition, model: CostModel) -> Schedule:
    """Compute a static schedule for a coloured partitioning graph.

    Deterministic: ties between equal-priority ready nodes break on the
    node name, so repeated runs produce identical schedules (important
    for reproducible STGs and memory maps downstream).
    """
    graph = partition.graph
    if model.graph is not graph:
        raise ScheduleError("cost model was built for a different graph")

    prio = _priorities(partition, model)
    schedule = Schedule(partition)
    timelines: dict[str, _Timeline] = {}
    bus = _Timeline()

    def timeline(resource: str) -> _Timeline:
        if resource not in timelines:
            timelines[resource] = _Timeline()
        return timelines[resource]

    remaining_preds = {n: len(graph.in_edges(n)) for n in graph.node_names}
    ready = [n for n, k in remaining_preds.items() if k == 0]

    while ready:
        ready.sort(key=lambda n: (-prio[n], n))
        node = ready.pop(0)
        resource = partition.resource_of(node)
        latency = _latency(model, partition, node)

        earliest = 0
        pending_reads: list[tuple[str, int, int]] = []  # (edge, write_end, read_ticks)
        for edge in graph.in_edges(node):
            producer = schedule.entry(edge.src)
            if partition.resource_of(edge.src) == resource:
                earliest = max(earliest, producer.end)
                continue
            # cut edge: write burst after the producer finished ...
            write_ticks = model.write_ticks(edge)
            write_start = bus.earliest_slot(producer.end, write_ticks)
            bus.reserve(write_start, write_ticks)
            schedule.add_transfer(TransferEntry(
                edge.name, "write", write_start, write_start + write_ticks))
            # ... then a read burst for this consumer
            pending_reads.append((edge.name, write_start + write_ticks,
                                  model.read_ticks(edge)))

        for edge_name, write_end, read_ticks in pending_reads:
            read_start = bus.earliest_slot(write_end, read_ticks)
            bus.reserve(read_start, read_ticks)
            schedule.add_transfer(TransferEntry(
                edge_name, "read", read_start, read_start + read_ticks))
            earliest = max(earliest, read_start + read_ticks)

        line = timeline(resource)
        start = line.earliest_slot(earliest, latency)
        line.reserve(start, latency)
        schedule.add(ScheduleEntry(node, resource, start, start + latency))

        for edge in graph.out_edges(node):
            remaining_preds[edge.dst] -= 1
            if remaining_preds[edge.dst] == 0:
                ready.append(edge.dst)

    if len(schedule.entries) != len(graph.node_names):
        missing = set(graph.node_names) - set(schedule.entries)
        raise ScheduleError(f"unschedulable nodes (cycle?): {sorted(missing)}")
    return schedule


# ----------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------
seeds = st.integers(0, 10_000)
#: communication-to-computation ratios from negligible to bus-bound
ccrs = st.sampled_from((0.05, 0.5, 1.0, 2.0, 8.0, 32.0))
biases = st.sampled_from((0.0, 0.3, 0.7, 1.0))
spreads = st.sampled_from((1.0, 4.0, 16.0))


@st.composite
def layered(draw):
    layers = draw(st.integers(1, 5))
    return LayeredDagSpec(seed=draw(seeds),
                          nodes=draw(st.integers(layers, 18)), layers=layers,
                          inputs=draw(st.integers(1, 3)),
                          outputs=draw(st.integers(1, 3)),
                          max_fanin=draw(st.integers(1, 6)), ccr=draw(ccrs),
                          hw_bias=draw(biases), cost_spread=draw(spreads))


@st.composite
def random_dag(draw):
    """Wide fan-in: up to eight producers per node."""
    inputs, outputs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return RandomDagSpec(seed=draw(seeds),
                         nodes=draw(st.integers(inputs + outputs + 1, 40)),
                         inputs=inputs, outputs=outputs,
                         max_fanin=draw(st.integers(1, 8)),
                         words=draw(st.sampled_from((1, 4, 64))),
                         mac_bias=draw(st.sampled_from((0.0, 0.5, 1.0))))


specs = st.one_of(
    layered(),
    st.builds(ForkJoinSpec, seed=seeds, branches=st.integers(1, 8),
              depth=st.integers(1, 3), ccr=ccrs, hw_bias=biases,
              cost_spread=spreads),
    # a chain: no slack anywhere, every node on the critical path
    st.builds(ChainSpec, seed=seeds, length=st.integers(1, 12), ccr=ccrs,
              hw_bias=biases, cost_spread=spreads),
    st.builds(TreeSpec, seed=seeds, depth=st.integers(1, 3),
              arity=st.integers(2, 4), ccr=ccrs, hw_bias=biases,
              cost_spread=spreads),
    st.builds(EqualizerSpec, seed=seeds, bands=st.integers(1, 6),
              words=st.sampled_from((1, 8, 16)),
              taps_per_band=st.sampled_from((1, 3, 7))),
    st.builds(DctSpec, seed=seeds, points=st.sampled_from((4, 8))),
    random_dag(),
)

boards = st.one_of(
    st.just(minimal_board()),
    st.just(cool_board()),
    st.tuples(st.integers(0, 3), st.integers(0, 3))
    .filter(lambda shape: sum(shape) > 0)
    .map(lambda shape: multi_board(n_processors=shape[0], n_fpgas=shape[1])),
)


def draw_partition(draw, graph, arch) -> Partition:
    resources = st.sampled_from(arch.resource_names)
    mapping = {node.name: draw(resources) for node in graph.internal_nodes()}
    return from_mapping(graph, mapping, arch.fpga_names,
                        arch.processor_names)


@PROPERTY
@given(specs, boards, st.data())
def test_table_scheduler_matches_the_reference(spec, arch, data):
    graph = spec.build()
    model = CostModel(graph, arch)
    for _ in range(2):
        partition = draw_partition(data.draw, graph, arch)
        got = list_schedule(partition, model)
        want = reference_list_schedule(partition, CostModel(graph, arch))
        assert list(got.entries.items()) == list(want.entries.items())
        assert got.transfers == want.transfers


def test_greedy_partitions_are_pinned():
    """Greedy mappings, schedules and counters stay byte-identical."""
    digest = hashlib.sha256()
    for spec in workload_suite(20, seed=5):
        problem = PartitioningProblem(spec.build(), minimal_board())
        partitioner = GreedyPartitioner()
        result = partitioner.partition(problem)
        stats = partitioner.stats()
        # the pin predates reusing the winning trial, which saved one
        # evaluation per accepted move
        stats["evaluations"] += stats["moves"]
        digest.update(repr((sorted(result.partition.mapping.items()),
                            result.schedule.fingerprint(),
                            sorted(stats.items()))).encode())
    assert digest.hexdigest() == GREEDY_SUITE_SHA256


def parent_greedy_solve(problem, max_moves=None, candidates_per_round=8):
    """``GreedyPartitioner.solve`` before it reused the winning trial,
    verbatim; returns the mapping and the stats."""
    model = problem.model
    arch = problem.arch
    home = _best_processor(problem)
    internal = [n.name for n in problem.graph.internal_nodes()]
    mapping = {v: home for v in internal}
    hw_names = list(arch.fpga_names)
    stats = {"moves": 0, "evaluations": 0}
    if not hw_names:
        return mapping, stats

    _, schedule, report = evaluate_mapping(problem, mapping)
    stats["evaluations"] += 1
    best_makespan = schedule.makespan
    area_left = {f.name: f.clb_capacity for f in arch.fpgas}
    max_moves = max_moves if max_moves is not None else len(internal)

    while stats["moves"] < max_moves:
        if problem.deadline is not None \
                and best_makespan <= problem.deadline \
                and report.feasible:
            break  # min_area mode: deadline met, stop adding hardware
        software = [v for v in internal if mapping[v] == home]
        if not software:
            break
        candidates = sorted(
            software, key=lambda v: -model.latency(v, home)
        )[: candidates_per_round]

        best_move, best_ratio = None, -1.0
        for v in candidates:
            for f in hw_names:
                if model.area(v, f) > area_left[f]:
                    continue
                trial = dict(mapping)
                trial[v] = f
                _, trial_schedule, trial_report = \
                    evaluate_mapping(problem, trial)
                stats["evaluations"] += 1
                if not trial_report.memory_ok:
                    continue
                gain = best_makespan - trial_schedule.makespan
                ratio = gain / max(model.area(v, f), 1)
                if gain > 0 and ratio > best_ratio:
                    best_move, best_ratio = (v, f), ratio
        if best_move is None:
            break
        v, f = best_move
        mapping[v] = f
        area_left[f] -= model.area(v, f)
        _, schedule, report = evaluate_mapping(problem, mapping)
        stats["evaluations"] += 1
        best_makespan = schedule.makespan
        stats["moves"] += 1

    return mapping, stats


def test_greedy_reuses_the_winning_trial():
    """Every mapping of the 52-design sweep, with and without a deadline,
    is the parent loop's; only the re-run evaluations are gone."""
    moves = 0
    for spec in workload_suite(52, seed=29):
        graph = spec.build()
        deadline = None
        for _ in range(2):  # no deadline, then 1.25x the free makespan
            problem = PartitioningProblem(graph, minimal_board(), deadline)
            partitioner = GreedyPartitioner()
            mapping = partitioner.solve(problem)
            want, stats = parent_greedy_solve(problem)
            assert list(mapping.items()) == list(want.items())
            stats["evaluations"] -= stats["moves"]
            assert partitioner.stats() == stats
            moves += stats["moves"]
            deadline = evaluate_mapping(problem, mapping)[1].makespan * 5 // 4
    assert moves > 100
