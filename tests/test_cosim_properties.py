"""The next-event co-simulator against the per-tick loop it replaced.

:meth:`repro.sim.CoSimulation.run` crosses each quiet stretch (only
countdowns move: a bus burst, a unit computing, a direct transfer) in
one jump and steps only the ticks on which something happens.
``PerTickCoSimulation`` below keeps a verbatim copy of the ``step``,
``run`` and ``_handle_action`` that stepped every tick; ``restart`` and
``run_stream`` are inherited, so they drive the copy.

The property builds generated designs (``workload_suite`` and small
``scale_suite`` specs, every node mapped by a drawn seed or one of two
degenerate mappings, on ``minimal_board`` or on ``cool_board`` with its
direct FPGA channels, with drawn compute latencies), streams one to
three random stimulus blocks through both simulators, and compares
every ``SimResult``, the trace, the controller's actions log and the
bus, unit and memory state.  The edge cases pin the jump's clamps: a
``max_cycles`` inside a long compute, the sabotaged-stimuli error of
``tests/test_cosim.py`` and a unit stalled on a read the bus never
grants.  The property takes half of the active hypothesis profile's
budget (``tests/conftest.py``).
"""

import random
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_verify_differential import BOARDS, mappings, node_mapping

from repro.apps import four_band_equalizer
from repro.comm import refine_communication
from repro.controllers import synthesize_system_controller
from repro.estimate import CostModel
from repro.graph import execute, from_mapping
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.sim import CoSimulation, SimError, system
from repro.sim.bus import BusRequest
from repro.sim.system import (DIRECT_TRANSFER_TICKS, SimResult,
                              _DirectTransfer)
from repro.stg import build_stg, minimize_stg
from repro.workloads import scale_suite, stimuli_for, workload_suite

EXAMPLES = max(1, settings.default.max_examples // 2)
PROPERTY = settings(max_examples=EXAMPLES, deadline=None)


class PerTickCoSimulation(CoSimulation):
    """``CoSimulation`` stepping every tick (verbatim copy)."""

    def _handle_action(self, action: str) -> None:
        if action.startswith("reset_"):
            resource = action[len("reset_"):]
            if resource in self.units:
                self.units[resource].reset()
            return
        if action.startswith("start_"):
            node = action[len("start_"):]
            resource = self.partition.resource_of(node)
            cross = {e.name for e in self.graph.in_edges(node)
                     if self.partition.resource_of(e.src) != resource}
            self.units[resource].start(node, cross)
            self.trace.append((self.cycles, action))
            return
        if action.startswith("write_"):
            edge_name = action[len("write_"):]
            channel = self.plan.channel(edge_name)
            producer = self._producer_unit(edge_name)
            edge = self._edge_by_name[edge_name]
            payload = producer.value_of(edge.src)
            if channel.is_direct:
                self.direct_in_flight.append(_DirectTransfer(
                    edge_name, DIRECT_TRANSFER_TICKS, payload))
            else:
                self.bus.request(BusRequest(
                    edge_name, "write", producer.resource,
                    self.model.write_ticks(edge), payload))
            self.trace.append((self.cycles, action))
            return
        if action.startswith("read_"):
            edge_name = action[len("read_"):]
            channel = self.plan.channel(edge_name)
            if channel.is_direct:
                return  # delivery rides on the direct write transfer
            edge = self._edge_by_name[edge_name]
            consumer = self._consumer_unit(edge_name)
            self.bus.request(BusRequest(
                edge_name, "read", consumer.resource,
                self.model.read_ticks(edge)))
            self.trace.append((self.cycles, action))
            return
        # system_done and friends need no simulation effect

    def step(self) -> None:
        """Advance the whole system by one bus tick."""
        done_signals = {f"done_{n}" for n in self._pending_done}
        self._pending_done.clear()
        actions = self.harness.cycle(done_signals)
        for action in actions:
            self._handle_action(action)

        completed = self.bus.step()
        if completed is not None:
            if completed.kind == "write":
                self.memory.write_cell(completed.edge, completed.payload)
            else:
                edge = self._edge_by_name[completed.edge]
                values = self.memory.read_cell(completed.edge, edge.words)
                self._consumer_unit(completed.edge).deliver(
                    completed.edge, values)

        still_flying: list[_DirectTransfer] = []
        for transfer in self.direct_in_flight:
            transfer.remaining -= 1
            if transfer.remaining <= 0:
                self._consumer_unit(transfer.edge).deliver(
                    transfer.edge, transfer.payload)
            else:
                still_flying.append(transfer)
        self.direct_in_flight = still_flying

        for unit in self.units.values():
            finished = unit.step()
            if finished is not None:
                self._pending_done.add(finished)
                self.trace.append((self.cycles, f"done_{finished}"))
        self.cycles += 1

    def run(self, max_cycles: int = 1_000_000) -> SimResult:
        """Run one activation to the controller's done state."""
        stall_window = 0
        last_progress = self.cycles
        while not self.harness.system_done:
            if self.cycles >= max_cycles:
                raise SimError(f"simulation exceeded {max_cycles} cycles")
            before = len(self.trace)
            self.step()
            active_work = (self.bus.active is not None
                           or any(u.active is not None
                                  and not u.active.waiting_for
                                  for u in self.units.values()))
            if len(self.trace) > before or active_work \
                    or self._pending_done:
                last_progress = self.cycles
            stall_window = self.cycles - last_progress
            if stall_window > 50_000:
                raise SimError(
                    f"deadlock: no progress since cycle {last_progress}")
        # final cycles let the controller observe the last done pulses
        outputs = {}
        for unit in self.units.values():
            outputs.update(unit.outputs)
        return SimResult(
            outputs=outputs,
            cycles=self.cycles,
            bus_busy_ticks=self.bus.busy_ticks,
            unit_busy_ticks={r: u.busy_ticks
                             for r, u in self.units.items()},
            memory_reads=self.memory.reads,
            memory_writes=self.memory.writes,
            trace_len=len(self.trace),
        )


def state_of(sim: CoSimulation) -> tuple:
    """Everything a tick can touch: cycles, trace, actions log, and the
    bus, unit, direct-transfer and memory state."""
    bus = sim.bus
    return (sim.cycles, sim.trace, sim.harness.actions_log,
            sim.harness._composition.configuration(),
            sorted(sim._pending_done),
            [(t.edge, t.remaining, t.payload) for t in sim.direct_in_flight],
            bus.active, bus.remaining, bus.pending, bus.busy_ticks,
            bus.granted_bursts, sorted(bus.written_edges),
            sorted(bus.read_edges),
            [(resource, unit.active, unit.busy_ticks, unit.completions,
              unit.local_values, unit.delivered, unit.outputs)
             for resource, unit in sim.units.items()],
            sorted(sim.memory.words.items()), sim.memory.reads,
            sim.memory.writes)


def build_pair(graph, board, mapping, stimuli, latencies=None):
    """The jumping and the per-tick simulation of one implementation."""
    partition = from_mapping(graph, mapping, board.fpga_names,
                             board.processor_names)
    schedule = list_schedule(partition, CostModel(graph, board))
    stg, _ = minimize_stg(build_stg(schedule))
    controller = synthesize_system_controller(stg)
    plan = refine_communication(schedule, board)
    return tuple(cls(graph, partition, schedule, plan, controller, board,
                     stimuli, latencies=latencies)
                 for cls in (CoSimulation, PerTickCoSimulation))


def counted_steps(sim: CoSimulation) -> list[int]:
    """The cycle at which each later ``sim.step`` call starts."""
    steps = []
    step = sim.step

    def counted():
        steps.append(sim.cycles)
        step()

    sim.step = counted
    return steps


def outcome(call):
    """``(result, None)`` or ``(None, error text)`` of ``call()``."""
    try:
        return call(), None
    except SimError as exc:
        return None, str(exc)


specs = st.one_of(
    st.tuples(st.integers(0, 10_000), st.integers(0, 7)).map(
        lambda drawn: workload_suite(drawn[1] + 1, seed=drawn[0])[-1]),
    st.integers(8, 40).map(lambda nodes: scale_suite((nodes,))[0]))


@PROPERTY
@given(spec=specs, board=st.sampled_from(sorted(BOARDS)), mapping=mappings,
       blocks=st.integers(1, 3), stimulus_seed=st.integers(0, 10_000),
       latency_seed=st.one_of(st.none(), st.integers(0, 10_000)))
@example(spec=scale_suite((12,))[0], board="cool", mapping="round_robin",
         blocks=2, stimulus_seed=0, latency_seed=None)
@example(spec=workload_suite(1, seed=3)[0], board="cool", mapping=7,
         blocks=3, stimulus_seed=1, latency_seed=5)
def test_jumping_run_matches_the_per_tick_loop(spec, board, mapping, blocks,
                                               stimulus_seed, latency_seed):
    board = BOARDS[board]()
    graph = spec.build()
    mapping = node_mapping(graph, board, mapping)
    latencies = None
    if latency_seed is not None:
        rng = random.Random(latency_seed)
        latencies = {unit: {node: rng.choice((0, 1, 2, 3, 40, 300))
                            for node in mapping}
                     for unit in board.resource_names}
    streams = [stimuli_for(graph, stimulus_seed + block)
               for block in range(blocks)]
    sim, reference = build_pair(graph, board, mapping, streams[0],
                                latencies)
    got = outcome(lambda: sim.run_stream(streams))
    want = outcome(lambda: reference.run_stream(streams))
    assert got == want
    assert state_of(sim) == state_of(reference)
    results, error = got
    assert error is None
    for block, result in zip(streams, results):
        golden = execute(graph, block)
        assert all(result.outputs[out.name] == golden[out.name]
                   for out in graph.outputs())


def equalizer_pair(latencies=None):
    graph = four_band_equalizer(words=8)
    board = minimal_board()
    mapping = {node.name: board.processor_names[0]
               for node in graph.internal_nodes()}
    mapping.update({"band0": "fpga0", "gain0": "fpga0"})
    stimuli = {node.name: [7 * (i + 1) % 100 for i in range(node.words)]
               for node in graph.inputs()}
    return build_pair(graph, board, mapping, stimuli, latencies)


class TestClamps:
    def test_max_cycles_inside_a_long_compute(self):
        # band0 computes for 2000 ticks on the FPGA
        _, probe = equalizer_pair({"fpga0": {"band0": 2000}})
        probe.run()
        start, = [c for c, a in probe.trace if a == "start_band0"]
        done, = [c for c, a in probe.trace if a == "done_band0"]
        assert done - start >= 2000
        for limit in (start + 1, start + 2, (start + done) // 2, done - 1,
                      done, done + 1):
            sim, reference = equalizer_pair({"fpga0": {"band0": 2000}})
            got = outcome(lambda: sim.run(max_cycles=limit))
            want = outcome(lambda: reference.run(max_cycles=limit))
            assert got == (None, f"simulation exceeded {limit} cycles")
            assert got == want
            assert sim.cycles == reference.cycles == limit
            assert state_of(sim) == state_of(reference)

    def test_missing_stimuli_raise_unchanged(self):
        # the sabotage of test_missing_io_stimuli_raise_no_stimulus
        # (tests/test_cosim.py)
        pair = equalizer_pair()
        for sim in pair:
            sim.units["io"].stimuli.clear()
        sim, reference = pair
        got = outcome(sim.run)
        assert got[1] is not None
        assert got == outcome(reference.run)
        assert state_of(sim) == state_of(reference)

    def test_a_unit_waiting_on_an_ungrantable_read_is_a_stall(self):
        pair = equalizer_pair()
        sim, reference = pair
        edge = next(e.name for e in sim.graph.edges
                    if sim.partition.resource_of(e.src)
                    != sim.partition.resource_of(e.dst))
        for each in pair:
            # the write of ``edge`` waits on a read that never comes
            each.bus.write_interlocks[edge] = {"never_read"}
        steps = counted_steps(sim)
        got = outcome(sim.run)
        assert got[1] is not None and got[1].startswith("deadlock: ")
        assert got == outcome(reference.run)
        assert state_of(sim) == state_of(reference)
        # the stall is stepped tick by tick to the deadlock bound
        stalled = int(got[1].rsplit(" ", 1)[1])
        assert steps[-50_001:] == list(range(stalled, stalled + 50_001))
        assert any(unit.active is not None and unit.active.waiting_for
                   for unit in sim.units.values())


def test_direct_transfers_longer_than_two_ticks(monkeypatch):
    """A direct transfer outlives the tick that issues it only when it
    takes more than two ticks; then the jump counts it down too."""
    for module in (system, sys.modules[__name__]):
        monkeypatch.setattr(module, "DIRECT_TRANSFER_TICKS", 9)
    graph = four_band_equalizer(words=8)
    board = cool_board()
    mapping = {node.name: board.processor_names[0]
               for node in graph.internal_nodes()}
    mapping.update({"band0": "fpga0", "gain0": "fpga1", "band1": "fpga1"})
    sim, reference = build_pair(graph, board, mapping,
                                stimuli_for(graph, 1))
    assert any(channel.is_direct for channel in sim.plan.channels.values())
    assert sim.run() == reference.run()
    assert state_of(sim) == state_of(reference)


def test_jumping_crosses_most_ticks():
    sim, reference = equalizer_pair({"fpga0": {"band0": 2000}})
    steps = counted_steps(sim)
    assert sim.run() == reference.run()
    assert len(steps) * 10 < sim.cycles
