"""System-controller synthesis from the (minimized) STG.

The system controller "steers the complete system according to the
computed schedule" (paper Section 2).  Because the processing units run
concurrently, the controller is synthesized as a *composition* of
communicating FSMs, all derived from the STG:

* one **sequencer FSM per processing unit** -- the projection of the STG
  onto that unit's chain: it walks the unit through its scheduled nodes,
  waiting on the done flags of cross-unit data predecessors (the STG
  guards), issuing the memory reads, the start pulse and the memory
  writes of each node;
* one **phase FSM** -- the projection of the global R / X / D states:
  it resets every unit, releases the sequencers with a ``go`` broadcast,
  and collects their ``phase_done`` flags before signalling system
  completion;
* a bank of **done-flag registers** (one per task-graph node, cleared in
  the reset phase) that latch the units' done pulses; the sequencer
  guards read these flags, which is how cross-unit synchronisation
  becomes plain combinational logic.

Every synthesized FSM is state-minimized through the shared kernel
minimizer before it ships (``SystemController.stats()`` reports the
before/after counts), and the communicating composition executes on the
kernel's :class:`~repro.automata.SynchronousComposition` -- the same
product operator :func:`repro.controllers.verify.verify_composition`
uses to prove the composed controller trace-equivalent to the STG.

Everything is implemented in hardware "because hardware allows
concurrent processes" (paper), which is why the composition-of-FSMs
structure is the faithful one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..automata import Automaton, CompositionConfig, SynchronousComposition
from ..fingerprint import content_hash
from ..stg.builder import global_state
from ..stg.states import StateKind, Stg, StgError
from .fsm import Fsm

__all__ = ["SystemController", "ControllerHarness",
           "controller_composition", "synthesize_system_controller",
           "PHASE_DONE_STATE"]

#: Phase-FSM state that marks a completed activation (``system_done``).
PHASE_DONE_STATE = "done"


def controller_composition(controller: "SystemController"
                           ) -> tuple[list[Automaton], CompositionConfig]:
    """The kernel components + channel wiring of a controller.

    One source of truth for how the phase FSM and the sequencers
    communicate: ``go`` / ``phase_done_*`` ride the internal latches,
    ``clear_flags`` wipes the done-flag register, ``go`` is consumed
    once per sequencer activation and the phase FSM's ``reset`` state
    flushes the latches.  Both the executing
    :class:`ControllerHarness` and the product materialization inside
    :func:`repro.controllers.verify.verify_composition` build their
    composition from here, so the verified object and the simulated one
    cannot drift apart.
    """
    components = [fsm.to_automaton() for fsm in controller.fsms]
    internal = ("go",) + tuple(f"phase_done_{r}"
                               for r in controller.sequencers)
    config = CompositionConfig(internal=internal,
                               clear_action="clear_flags",
                               consume_once=("go",),
                               flush_component=0,
                               flush_states=("reset",))
    return components, config


@dataclass
class SystemController:
    """The synthesized controller: phase FSM + per-unit sequencers."""

    name: str
    phase_fsm: Fsm
    sequencers: dict[str, Fsm] = field(default_factory=dict)
    #: task-graph nodes whose done pulses are latched as flags
    done_flags: tuple[str, ...] = ()
    #: per-FSM state counts before kernel minimization (FSM name ->
    #: count); empty when synthesis ran with ``minimize=False``.
    unminimized_states: dict[str, int] = field(default_factory=dict)

    @property
    def fsms(self) -> list[Fsm]:
        return [self.phase_fsm] + list(self.sequencers.values())

    @property
    def total_states(self) -> int:
        return sum(len(f.states) for f in self.fsms)

    @property
    def inputs(self) -> list[str]:
        signals: set[str] = set()
        for fsm in self.fsms:
            signals.update(fsm.inputs)
        # internal handshakes are not external inputs
        internal = {"go"} | {f"phase_done_{r}" for r in self.sequencers}
        return sorted(signals - internal)

    @property
    def outputs(self) -> list[str]:
        signals: set[str] = set()
        for fsm in self.fsms:
            signals.update(fsm.outputs)
        internal = {"go"} | {f"phase_done_{r}" for r in self.sequencers}
        return sorted(signals - internal)

    def fingerprint(self) -> str:
        """Content hash over the complete composition (pipeline cache key)."""
        return content_hash((
            self.name, self.done_flags,
            self.phase_fsm.fingerprint(),
            tuple((r, f.fingerprint())
                  for r, f in sorted(self.sequencers.items()))))

    def stats(self) -> dict:
        minimization = {
            fsm.name: {"before": self.unminimized_states[fsm.name],
                       "after": len(fsm.states)}
            for fsm in self.fsms if fsm.name in self.unminimized_states}
        return {
            "fsms": len(self.fsms),
            "total_states": self.total_states,
            "sequencers": {r: len(f.states)
                           for r, f in self.sequencers.items()},
            "phase_states": len(self.phase_fsm.states),
            "done_flags": len(self.done_flags),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "minimization": minimization,
            "states_saved": sum(m["before"] - m["after"]
                                for m in minimization.values()),
        }


def _chain_of(stg: Stg, resource: str) -> list[str]:
    """Ordered STG states of one unit's chain, following transitions.

    Works on both the full and the minimized STG: entry is the successor
    of the global EXEC state that lies on ``resource``; the chain ends
    at the global DONE state.  Both anchors are found structurally by
    kind (:func:`repro.stg.builder.global_state`), and termination is
    guaranteed by cycle detection instead of an arbitrary step bound.
    """
    exec_state = global_state(stg, StateKind.GLOBAL_EXEC)
    done_state = global_state(stg, StateKind.GLOBAL_DONE)
    entries = [t.dst for t in stg.out_transitions(exec_state.name)
               if stg.state(t.dst).resource == resource]
    if not entries:
        return []
    if len(entries) > 1:
        raise StgError(f"resource {resource!r} has {len(entries)} chain "
                       f"entries in the STG")
    chain = []
    current = entries[0]
    visited: set[str] = set()
    while current != done_state.name:
        if current in visited:
            raise StgError(f"chain of {resource!r} revisits state "
                           f"{current!r}: not a schedule chain")
        visited.add(current)
        chain.append(current)
        outs = stg.out_transitions(current)
        if len(outs) != 1:
            raise StgError(f"state {current!r}: chain expects exactly one "
                           f"successor, found {len(outs)}")
        current = outs[0].dst
    return chain


def _sequencer(stg: Stg, resource: str) -> Fsm:
    """Project the STG chain of one unit into a sequencer FSM.

    Edge-for-edge copy of the chain: every STG chain state becomes an
    FSM state; the entry edge (X -> first state) becomes the ``go`` hop
    out of ``idle`` and keeps its actions (after minimization the entry
    edge may already carry the first node's start); the exit edge
    (last state -> D) returns to ``idle`` and additionally reports
    ``phase_done_<resource>`` to the phase FSM.
    """
    fsm = Fsm(f"seq_{resource}")
    fsm.add_state("idle")
    chain = _chain_of(stg, resource)
    if not chain:
        return fsm

    for state_name in chain:
        fsm.add_state(state_name)

    exec_state = global_state(stg, StateKind.GLOBAL_EXEC)
    entry = next(t for t in stg.out_transitions(exec_state.name)
                 if stg.state(t.dst).resource == resource)
    fsm.add_transition("idle", chain[0],
                       conditions=("go",) + tuple(entry.conditions),
                       actions=entry.actions)

    for state_name, successor in zip(chain, chain[1:]):
        exit_t = stg.out_transitions(state_name)[0]
        fsm.add_transition(state_name, successor,
                           conditions=exit_t.conditions,
                           actions=exit_t.actions)

    last_exit = stg.out_transitions(chain[-1])[0]
    fsm.add_transition(chain[-1], "idle",
                       conditions=last_exit.conditions,
                       actions=tuple(last_exit.actions)
                       + (f"phase_done_{resource}",))
    return fsm


class ControllerHarness:
    """Cycle-level closed-loop execution of the controller composition.

    Models exactly the synthesized hardware: the phase FSM and the
    sequencers step once per clock; done pulses from the units are
    latched into the done-flag registers; ``clear_flags`` (issued during
    the reset phase) clears them; ``go`` is distributed as a latched
    broadcast consumed once per sequencer activation.  The execution
    itself is the kernel's synchronous product
    (:class:`repro.automata.SynchronousComposition`); this class is the
    controller-shaped view of it.  The co-simulator drives this
    harness, and the tests cross-validate its action traces against the
    STG executor -- the synthesized controller must behave exactly like
    the STG it came from.
    """

    def __init__(self, controller: SystemController) -> None:
        self.controller = controller
        components, config = controller_composition(controller)
        self._composition = SynchronousComposition(components, config)

    # ------------------------------------------------------------------
    @property
    def phase_state(self) -> str:
        return self._composition.state_name(0)

    @property
    def actions_log(self) -> list[tuple[str, ...]]:
        return self._composition.actions_log

    @property
    def system_done(self) -> bool:
        return self.phase_state == PHASE_DONE_STATE

    # ------------------------------------------------------------------
    def cycle(self, unit_signals: set[str] | None = None,
              external: set[str] | None = None) -> list[str]:
        """One clock edge.  ``unit_signals`` are the done pulses of the
        processing units this cycle; ``external`` feeds e.g. ``restart``.
        Returns the externally visible commands issued this cycle."""
        return self._composition.cycle(pulses=unit_signals, held=external)

    def quiet_ahead(self) -> bool:
        """Whether a clock edge with no done pulses and no external input
        would issue nothing and leave the controller as it is.  Exact
        and pure: one step of the live configuration, served by the
        composition's step memo
        (:meth:`repro.automata.SynchronousComposition.quiet_ahead`)."""
        return self._composition.quiet_ahead()

    def run(self, respond_done, max_cycles: int = 100_000) -> list[str]:
        """Closed-loop run: ``respond_done(started_nodes)`` maps the set
        of nodes started so far to the done pulses of the next cycle
        (the ideal-environment hook used by tests)."""
        started: list[str] = []
        pending: set[str] = set()
        all_actions: list[str] = []
        for _ in range(max_cycles):
            actions = self.cycle(pending)
            all_actions.extend(actions)
            newly = [a[len("start_"):] for a in actions
                     if a.startswith("start_")]
            started.extend(newly)
            pending = respond_done(newly)
            if self.system_done:
                break
        return all_actions


def synthesize_system_controller(stg: Stg,
                                 name: str = "system_controller",
                                 minimize: bool = True
                                 ) -> SystemController:
    """Derive the communicating controller composition from an STG.

    With ``minimize`` (the default) every projected FSM runs through
    the kernel minimizer before shipping; the pre-minimization state
    counts are kept on the controller for
    :meth:`SystemController.stats`.
    """
    resources = sorted({s.resource for s in stg.states
                        if s.resource is not None})
    if not resources:
        raise StgError("STG mentions no resources; nothing to control")

    sequencers = {r: _sequencer(stg, r) for r in resources}

    phase = Fsm("phase")
    phase.add_state("reset")
    phase.add_state("run")
    phase.add_state(PHASE_DONE_STATE)
    reset_actions = tuple(f"reset_{r}" for r in resources) + ("clear_flags",)
    phase.add_transition("reset", "run", actions=reset_actions + ("go",))
    phase.add_transition(
        "run", PHASE_DONE_STATE,
        conditions=tuple(f"phase_done_{r}" for r in resources),
        actions=("system_done",))
    phase.add_transition(PHASE_DONE_STATE, "reset", conditions=("restart",))

    unminimized: dict[str, int] = {}
    if minimize:
        unminimized = {f.name: len(f.states)
                       for f in [phase] + list(sequencers.values())}
        phase = phase.minimize()
        sequencers = {r: f.minimize() for r, f in sequencers.items()}

    done_flags = tuple(sorted({s.node for s in stg.states
                               if s.node is not None}))
    controller = SystemController(name, phase, sequencers, done_flags,
                                  unminimized)

    for fsm in controller.fsms:
        problems = fsm.validate()
        if problems:
            raise StgError(f"synthesized FSM {fsm.name!r} invalid: "
                           + "; ".join(problems))
    return controller
