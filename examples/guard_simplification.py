#!/usr/bin/env python3
"""Guard simplification: before/after VHDL cascades.

Synthesizes the 4-band equalizer's communicating controllers, harvests
the reachability don't-cares from the composition product (every input
valuation each FSM can actually see, under every admissible
environment), and emits each controller FSM twice:

* the baseline priority cascade -- every transition spells its full
  conjunction of done-flag literals out;
* the rewritten cascade -- dead branches pruned, same-successor
  branches merged by guard disjunction, every guard re-covered from
  the state's truth tables (ISOP, expand, irredundant) against the
  don't-cares.  A wait on a flag
  that is provably already latched becomes an unconditional arm; a
  join whose first producer always finishes earlier drops that
  literal.

The simplified controller is re-verified against the minimized STG
(the production composition check), so the smaller cascades are
*proved* to implement the same schedule.
"""

from repro.apps import four_band_equalizer
from repro.codegen import fsm_to_vhdl, guard_literal_count
from repro.controllers import (harvest_care_sets,
                               simplify_controller_guards,
                               synthesize_system_controller,
                               verify_composition)
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.platform import minimal_board
from repro.schedule import list_schedule
from repro.stg import build_stg, minimize_stg


def cascade_of(text: str, state: str) -> list[str]:
    """The emitted case arm of one state (for side-by-side printing)."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.strip() == f"when st_{state} =>")
    arm = [lines[start]]
    for line in lines[start + 1:]:
        stripped = line.strip()
        if stripped.startswith("when ") or stripped == "end case;":
            break
        arm.append(line)
    return arm


def main() -> None:
    graph = four_band_equalizer(words=8)
    arch = minimal_board()
    mapping = {n.name: ("fpga0" if n.name in ("band0", "gain0") else "dsp0")
               for n in graph.internal_nodes()}
    partition = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
    schedule = list_schedule(partition, CostModel(graph, arch))
    stg, _ = minimize_stg(build_stg(schedule))
    controller = synthesize_system_controller(stg)

    care = harvest_care_sets(controller)
    print("VHDL guard literals per controller FSM (baseline -> rewritten):")
    total_before = total_after = 0
    for fsm in controller.fsms:
        baseline = fsm_to_vhdl(fsm)
        rewritten = fsm_to_vhdl(fsm, simplify=True,
                                care_of=care.get(fsm.name))
        before = guard_literal_count(baseline)
        after = guard_literal_count(rewritten)
        total_before += before
        total_after += after
        print(f"  {fsm.name:<12} {before:>3} -> {after:>3}")
    saved = 1 - total_after / total_before
    print(f"  {'total':<12} {total_before:>3} -> {total_after:>3} "
          f"({saved:.0%} fewer)")

    # one concrete cascade, side by side: the dsp0 sequencer's second
    # wait on done_x is provably already latched -> unconditional arm
    seq = controller.sequencers["dsp0"]
    baseline = fsm_to_vhdl(seq)
    rewritten = fsm_to_vhdl(seq, simplify=True, care_of=care[seq.name])
    state = seq.states[3]  # the repeated wait
    print(f"\nbaseline cascade of seq_dsp0 state {state!r}:")
    print("\n".join(cascade_of(baseline, state)))
    print("\nrewritten cascade of the same state (wait already proven):")
    print("\n".join(cascade_of(rewritten, state)))

    reduced, stats = simplify_controller_guards(controller, care_sets=care)
    check = verify_composition(stg, reduced, graph=graph)
    print(f"\ncontroller-level literal reduction: "
          f"{stats['literals_before']} -> {stats['literals_after']}")
    print(f"simplified controller vs minimized STG: "
          f"{'EQUIVALENT' if check.equivalent else 'MISMATCH'} "
          f"({check.tier} tier, {check.projections_checked} projections)")


if __name__ == "__main__":
    main()
