"""Guard simplification at suite scale.

Drives the VHDL emitter's guard rewrite over the same 52-design
population as the controller-synthesis and verification benches
(50-graph workload suite + two larger random graphs) and persists the
numbers to ``BENCH_guard_simplify.json`` at the repo root:

* ``literals`` -- VHDL guard literal counts of every controller FSM,
  baseline cascade vs the rewritten one (dead-branch pruning,
  same-successor merging, factored covers, reachability don't-cares
  harvested from the composition's reachable step system).  Gated:
  the suite total must *strictly* drop and no single design may get
  worse.
* ``rewrite`` -- the emitter's soundness gate: on every state of every
  controller FSM and every valuation harvested there, the first
  rewritten cover (:func:`repro.automata.simplify.simplified_state_covers`,
  what ``fsm_to_vhdl(simplify=True)`` prints) the valuation satisfies
  must pick the ``(successor, actions)`` of the original cascade's
  first enabled transition, and no cover may fire where no transition
  is enabled.  Also records ``max_support``, the widest per-state
  frame (distinct condition signals) the rewrite's truth tables span.
* ``verification`` -- every controller rebuilt by
  :func:`repro.controllers.simplify_controller_guards` (literals
  dropped against the same care sets, a rewrite the flow itself does
  not run) re-proves trace equivalence to its minimized STG through
  the production composition check.
* ``cosim`` -- golden-model gate on a sample of designs: the full
  ``CoolFlow`` (its codegen stage always simplifies) must co-simulate to exactly
  the golden interpreter's outputs.

Runs under pytest-benchmark or standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_guard_simplify.py --graphs 8
"""

import argparse
import json
import sys
import time
from pathlib import Path

from bench_controller_synthesis import _suite_designs
from repro.automata import AutomataError
from repro.automata.simplify import simplified_state_covers
from repro.codegen import check_vhdl, fsm_to_vhdl, guard_literal_count
from repro.controllers import (harvest_care_sets,
                               simplify_controller_guards,
                               synthesize_system_controller,
                               verify_composition)
from repro.flow import CoolFlow
from repro.graph import execute
from repro.platform import minimal_board
from repro.stg import build_stg, minimize_stg
from repro.workloads import stimuli_for, workload_suite

RESULTS_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_guard_simplify.json"

DEFAULT_GRAPHS = 50
SUITE_SEED = 7
#: Full-flow co-simulations against the golden interpreter (the flow
#: re-runs partitioning/HLS/verify, so a sample keeps the bench fast).
COSIM_DESIGNS = 6


def _first_cover(covers, ids):
    """The ``(dst, actions)`` of the first cover ``ids`` satisfies."""
    for cover, dst, actions in covers:
        if any(all((var in ids) == polarity for var, polarity in cube)
               for cube in cover):
            return dst, actions
    return None


def _first_enabled(automaton, state, ids):
    """The ``(dst, actions)`` of the cascade's first enabled transition."""
    for t in automaton.out(state):
        if ids.issuperset(t.conditions):
            return t.dst, t.actions
    return None


def check_rewrite(controller, care) -> dict:
    """Every harvested valuation of every state: rewrite == cascade."""
    states = valuations = mismatches = max_support = 0
    for fsm in controller.fsms:
        automaton = fsm.to_automaton()
        care_of = care.get(fsm.name, {})
        for index, name in enumerate(automaton.state_names):
            states += 1
            max_support = max(max_support, len(
                {var for t in automaton.out(index) for var in t.conditions}))
            observed = care_of.get(name)
            if not observed:
                continue
            covers = simplified_state_covers(automaton, index, observed)
            for valuation in observed:
                ids = automaton.symbols.ids_of(valuation)
                valuations += 1
                mismatches += (_first_cover(covers, ids)
                               != _first_enabled(automaton, index, ids))
    return {"states": states, "valuations": valuations,
            "mismatches": mismatches, "max_support": max_support}


def measure(n_graphs: int = DEFAULT_GRAPHS, seed: int = SUITE_SEED) -> dict:
    designs = []
    for graph, schedule in _suite_designs(n_graphs, seed):
        mini, _ = minimize_stg(build_stg(schedule))
        designs.append((graph, mini, synthesize_system_controller(mini)))

    per_design = []
    rewrite = {"states": 0, "valuations": 0, "mismatches": 0,
               "max_support": 0}
    rejected_vhdl = 0
    care_fallbacks = []
    emit_baseline_s = 0.0
    emit_simplified_s = 0.0
    for graph, mini, controller in designs:
        try:
            care = harvest_care_sets(controller)
        except AutomataError as exc:
            care = {}
            care_fallbacks.append((graph.name, str(exc)))

        started = time.perf_counter()
        baseline = {fsm.name: fsm_to_vhdl(fsm) for fsm in controller.fsms}
        emit_baseline_s += time.perf_counter() - started
        started = time.perf_counter()
        simplified = {fsm.name: fsm_to_vhdl(fsm, simplify=True,
                                            care_of=care.get(fsm.name))
                      for fsm in controller.fsms}
        emit_simplified_s += time.perf_counter() - started

        before = sum(map(guard_literal_count, baseline.values()))
        after = sum(map(guard_literal_count, simplified.values()))
        rejected_vhdl += sum(bool(check_vhdl(text))
                             for text in simplified.values())
        checked = check_rewrite(controller, care)
        for key in ("states", "valuations", "mismatches"):
            rewrite[key] += checked[key]
        rewrite["max_support"] = max(rewrite["max_support"],
                                     checked["max_support"])

        # on a harvest fallback `care` is {}: pass it through verbatim
        # so simplify does NOT silently re-harvest (guards stay
        # untouched, re-verification still runs)
        reduced, _stats = simplify_controller_guards(controller,
                                                     care_sets=care)
        check = verify_composition(mini, reduced, graph=graph)
        per_design.append({
            "name": graph.name,
            "literals_before": before,
            "literals_after": after,
            "reverified": check.equivalent,
        })

    cosim_specs = workload_suite(min(COSIM_DESIGNS, n_graphs), seed=seed)
    cosim_ok = 0
    for spec in cosim_specs:
        graph = spec.build()
        stimuli = dict(stimuli_for(graph))
        result = CoolFlow(minimal_board()).run(graph, stimuli=stimuli)
        golden = execute(graph, stimuli)
        outputs_ok = all(result.sim_result.outputs[name] == values
                         for name, values in golden.items()
                         if name in result.sim_result.outputs)
        report = result.guard_report
        cosim_ok += bool(outputs_ok
                         and report["guard_literals_after"]
                         <= report["guard_literals_before"])

    totals_before = sum(d["literals_before"] for d in per_design)
    totals_after = sum(d["literals_after"] for d in per_design)
    return {
        "suite": {
            "graphs": len(designs),
            "workload_graphs": n_graphs,
            "seed": seed,
        },
        "literals": {
            "before": totals_before,
            "after": totals_after,
            "reduction": round(1 - totals_after / totals_before, 4)
            if totals_before else 0.0,
            "designs_reduced": sum(d["literals_after"]
                                   < d["literals_before"]
                                   for d in per_design),
            "designs_worse": sum(d["literals_after"]
                                 > d["literals_before"]
                                 for d in per_design),
            "rejected_vhdl": rejected_vhdl,
            "emit_baseline_s": round(emit_baseline_s, 6),
            "emit_simplified_s": round(emit_simplified_s, 6),
        },
        "rewrite": rewrite,
        "verification": {
            "reverified": sum(d["reverified"] for d in per_design),
            "designs": len(per_design),
            "care_fallbacks": sorted(name for name, _ in care_fallbacks),
        },
        "cosim": {
            "designs": len(cosim_specs),
            "golden_ok": cosim_ok,
        },
    }


def check(payload: dict) -> None:
    """The guard-simplification gate (shared by pytest and the CLI)."""
    literals = payload["literals"]
    rewrite = payload["rewrite"]
    verification = payload["verification"]
    cosim = payload["cosim"]

    assert literals["after"] < literals["before"], \
        "guard simplification must strictly reduce suite VHDL literals"
    assert literals["designs_worse"] == 0, \
        "no design may end up with more guard literals"
    assert literals["rejected_vhdl"] == 0, \
        "every simplified VHDL file must pass the structural checker"
    assert rewrite["valuations"] > 0 and rewrite["mismatches"] == 0, \
        "a rewritten cascade picks a different branch than the original"
    assert verification["reverified"] == verification["designs"], \
        "a simplified controller failed re-verification against its STG"
    assert cosim["golden_ok"] == cosim["designs"], \
        "a guard-simplified flow diverged from the golden interpreter"


def report(payload: dict) -> str:
    suite = payload["suite"]
    literals = payload["literals"]
    verification = payload["verification"]
    cosim = payload["cosim"]
    rewrite = payload["rewrite"]
    lines = ["Guard simplification at suite scale:"]
    lines.append(f"  suite               : {suite['graphs']} designs")
    lines.append(f"  VHDL guard literals : {literals['before']} -> "
                 f"{literals['after']} "
                 f"({literals['reduction']:.0%} fewer; "
                 f"{literals['designs_reduced']}/{suite['graphs']} designs "
                 f"reduced, 0 worse)")
    lines.append(f"  emitter wall-clock  : baseline "
                 f"{literals['emit_baseline_s'] * 1e3:7.1f} ms | rewritten "
                 f"{literals['emit_simplified_s'] * 1e3:7.1f} ms")
    lines.append(f"  rewritten cascades  : {rewrite['mismatches']} "
                 f"mismatches over {rewrite['valuations']} valuations of "
                 f"{rewrite['states']} states (widest frame "
                 f"{rewrite['max_support']} signals)")
    lines.append(f"  re-verification     : "
                 f"{verification['reverified']}/{verification['designs']} "
                 f"equivalent (care fallbacks "
                 f"{verification['care_fallbacks']})")
    lines.append(f"  golden co-simulation: {cosim['golden_ok']}/"
                 f"{cosim['designs']} flows bit-exact")
    return "\n".join(lines)


def test_guard_simplify_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)
    assert payload["suite"]["workload_graphs"] >= 50
    check(payload)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + report(payload))
    print(f"  results -> {RESULTS_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Guard simplification at suite scale")
    parser.add_argument("--graphs", type=int, default=DEFAULT_GRAPHS,
                        help="workload suite size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=SUITE_SEED,
                        help="suite seed (default %(default)s)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_guard_simplify.json "
                             "(CI smoke runs)")
    args = parser.parse_args(argv)
    payload = measure(args.graphs, args.seed)
    check(payload)
    if not args.no_write:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    if not args.no_write:
        print(f"  results -> {RESULTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
