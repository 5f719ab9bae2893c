"""Composition verification at suite scale: production path + oracle.

Drives :func:`repro.controllers.verify_composition` over the same
52-design population as ``bench_controller_synthesis`` (50-graph
workload suite + two larger random graphs), plus -- at full suite size
-- the 200/500-node scale designs, and persists the numbers to
``BENCH_verify_composition.json`` at the repo root:

* ``production`` -- the one production path (step systems, pair
  fixpoint, restart liveness and schedule safety over the step
  systems): how many designs were
  *proved* trace-equivalent to their minimized STG under every
  admissible environment and every stream length (restart loop
  included), step system sizes, determinized pair counts, per-design
  timings for the five slowest proofs, and wall-clock.
* ``oracle`` -- :func:`repro.controllers.verify.explicit_oracle` on
  every suite design: the explicit weak-bisimulation verdict must agree
  with the production one.  Its wall-clock includes the production
  re-run the oracle compares against.
* ``scale`` -- designs far beyond the oracle's reach, proved by the
  production path alone (tens of thousands of product states).
* ``stretch`` -- only with ``--stretch``: the 1000-node scale design
  (about 300 000 product states), proved under a tracer, with the
  seconds of every ``verify*`` span and the process's peak RSS.  It
  must prove within ``STRETCH_MAX_S`` seconds and
  ``STRETCH_MAX_RSS_MB``; it takes tens of seconds, so neither the
  default run nor CI includes it.

The functional gates always apply: every suite design proved, the
oracle agreeing on every one, every scale design proved.  At full
suite size a >= 50 000-state scale proof is also required.  Timings
are recorded, not gated: the ``random_80_80`` production and oracle
times are measured in the same run, because wall-clock on a shared
host drifts too far between runs to hold against a committed number.

Runs under pytest-benchmark or standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_verify_composition.py --graphs 8

and with the stretch point on a small suite, without touching the
committed JSON::

    PYTHONPATH=src python benchmarks/bench_verify_composition.py \
        --graphs 2 --stretch --no-write
"""

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from bench_controller_synthesis import _suite_designs
from repro.controllers import synthesize_system_controller, verify_composition
from repro.controllers.verify import explicit_oracle
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.obs import Tracer, activate
from repro.platform import cool_board
from repro.schedule import list_schedule
from repro.stg import build_stg, minimize_stg
from repro.workloads import scale_suite

RESULTS_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_verify_composition.json"

DEFAULT_GRAPHS = 50
SUITE_SEED = 7
#: Scale designs the production path proves alone; they join the run at
#: full suite size only (the 500-node proof walks ~65k product states
#: -- minutes, not CI-smoke material).
LARGE_SCALE_SIZES = (200, 500)
#: Per-design slow list depth persisted in the JSON.
SLOWEST_KEPT = 5
#: The opt-in stretch point (``--stretch``) and its bounds.
STRETCH_SIZE = 1000
STRETCH_MAX_S = 60.0
STRETCH_MAX_RSS_MB = 2048.0


def _scale_designs(sizes):
    """(graph, schedule) for the scale-suite specs.

    Same spread-the-board random mapping as the scale graphs of
    ``bench_controller_synthesis`` -- maximal parallelism across the
    COOL board's units is what drives the reachable product size.
    """
    big = cool_board()
    designs = []
    for spec in scale_suite(sizes) if sizes else ():
        graph = spec.build()
        rng = random.Random(spec.nodes)
        mapping = {node.name: rng.choice(big.resource_names)
                   for node in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, big.fpga_names,
                                 big.processor_names)
        designs.append((graph, list_schedule(partition,
                                             CostModel(graph, big))))
    return designs


def _prepare(designs):
    return [(graph, *_stg_and_controller(schedule))
            for graph, schedule in designs]


def _stg_and_controller(schedule):
    mini, _ = minimize_stg(build_stg(schedule))
    return mini, synthesize_system_controller(mini)


def _timed_checks(prepared, verify):
    out = []
    for graph, mini, controller in prepared:
        started = time.perf_counter()
        check = verify(mini, controller, graph=graph)
        out.append((graph.name, check, time.perf_counter() - started))
    return out


def _stretch_point() -> dict:
    """The traced proof of the ``STRETCH_SIZE``-node scale design."""
    (graph, mini, controller), = _prepare(_scale_designs((STRETCH_SIZE,)))
    with activate(Tracer()) as tracer:
        started = time.perf_counter()
        check = verify_composition(mini, controller, graph=graph)
        seconds = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux: the process's peak, setup included
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "name": graph.name,
        "seconds": round(seconds, 6),
        "peak_rss_mb": round(peak_kib / 1024, 1),
        "tier": check.tier,
        "equivalent": check.equivalent,
        "product_states": check.product_states,
        "pairs_checked": check.pairs_checked,
        "spans": {span.name: round(span.duration, 6)
                  for span in tracer.spans()
                  if span.name.startswith("verify")},
    }


def measure(n_graphs: int = DEFAULT_GRAPHS, seed: int = SUITE_SEED,
            scale_sizes: tuple = (), stretch: bool = False) -> dict:
    prepared = _prepare(_suite_designs(n_graphs, seed))
    scale_prepared = _prepare(_scale_designs(scale_sizes))

    per_design = _timed_checks(prepared, verify_composition)
    oracle = _timed_checks(prepared, explicit_oracle)
    scale_per_design = _timed_checks(scale_prepared, verify_composition)

    checks = [check for _, check, _ in per_design]
    slowest = sorted(per_design, key=lambda entry: entry[2],
                     reverse=True)[:SLOWEST_KEPT]
    seconds_of = {name: seconds for name, _, seconds in per_design}
    oracle_seconds_of = {name: seconds for name, _, seconds in oracle}
    return {
        "suite": {
            "graphs": len(prepared),
            "workload_graphs": n_graphs,
            "seed": seed,
            "scale_sizes": list(scale_sizes),
        },
        "production": {
            "designs": len(checks),
            "proved": sum(check.equivalent and check.tier == "symbolic"
                          for check in checks),
            "verify_s": round(sum(seconds_of.values()), 6),
            "product_states": sum(c.product_states for c in checks),
            "largest_product": max((c.product_states for c in checks),
                                   default=0),
            "projections": sum(c.projections_checked for c in checks),
            "pairs_checked": sum(c.pairs_checked for c in checks),
            "starts_checked": sum(c.starts_checked for c in checks),
            "slowest_designs": [{
                "name": name,
                "seconds": round(seconds, 6),
                "product_states": check.product_states,
                "pairs_checked": check.pairs_checked,
            } for name, check, seconds in slowest],
        },
        "oracle": {
            "designs": len(oracle),
            "agreeing": sum(check.oracle == "agrees"
                            for _, check, _ in oracle),
            "verify_s": round(sum(oracle_seconds_of.values()), 6),
            "random_80_80": None if "random_80_80" not in seconds_of else {
                "production_s": round(seconds_of["random_80_80"], 6),
                "oracle_s": round(oracle_seconds_of["random_80_80"], 6),
            },
        },
        "scale": {
            "designs": [{
                "name": name,
                "seconds": round(seconds, 6),
                "tier": check.tier,
                "equivalent": check.equivalent,
                "product_states": check.product_states,
                "pairs_checked": check.pairs_checked,
                "projections": check.projections_checked,
            } for name, check, seconds in scale_per_design],
            "largest_proved_states": max(
                (check.product_states for _, check, _ in scale_per_design
                 if check.equivalent), default=0),
        },
        "stretch": _stretch_point() if stretch else None,
    }


def check(payload: dict, full: bool = True) -> None:
    """The verification gate (shared by pytest and the CLI).

    ``full=False`` skips the scale-size gate (CI smoke on a small
    suite); the functional gates always apply.
    """
    production = payload["production"]
    oracle = payload["oracle"]
    scale = payload["scale"]
    designs = payload["suite"]["graphs"]

    assert production["proved"] == production["designs"] == designs, \
        "a suite design failed the production equivalence proof"
    assert oracle["agreeing"] == oracle["designs"] == designs, \
        "the explicit oracle disagrees with production on a suite verdict"
    for entry in scale["designs"]:
        assert entry["tier"] == "symbolic" and entry["equivalent"], \
            f"scale design {entry['name']} not proved"
    if full:
        assert scale["largest_proved_states"] >= 50_000, \
            "the 500-node scale design is missing"
    stretch = payload.get("stretch")
    if stretch is not None:
        assert stretch["tier"] == "symbolic" and stretch["equivalent"], \
            f"stretch design {stretch['name']} not proved"
        assert stretch["seconds"] <= STRETCH_MAX_S, \
            f"stretch proof took {stretch['seconds']:.1f} s"
        assert stretch["peak_rss_mb"] <= STRETCH_MAX_RSS_MB, \
            f"stretch proof peaked at {stretch['peak_rss_mb']:.0f} MB"


def report(payload: dict) -> str:
    suite = payload["suite"]
    production = payload["production"]
    oracle = payload["oracle"]
    lines = ["Composition verification at suite scale:"]
    lines.append(f"  suite               : {suite['graphs']} designs "
                 f"+ {len(payload['scale']['designs'])} scale")
    lines.append(f"  production          : {production['proved']} proved in "
                 f"{production['verify_s'] * 1e3:8.1f} ms "
                 f"({production['product_states']} product states, "
                 f"{production['pairs_checked']} pairs, "
                 f"{production['projections']} projections)")
    for entry in production["slowest_designs"]:
        lines.append(f"    slow proof        : {entry['name']} "
                     f"({entry['seconds'] * 1e3:.1f} ms, "
                     f"{entry['product_states']} states, "
                     f"{entry['pairs_checked']} pairs)")
    lines.append(f"  explicit oracle     : {oracle['agreeing']}/"
                 f"{oracle['designs']} verdicts agree in "
                 f"{oracle['verify_s'] * 1e3:8.1f} ms")
    if oracle["random_80_80"]:
        speed = oracle["random_80_80"]
        lines.append(f"  random_80_80        : {speed['production_s']}s "
                     f"production vs {speed['oracle_s']}s explicit oracle "
                     f"(same run)")
    for entry in payload["scale"]["designs"]:
        lines.append(f"  scale proof         : {entry['name']} "
                     f"({entry['seconds']:.1f} s, "
                     f"{entry['product_states']} states, "
                     f"{entry['pairs_checked']} pairs)")
    stretch = payload.get("stretch")
    if stretch is not None:
        lines.append(f"  stretch proof       : {stretch['name']} "
                     f"({stretch['seconds']:.1f} s, "
                     f"{stretch['peak_rss_mb']:.0f} MB peak, "
                     f"{stretch['product_states']} states, "
                     f"{stretch['pairs_checked']} pairs)")
        for name, seconds in stretch["spans"].items():
            lines.append(f"    {name:<24}: {seconds:.2f} s")
    return "\n".join(lines)


def test_verify_composition_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)
    assert payload["suite"]["workload_graphs"] >= 50
    check(payload, full=False)
    print("\n" + report(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Composition verification at suite scale")
    parser.add_argument("--graphs", type=int, default=DEFAULT_GRAPHS,
                        help="workload suite size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=SUITE_SEED,
                        help="suite seed (default %(default)s)")
    parser.add_argument("--no-scale", action="store_true",
                        help="skip the 200/500-node scale proofs even at "
                             "full suite size")
    parser.add_argument("--stretch", action="store_true",
                        help=f"also prove the {STRETCH_SIZE}-node scale "
                             f"design, traced (tens of seconds)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_verify_composition.json "
                             "(CI smoke runs)")
    args = parser.parse_args(argv)
    full = args.graphs >= DEFAULT_GRAPHS
    scale_sizes = LARGE_SCALE_SIZES if full and not args.no_scale else ()
    payload = measure(args.graphs, args.seed, scale_sizes=scale_sizes,
                      stretch=args.stretch)
    check(payload, full=bool(scale_sizes))
    if not args.no_write:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    if not args.no_write:
        print(f"  results -> {RESULTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
