"""Per-layer attribution for traced benchmark runs.

The program already opens ``repro.obs`` spans at the stage, job, flow,
shard, verify and store boundaries.  This module adds spans from the
benchmark's side only: :func:`install` replaces the public entry points
that the flow calls into each layer (looked up where the caller looks
them up) with wrappers that open one ``kind="layer"`` span per call.
Nothing inside ``src/`` changes.  The wrappers are installed in a child
process that runs one traced repetition and exits, so untraced
repetitions never see them; shard workers forked by that child inherit
them and ship their spans home with the spans the program records.

:func:`layer_metrics` turns the finished spans into the per-layer
metrics: every span's self time (duration minus its direct children)
is charged to the layer it belongs to, so the layer busy times add up
to the traced wall-clock of the root spans, and whatever the flow does
outside any wrapped entry point is left as ``flow.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib

from repro.obs import span as obs_span
from repro.obs import span_to_dict, stage_breakdown

#: The flow's stages, in pipeline order (``repro.flow.build_flow_stages``).
STAGES = ("validate", "partitioning", "stg", "communication", "hls",
          "controllers", "verify", "codegen", "cosim")

#: Layers a span of the program itself belongs to, by span kind.
_KIND_LAYER = {"flow": "flow", "stage": "flow", "job": "flow",
               "store": "store", "cache": "store", "verify": "verify",
               "shard": "shard"}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _stg_states(args, kwargs, result):
    _stg, report = result
    return {"states_before": report.states_before,
            "states_after": report.states_after}


def _relational(args, kwargs, result):
    flag = kwargs.get("relational_check",
                      args[2] if len(args) > 2 else False)
    return {"relational": bool(flag)}


def annotate_oracle(args, kwargs, result):
    return {"oracle": result.oracle is not None}


def _cycles(args, kwargs, result):
    return {"cycles": result.cycles}


#: ``(module, attribute path, layer, annotate)`` for every wrapped entry
#: point.  The module is where the *caller* resolves the name, so the
#: flow's own ``from ... import`` bindings are the ones replaced.
ENTRY_POINTS = (
    ("repro.flow.pipeline", "FlowContext.put", "fingerprint", None),
    ("repro.partition.base", "Partitioner.partition", "partition", None),
    ("repro.flow.cool", "select_eviction_victim", "partition", None),
    ("repro.partition.base", "list_schedule", "schedule", None),
    ("repro.flow.cool", "build_stg", "stg", None),
    ("repro.flow.cool", "minimize_stg", "stg", _stg_states),
    ("repro.flow.cool", "refine_communication", "comm", None),
    ("repro.flow.cool", "synthesize_resource", "hls", None),
    ("repro.flow.cool", "synthesize_system_controller", "controllers", None),
    ("repro.flow.cool", "synthesize_io_controller", "controllers", None),
    ("repro.flow.cool", "synthesize_datapath_controller", "controllers",
     None),
    ("repro.flow.cool", "verify_composition", "verify", annotate_oracle),
    ("repro.controllers.verify", "symbolic_trace_equivalence", "verify",
     None),
    ("repro.automata.symbolic", "reachable_set_summary", "verify",
     _relational),
    ("repro.controllers.verify", "weak_bisimilar", "verify", None),
    ("repro.controllers.verify", "reachable_automaton", "verify", None),
    ("repro.automata.product", "reachable_automaton", "verify", None),
    ("repro.flow.cool", "harvest_care_sets", "codegen", None),
    ("repro.flow.cool", "fsm_to_vhdl", "codegen", _text_bytes),
    ("repro.flow.cool", "datapath_to_vhdl", "codegen", _text_bytes),
    ("repro.flow.cool", "fsm_guard_literals", "codegen", None),
    ("repro.flow.cool", "guard_literal_count", "codegen", None),
    ("repro.flow.cool", "check_vhdl", "codegen", None),
    ("repro.flow.cool", "software_to_c", "codegen", None),
    ("repro.flow.cool", "generate_netlist", "codegen", None),
    ("repro.sim.system", "CoSimulation.__init__", "sim", None),
    ("repro.sim.system", "CoSimulation.run", "sim", _cycles),
)


def wrap(fn, layer: str, annotate=None):
    """``fn`` inside a ``layer/<name>`` span (a no-op when not tracing)."""
    name = f"{layer}/{fn.__name__}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with obs_span(name, kind="layer", layer=layer) as handle:
            result = fn(*args, **kwargs)
            if annotate is not None:
                for key, value in annotate(args, kwargs, result).items():
                    handle.set(key, value)
            return result

    return traced


def install() -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` in this process."""
    for module_name, path, layer, annotate in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attr, wrap(getattr(owner, attr), layer, annotate))


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def _layer_of(row: dict) -> str:
    if row["kind"] == "layer":
        return row["attributes"]["layer"]
    return _KIND_LAYER.get(row["kind"], "other")


def _outermost(rows: list[dict], by_id: dict, names: set[str]) -> list[dict]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for row in rows:
        if row["name"] not in names:
            continue
        parent = by_id.get(row["parent_id"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent_id"])
        if parent is None:
            out.append(row)
    return out


def _without_layer_spans(rows: list[dict], by_id: dict) -> list[dict]:
    """The trace as the program alone records it: layer spans dropped,
    their children re-parented to the nearest program span."""
    kept = []
    for row in rows:
        if row["kind"] == "layer":
            continue
        parent = by_id.get(row["parent_id"])
        while parent is not None and parent["kind"] == "layer":
            parent = by_id.get(parent["parent_id"])
        kept.append({**row, "parent_id":
                     parent["span_id"] if parent is not None else None})
    return kept


def stage_self_times(rows: list[dict]) -> dict[str, float]:
    """Per-stage self time as ``python -m repro.obs report`` shows it
    for the same run without the benchmark's layer spans.

    The verifier opens its own ``verify`` span inside the verify stage;
    its self time is charged to that stage, so ``verify`` reads as the
    time spent proving, with or without a flow around it.
    """
    by_id = {row["span_id"]: row for row in rows}
    self_of = {name: 0.0 for name in STAGES}
    for entry in stage_breakdown(_without_layer_spans(rows, by_id)):
        if entry["kind"] in ("stage", "verify") \
                and entry["name"] in self_of:
            self_of[entry["name"]] += entry["self"]
    return self_of


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer busy times, sub-times and counts of one traced phase."""
    rows = [span_to_dict(s) for s in spans]
    by_id = {row["span_id"]: row for row in rows}
    children: dict = {}
    for row in rows:
        children.setdefault(row["parent_id"], []).append(row)
    busy: dict[str, float] = {}
    for row in rows:
        kids = children.get(row["span_id"], ())
        own = max(0.0, row["duration"] - sum(k["duration"] for k in kids))
        layer = _layer_of(row)
        busy[layer] = busy.get(layer, 0.0) + own

    def inclusive(*names: str, where=None) -> float:
        return sum(row["duration"]
                   for row in _outermost(rows, by_id, set(names))
                   if where is None or where(row["attributes"]))

    def total(name: str, attr: str) -> int:
        return sum(row["attributes"].get(attr, 0) for row in rows
                   if row["name"] == name)

    def count(name: str, where=None) -> int:
        return sum(1 for row in rows if row["name"] == name
                   and (where is None or where(row["attributes"])))

    relational = inclusive("verify/reachable_set_summary",
                           where=lambda a: a.get("relational"))
    roots = [row for row in rows if row["parent_id"] not in by_id]
    metrics = {
        "verify.busy_s": busy.get("verify", 0.0),
        "verify.oracle_s": inclusive("verify/weak_bisimilar",
                                     "verify/reachable_automaton"),
        "verify.relational_s": relational,
        "verify.fixpoint_s":
            inclusive("verify/symbolic_trace_equivalence") - relational,
        "verify.pairs_checked": total("verify", "pairs_checked"),
        "verify.product_states": total("verify", "product_states"),
        "verify.oracle_runs": count("verify/verify_composition",
                                    where=lambda a: a.get("oracle")),
        "hls.busy_s": busy.get("hls", 0.0),
        "hls.calls": count("hls/synthesize_resource"),
        "sim.busy_s": busy.get("sim", 0.0),
        "sim.cycles": total("sim/run", "cycles"),
        "codegen.busy_s": busy.get("codegen", 0.0),
        "codegen.care_harvest_s": inclusive("codegen/harvest_care_sets"),
        "codegen.vhdl_check_s": inclusive("codegen/check_vhdl"),
        "codegen.vhdl_bytes": total("codegen/fsm_to_vhdl", "bytes")
        + total("codegen/datapath_to_vhdl", "bytes"),
        "partition.busy_s": busy.get("partition", 0.0),
        "schedule.busy_s": busy.get("schedule", 0.0),
        "partition.area_repairs": count("partition/select_eviction_victim"),
        "stg.busy_s": busy.get("stg", 0.0),
        "stg.states_before": total("stg/minimize_stg", "states_before"),
        "stg.states_after": total("stg/minimize_stg", "states_after"),
        "comm.busy_s": busy.get("comm", 0.0),
        "controllers.busy_s": busy.get("controllers", 0.0),
        "flow.fingerprint_s": busy.get("fingerprint", 0.0),
        "flow.overhead_s": busy.get("flow", 0.0),
        "store.get_s": inclusive("cache.get"),
        "store.put_s": inclusive("cache.put"),
    }
    for name, seconds in stage_self_times(rows).items():
        metrics[f"stage.{name}.self_s"] = seconds
    # bookkeeping for the accounting table: root wall and what the
    # layers (plus the shard/other buckets) charged against it
    metrics["trace.root_s"] = sum(row["duration"] for row in roots)
    metrics["trace.charged_s"] = sum(busy.values())
    metrics["trace.spans"] = len(rows)
    return metrics
