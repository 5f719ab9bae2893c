"""Benchmark of the verified COOL flow, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite52 --seed 1 --seconds 40 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

``suite52``       cold serial sweep of ``workload_suite(52, 29)`` with cosim
``scale_verify``  ``verify_composition`` on the 200-node scale design
``store_sweep``   cold 2-shard sweep into a fresh store, then warm
                  restarts of the same sweep in new processes

Every repetition runs in a fresh interpreter (``child.py``).  A run
makes repetitions while the next one is expected to end within
``--seconds`` (always at least one; ``store_sweep`` at least two cold
sweeps), and every timing is the median over them, in reference
seconds (``hostclock.py``: raw seconds corrected by the host speed
sampled while they were measured).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` pairs each untraced
repetition with a traced one and prints the per-layer metrics
(``layers.py``) instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: A run starts no repetition that could end after this many seconds,
#: which keeps every run inside its 180 s limit.
BUDGET_S = 165.0
#: Warm restarts per cold store sweep: the warm phase is short, so each
#: cold sweep is followed by several.
WARM_RESTARTS = 3
#: Cold store sweeps per run: the two-worker sweep spreads the most, so
#: its median needs two samples even when the second overruns --seconds.
MIN_COLD_SWEEPS = 2

#: Counts that must repeat exactly across every run of one source tree.
EXACT_COUNTS = ("guard_literals", "makespan_ticks", "area_clbs",
                "memory_words", "verify.pairs_checked",
                "verify.product_states", "stg.states_after",
                "store.records_written")

#: Layer busy time printed next to the flow stage it mostly runs in.
LAYER_STAGE = (("partition", "partitioning"), ("schedule", None),
               ("stg", "stg"), ("comm", "communication"), ("hls", "hls"),
               ("controllers", "controllers"), ("verify", "verify"),
               ("codegen", "codegen"), ("sim", "cosim"),
               ("flow", None), ("fingerprint", None), ("store", None))


class BenchError(RuntimeError):
    """The benchmark could not measure (no result is printed)."""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class Runner:
    """Starts child repetitions inside one run directory and budget."""

    def __init__(self, args: argparse.Namespace, rundir: Path) -> None:
        self.args = args
        self.rundir = rundir
        self.started = time.perf_counter()
        self.children = 0

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def child(self, phase: str, trace: bool = False, quality: bool = False,
              store: Path | None = None, cold: dict | None = None) -> dict:
        """Run one repetition of ``phase`` in a new interpreter."""
        self.children += 1
        out = self.rundir / f"{self.children:03d}-{phase}.json"
        command = [sys.executable, str(HERE / "child.py"), phase,
                   "--out", str(out), "--seed", str(self.args.seed),
                   "--suite-seed", str(self.args.suite_seed),
                   "--scale-size", str(self.args.scale_size)]
        if trace:
            command.append("--trace")
        if quality:
            command.append("--quality")
        if store is not None:
            command += ["--store", str(store)]
        if cold is not None:
            command += ["--cold", cold["out"]]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # one hash seed for every run: timings then differ by the host
        # alone, and the exact counts must not depend on it anyway
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(self.rundir)
        proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(
                timeout=max(1.0, self.remaining() + 10.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{phase} repetition overran the run budget")
        finally:
            # pool workers of a failed child must not outlive the run
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"{phase} repetition failed "
                             f"(exit {proc.returncode}):\n{stderr[-4000:]}")
        report = json.loads(out.read_text(encoding="utf-8"))
        report["out"] = str(out)
        return report

    def store_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.rundir))

    def fits(self, started: float, took: float) -> bool:
        """Would one more step of ``took`` seconds, begun now, end
        within ``--seconds`` of ``started`` and inside the budget?"""
        now = time.perf_counter()
        return now - started + took <= self.args.seconds \
            and took * 1.25 <= self.remaining()

    def repeat(self, rep, at_least: int = 1) -> list[dict]:
        """Repetitions while the next one is expected to end within
        ``--seconds`` (always ``at_least``).  The expectation is the
        shortest repetition so far, less the one-off checks a child
        reports as ``untimed_s``."""
        reps: list[dict] = []
        shortest = math.inf
        started = time.perf_counter()
        while True:
            rep_started = time.perf_counter()
            reps.append(rep(len(reps)))
            took = time.perf_counter() - rep_started - sum(
                child.get("untimed_s", 0.0) for child in _children(reps[-1:]))
            shortest = min(shortest, took)
            if len(reps) >= at_least and not self.fits(started, shortest):
                return reps


# ----------------------------------------------------------------------
# repetitions per workload
# ----------------------------------------------------------------------
def _store_rep(runner: Runner, trace: bool) -> dict:
    """Cold sweep into a fresh store, then warm restarts against it
    (``WARM_RESTARTS`` of them untraced; one is enough traced)."""
    store = runner.store_dir()
    try:
        rep = {}
        if trace:
            plain_store = runner.store_dir()
            try:
                rep["plain"] = runner.child("store_cold", store=plain_store)
            finally:
                shutil.rmtree(plain_store)
        cold = runner.child("store_cold", trace=trace, store=store)
        rep["cold"] = cold
        rep["warm"] = [runner.child("store_warm", trace=trace, store=store,
                                    cold=cold)
                       for _ in range(1 if trace else WARM_RESTARTS)]
        return rep
    finally:
        shutil.rmtree(store)


def repetitions(runner: Runner, workload: str, trace: bool) -> list[dict]:
    if workload == "store_sweep":
        return runner.repeat(lambda index: _store_rep(runner, trace),
                             at_least=1 if trace else MIN_COLD_SWEEPS)
    phase = workload

    def rep(index: int) -> dict:
        if trace:
            return {"plain": runner.child(phase),
                    "main": runner.child(phase, trace=True)}
        return {"main": runner.child(
            phase, quality=phase == "scale_verify" and index == 0)}

    return runner.repeat(rep)


def _children(reps: list[dict]) -> list[dict]:
    out = []
    for rep in reps:
        for value in rep.values():
            out.extend(value if isinstance(value, list) else [value])
    return out


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _quantile(samples: list[float], share: float) -> float:
    """Harrell-Davis estimate of the ``share`` quantile: the mean of the
    order statistics weighted by a Beta((n+1)share, (n+1)(1-share))
    distribution over their ranks.  The 52 per-design times are unevenly
    spaced (neighbours near p80 lie 15-20% apart), so the nearest rank
    jumps whenever two designs trade places; this estimate does not."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = share * (n + 1), (1.0 - share) * (n + 1)
    cdf = [betainc(a, b, rank / n) for rank in range(n + 1)]
    return sum((cdf[rank + 1] - cdf[rank]) * value
               for rank, value in enumerate(ordered))


def end_to_end(workload: str, reps: list[dict], children: list[dict],
               units: dict[str, str], lines: list[str]) -> dict:
    timed = [rep["cold" if workload == "store_sweep" else "main"]
             for rep in reps]
    setups = [s for child in children for s in child["setup_s"]]
    wall = statistics.median(child["wall_s"] for child in timed)
    if workload == "store_sweep":
        warm_walls = [w["wall_s"] for rep in reps for w in rep["warm"]]
        warm = statistics.median(warm_walls)
        warm_note = f"median of {len(warm_walls)} fresh-process restarts"
    else:
        warm = wall
        warm_note = "no store: a restart recomputes, so = wall_s"
    per_design: dict[str, list[float]] = {}
    for child in timed:
        for label, seconds in child["job_seconds"].items():
            per_design.setdefault(label, []).append(seconds)
    if workload == "scale_verify":
        samples = [child["wall_s"] for child in timed]
        sample_note = f"{len(samples)} verdicts of 1 design"
    else:
        samples = [statistics.median(v) for v in per_design.values()]
        sample_note = (f"{len(samples)} designs, per-design median of "
                       f"{len(timed)} repetitions")
    beyond = len(samples) - math.ceil(0.8 * len(samples))
    attempted = sum(child["attempted"] for child in children)
    failed = sum(len(child["failures"]) for child in children)
    checked = sum(child["checked"] for child in children)
    cosim = sum(child["cosim_checked"] for child in children)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "warm_restart_s": warm,
        "design_p50_s": _quantile(samples, 0.5),
        "design_p80_s": _quantile(samples, 0.8),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
        "ok_share": 1.0 - failed / attempted,
        "verified_share": sum(c["verified"] for c in children) / checked,
        "cosim_match_share":
            sum(c["cosim_matched"] for c in children) / cosim,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(timed)} repetitions",
        "warm_restart_s": warm_note,
        "design_p50_s": sample_note,
        "design_p80_s": f"{sample_note}; {beyond} samples beyond p80",
        "peak_rss_mb": "process(es) running the timed phase",
        "ok_share": f"fail_share {failed}/{attempted}",
        "verified_share": f"{checked} composition verdicts",
        "cosim_match_share": f"{cosim} co-simulations vs "
                             f"repro.graph.execute",
    }
    for name, note in notes.items():
        lines.append(f"  {name:<18} {values[name]:>14.6f} "
                     f"{units[name]:<6} ({note})")
    lines.append("  wall_s per repetition: "
                 + ", ".join(f"{c['wall_s']:.3f}" for c in timed)
                 + " reference s; raw "
                 + ", ".join(f"{c['raw_wall_s']:.3f}" for c in timed)
                 + " s at host speed "
                 + ", ".join(f"{c['host_speed']:.3f}" for c in timed))
    if workload == "store_sweep":
        lines.append("  shard seconds per cold sweep: " + ", ".join(
            "/".join(f"{s:.2f}" for s in c["store"]["shard_s"])
            for c in timed))
    return values


def per_layer(workload: str, reps: list[dict], units: dict[str, str],
              lines: list[str]) -> dict:
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for rep in reps:
        traced = [rep["cold"]] + rep["warm"] \
            if workload == "store_sweep" else [rep["main"]]
        summed: dict[str, float] = {}
        for child in traced:
            for name, value in child["layers"].items():
                summed[name] = summed.get(name, 0.0) + value
        for name, value in summed.items():
            add(name, value)
        plain = rep["plain"]
        add("obs.overhead_ratio", traced[0]["wall_s"] / plain["wall_s"])
        if workload == "store_sweep":
            cold, warm = rep["cold"], rep["warm"][0]
            add("store.records_written",
                cold["counts"]["store.records_written"])
            add("store.bytes_written", cold["store"]["bytes_written"])
            add("store.quarantined", warm["store"]["quarantined"])
            add("store.l2_hit_rate", warm["store"]["l2_hits"]
                / max(1, warm["store"]["l2_lookups"]))
            shard = cold["store"]
            add("shard.map_s", shard["map_s"])
            add("shard.reduce_s", shard["reduce_s"])
            add("shard.payload_bytes", shard["payload_bytes"])
            add("shard.balance", sum(shard["shard_s"])
                / (shard["workers"] * shard["map_s"]))
    values = {name: statistics.median(samples[name])
              if name in samples else 0.0 for name in units}
    median = {name: statistics.median(v) for name, v in samples.items()}
    lines.append(f"  {'layer':<12} {'busy s':>10}   {'stage':<14} "
                 f"{'stage self s':>12}")
    for layer, stage in LAYER_STAGE:
        busy = median.get(f"{layer}.busy_s", 0.0)
        if layer == "flow":
            busy = values["flow.overhead_s"]
        elif layer == "fingerprint":
            busy = values["flow.fingerprint_s"]
        elif layer == "store":
            busy = values["store.get_s"] + values["store.put_s"]
        stage_self = f"{values[f'stage.{stage}.self_s']:>12.4f}" \
            if stage else ""
        lines.append(f"  {layer:<12} {busy:>10.4f}   {stage or '':<14} "
                     f"{stage_self}")
    root, charged = median["trace.root_s"], median["trace.charged_s"]
    lines.append(f"  traced root spans {root:.4f} s; self time charged to "
                 f"layers (flow overhead included) {charged:.4f} s "
                 f"[{median['trace.spans']:.0f} spans; parallel shards "
                 f"charge more than the wall]")
    for name, unit in units.items():
        lines.append(f"  {name:<26} {values[name]:>16.6f} {unit}")
    return values


# ----------------------------------------------------------------------
# exact counts: identical within the run and across runs of one tree
# ----------------------------------------------------------------------
def _tree_key(args: argparse.Namespace) -> str:
    digest = hashlib.sha256(
        f"{args.workload}:{args.suite_seed}:{args.scale_size}".encode())
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:24]


def exact_counts(args: argparse.Namespace, children: list[dict],
                 lines: list[str]) -> tuple[dict, list[str]]:
    seen: dict[str, set] = {}
    for child in children:
        for name, value in child["counts"].items():
            seen.setdefault(name, set()).add(value)
    errors = [f"{name} differs between repetitions: {sorted(values)}"
              for name, values in sorted(seen.items()) if len(values) > 1]
    counts = {name: min(values) for name, values in seen.items()}
    record = WORK / "counts" / f"{_tree_key(args)}.json"
    if record.is_file():
        previous = json.loads(record.read_text(encoding="utf-8"))
        errors += [f"{name} = {counts[name]} but an earlier run of this "
                   f"source tree gave {previous[name]}"
                   for name in sorted(set(previous) & set(counts))
                   if previous[name] != counts[name]]
        merged = {**counts, **previous}
    else:
        merged = counts
    record.parent.mkdir(parents=True, exist_ok=True)
    scratch = record.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
    os.replace(scratch, record)
    status = "; ".join(errors) if errors else \
        f"identical across {len(children)} children and earlier runs"
    lines.append(f"  exact counts: "
                 + ", ".join(f"{name}={counts[name]}"
                             for name in EXACT_COUNTS if name in counts))
    lines.append(f"  determinism: {status}")
    return counts, errors


# ----------------------------------------------------------------------
def measure(args: argparse.Namespace) -> dict:
    trace = bool(args.trace)
    WORK.mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(args, rundir)
        reps = repetitions(runner, args.workload, trace)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    children = _children(reps)
    lines = [f"perfbench {args.workload}: seed {args.seed}, "
             f"{len(reps)} repetition(s) in {len(children)} processes, "
             f"trace {int(trace)}"]
    counts, errors = exact_counts(args, children, lines)
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        values = per_layer(args.workload, reps, units, lines)
    else:
        values = end_to_end(args.workload, reps, children, units, lines)
        for name, unit in units.items():
            if name in EXACT_COUNTS:
                values[name] = counts[name]
                lines.append(f"  {name:<18} {values[name]:>14} {unit}")
    failures = [f for child in children for f in child["failures"]]
    for failure in failures[:20]:
        lines.append(f"  FAILED {failure}")
    for error in errors:
        lines.append(f"  ERROR {error}")
    print("\n".join(lines), flush=True)
    return {
        "correct": not failures and not errors,
        "attempted": sum(child["attempted"] for child in children),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite52", "scale_verify", "store_sweep"))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the stimuli of every design")
    parser.add_argument("--seconds", type=float, required=True,
                        help="make repetitions while the next one is "
                             "expected to end within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-seed", type=int, default=29,
                        help="seed of workload_suite (default %(default)s)")
    parser.add_argument("--scale-size", type=int, default=200,
                        help="node count of the scale design "
                             "(default %(default)s)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
