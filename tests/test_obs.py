"""Tests for the repro.obs tracing/counter/report subsystem."""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.analysis import lint_sources
from repro.apps import four_band_equalizer
from repro.flow import BatchRunner, CoolFlow, FlowJob
from repro.obs import (NONDETERMINISTIC_FIELDS, Counter, Span, Tracer,
                       activate, canonical_trace, critical_path,
                       current_tracer, dump_trace, load_trace, record,
                       render_report, slowest_spans, span, stage_breakdown,
                       tracing_active, write_trace)
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.workloads import workload_suite


class TestTracer:
    def test_span_ids_sequential_in_open_order(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.span_id == 1
        assert inner.span_id == 2
        assert [s.span_id for s in tracer.spans()] == [1, 2]

    def test_nesting_sets_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["sibling"].parent_id == by_name["outer"].span_id

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        with tracer.span("detached", parent=root.span_id):
            pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["detached"].parent_id == root.span_id

    def test_attributes_coerced_to_primitives_at_set_time(self):
        tracer = Tracer()
        mutable = [1, 2]
        with tracer.span("s", flag=True, n=3) as handle:
            handle.set("blob", mutable)
            mutable.append(3)  # must not affect the recorded value
        attrs = tracer.spans()[0].attributes
        assert attrs["flag"] is True and attrs["n"] == 3
        assert attrs["blob"] == "[1, 2]"

    def test_record_backdates_start_by_duration(self):
        tracer = Tracer()
        finished = tracer.record("done", kind="job", duration=1.5, ok=True)
        assert finished.duration == 1.5
        assert finished.attributes == {"ok": True}
        # start + duration lands at (roughly) the record() call time
        now = time.perf_counter() - tracer.epoch
        assert abs((finished.start + finished.duration) - now) < 0.5

    def test_record_parents_under_open_span(self):
        tracer = Tracer()
        with tracer.span("sweep") as sweep:
            tracer.record("job", duration=0.1)
        jobs = [s for s in tracer.spans() if s.name == "job"]
        assert jobs[0].parent_id == sweep.span_id

    def test_spans_durations_are_positive(self):
        tracer = Tracer()
        with tracer.span("timed"):
            time.sleep(0.01)
        recorded = tracer.spans()[0]
        assert recorded.duration >= 0.01
        assert recorded.pid == os.getpid()

    def test_per_thread_parent_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("thread-root") as handle:
                seen["parent"] = handle._parent

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # the other thread's stack is empty: its span is a root, not a
        # child of whatever the main thread had open
        assert seen["parent"] is None


class TestActivation:
    def test_no_active_tracer_by_default(self):
        assert current_tracer() is None
        assert not tracing_active()

    def test_module_span_is_noop_without_tracer(self):
        handle = span("ignored", kind="stage")
        with handle as h:
            h.set("key", "value")  # must not raise
        assert record("ignored") is None

    def test_untraced_span_records_nothing_but_times_its_block(self):
        tracer = Tracer()
        with activate(tracer):
            with activate(None):
                with span("timed", kind="stage") as handle:
                    time.sleep(0.001)
        assert len(tracer) == 0
        assert handle.duration >= 0.001

    def test_traced_handle_duration_is_the_recorded_duration(self):
        tracer = Tracer()
        with activate(tracer):
            with span("timed", kind="stage") as handle:
                pass
        assert handle.duration == tracer.spans()[0].duration

    def test_activate_scopes_the_tracer(self):
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
            assert tracing_active()
            with span("visible", kind="stage"):
                pass
        assert current_tracer() is None
        assert [s.name for s in tracer.spans()] == ["visible"]

    def test_activate_none_disables_tracing_inside_block(self):
        tracer = Tracer()
        with activate(tracer):
            with activate(None):
                assert not tracing_active()
                with span("invisible"):
                    pass
            assert current_tracer() is tracer
        assert len(tracer) == 0

    def test_activation_restored_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with activate(tracer):
                raise RuntimeError("boom")
        assert current_tracer() is None


class TestMetrics:
    def test_counter_accumulates(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_counter_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)


class TestOneClock:
    """Stage and job seconds are the durations of their spans, exactly."""

    def _traced_run(self, flow, graph):
        """The run's result, and the durations of the ``stage`` spans
        under its ``flow`` span, added up per stage in open order (the
        order the executor adds them in)."""
        tracer = Tracer()
        with activate(tracer):
            result = flow.run(graph)
        spans = tracer.spans()
        (flow_span,) = [s for s in spans if s.kind == "flow"]
        sums = {}
        for entry in spans:
            if entry.kind == "stage" and entry.parent_id == flow_span.span_id:
                sums[entry.name] = sums.get(entry.name, 0.0) + entry.duration
        return result, sums

    def test_stage_seconds_are_stage_span_totals(self, tmp_path):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                        store_path=tmp_path / "store")
        cold, cold_spans = self._traced_run(flow, graph)
        assert sum(cold.stage_runs.values()) > 0
        assert cold.stage_seconds == cold_spans
        warm, warm_spans = self._traced_run(flow, graph)
        assert sum(warm.stage_runs.values()) == 0
        assert warm.cache_stats["l1"]["hits"] > 0
        assert warm.stage_seconds == warm_spans
        # a fresh flow over the same store: an empty L1, served from disk
        restarted = CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                             store_path=tmp_path / "store")
        store_warm, store_spans = self._traced_run(restarted, graph)
        assert sum(store_warm.stage_runs.values()) == 0
        assert store_warm.cache_stats["l2"]["hits"] > 0
        assert store_warm.stage_seconds == store_spans
        assert set(store_spans) == set(cold_spans)

    @pytest.mark.parametrize("shards", [None, 2])
    def test_job_seconds_are_job_span_durations(self, shards):
        arch = minimal_board()
        jobs = [FlowJob(workload=spec, arch=arch,
                        partitioner=GreedyPartitioner())
                for spec in workload_suite(3, seed=11)]
        runner = BatchRunner(shards=shards, max_workers=shards)
        tracer = Tracer()
        with activate(tracer):
            outcomes = runner.run(jobs)
        job_spans = {s.attributes["job"]: s for s in tracer.spans()
                     if s.kind == "job"}
        assert len(job_spans) == len(jobs)
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.seconds == job_spans[outcome.job.name].duration


class TestAdoption:
    def _worker_rows(self):
        worker = Tracer()
        with worker.span("job", kind="job", job="eq/greedy"):
            with worker.span("stage", kind="stage"):
                pass
        return worker.compact()

    def test_adopt_remaps_ids_and_reparents_roots(self):
        coordinator = Tracer()
        shard = coordinator.record("shard[0]", kind="shard", duration=0.2)
        adopted = coordinator.adopt(self._worker_rows(),
                                    parent_id=shard.span_id,
                                    start_at=shard.start)
        assert adopted == 2
        by_name = {s.name: s for s in coordinator.spans()}
        job, stage = by_name["job"], by_name["stage"]
        assert job.parent_id == shard.span_id
        assert stage.parent_id == job.span_id
        # fresh coordinator-local ids, preserving the worker's open order
        assert shard.span_id < job.span_id < stage.span_id

    def test_adopt_rebases_worker_starts(self):
        coordinator = Tracer()
        rows = self._worker_rows()
        coordinator.adopt(rows, parent_id=None, start_at=10.0)
        starts = sorted(s.start for s in coordinator.spans())
        assert starts[0] == pytest.approx(10.0)
        assert all(start >= 10.0 for start in starts)

    def test_adopt_preserves_worker_pid_and_attributes(self):
        coordinator = Tracer()
        coordinator.adopt(self._worker_rows())
        job = next(s for s in coordinator.spans() if s.name == "job")
        assert job.pid == os.getpid()  # the worker tracer's pid survives
        assert job.attributes == {"job": "eq/greedy"}

    def test_adopt_nothing(self):
        assert Tracer().adopt(()) == 0


class TestExport:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("flow", kind="flow", graph="eq"):
            with tracer.span("partition", kind="stage", cache="miss"):
                pass
        return tracer

    def test_write_load_roundtrip(self, tmp_path):
        tracer = self._trace()
        path = tmp_path / "trace.jsonl"
        assert write_trace(tracer, path) == 2
        loaded = load_trace(path)
        assert [s["name"] for s in loaded] == ["flow", "partition"]
        assert loaded[1]["parent_id"] == loaded[0]["span_id"]
        assert loaded[1]["attributes"] == {"cache": "miss"}

    def test_dump_trace_is_sorted_jsonl(self):
        text = dump_trace(self._trace().spans())
        for line in text.strip().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    def test_canonical_trace_strips_nondeterministic_fields(self):
        canonical = canonical_trace(self._trace().spans())
        for entry in canonical:
            for field in NONDETERMINISTIC_FIELDS:
                assert field not in entry
        assert canonical[0]["name"] == "flow"
        assert canonical[1]["attributes"] == {"cache": "miss"}

    def test_canonical_trace_equal_across_runs(self):
        assert canonical_trace(self._trace().spans()) == \
            canonical_trace(self._trace().spans())


class TestReport:
    def _spans(self):
        return [
            {"span_id": 1, "parent_id": None, "name": "flow",
             "kind": "flow", "start": 0.0, "duration": 1.0, "pid": 1,
             "attributes": {}},
            {"span_id": 2, "parent_id": 1, "name": "partition",
             "kind": "stage", "start": 0.0, "duration": 0.6, "pid": 1,
             "attributes": {"cache": "miss"}},
            {"span_id": 3, "parent_id": 1, "name": "hls",
             "kind": "stage", "start": 0.6, "duration": 0.3, "pid": 1,
             "attributes": {"cache": "hit"}},
            {"span_id": 4, "parent_id": 2, "name": "store.get",
             "kind": "store", "start": 0.0, "duration": 0.1, "pid": 1,
             "attributes": {}},
        ]

    def test_stage_breakdown_totals_and_self_time(self):
        rows = {(r["kind"], r["name"]): r
                for r in stage_breakdown(self._spans())}
        flow = rows[("flow", "flow")]
        assert flow["total"] == pytest.approx(1.0)
        # self = 1.0 - (0.6 + 0.3) direct stage children
        assert flow["self"] == pytest.approx(0.1)
        partition = rows[("stage", "partition")]
        assert partition["self"] == pytest.approx(0.5)  # minus store.get
        assert partition["cache_hits"] == 0
        assert rows[("stage", "hls")]["cache_hits"] == 1
        # store spans aggregate only under breakdown kinds
        assert ("store", "store.get") not in rows

    def test_critical_path_descends_longest_children(self):
        path = [s["name"] for s in critical_path(self._spans())]
        assert path == ["flow", "partition", "store.get"]

    def test_slowest_spans_ranked(self):
        slowest = slowest_spans(self._spans(), top=2)
        assert [s["name"] for s in slowest] == ["flow", "partition"]

    def test_render_report_sections(self):
        text = render_report(self._spans(), top=3)
        assert "4 spans" in text
        assert "per-stage breakdown" in text
        assert "critical path" in text
        assert "slowest spans" in text
        assert "partition" in text

    def test_report_cli_renders_trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("flow", kind="flow"):
            pass
        path = tmp_path / "trace.jsonl"
        write_trace(tracer, path)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.obs", "report", str(path)],
            env=env, capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
        assert "per-stage breakdown" in completed.stdout
        assert "flow" in completed.stdout


class TestTraceDeterminism:
    """Two runs of the same flow yield identical canonical traces.

    The span ids, parent links, names, kinds and attributes of a traced
    deterministic flow are themselves deterministic -- only
    start/duration/pid (scrubbed by canonical_trace) may differ.
    Exercised across *processes with different siphash salts*, the same
    regime the DET rules and the shard bit-identity benchmarks pin.
    """

    SCRIPT = """
import json
from repro.apps import four_band_equalizer
from repro.flow import CoolFlow
from repro.obs import Tracer, activate, canonical_trace
from repro.platform import minimal_board

tracer = Tracer()
with activate(tracer):
    CoolFlow(minimal_board()).run(four_band_equalizer(words=8))
print(json.dumps(canonical_trace(tracer.spans())))
"""

    def _trace_under_hash_seed(self, seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        completed = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                   env=env, capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
        return json.loads(completed.stdout)

    def test_canonical_trace_identical_across_hash_seeds(self):
        first = self._trace_under_hash_seed(0)
        second = self._trace_under_hash_seed(4242)
        assert first == second
        assert len(first) > 5  # flow + stage + store/cache spans
        names = {entry["name"] for entry in first}
        assert "flow" in names


class TestObs501Rule:
    """OBS501: no tracing API inside fingerprint-reachable code."""

    def _findings(self, path, source):
        result = lint_sources({path: textwrap.dedent(source)})
        return [f for f in result.findings if f.rule == "OBS501"]

    def test_span_in_fingerprint_flagged(self):
        findings = self._findings("repro/flow/bad.py", """
            from ..obs import span as obs_span

            def fingerprint(value):
                with obs_span("hash", kind="stage"):
                    return repr(value)
        """)
        assert len(findings) == 1
        assert "obs.span" in findings[0].message

    def test_whole_package_attribute_call_flagged(self):
        findings = self._findings("repro/flow/bad.py", """
            from repro import obs

            def content_hash(value):
                obs.record("hash", duration=0.1)
                return repr(value)
        """)
        assert len(findings) == 1

    def test_stage_run_body_flagged(self):
        findings = self._findings("repro/flow/bad.py", """
            from ..obs import record as obs_record
            from .pipeline import Stage

            def _stage_partition(ctx):
                obs_record("partition", duration=1.0)
                return {"mapping": {}}

            STAGE = Stage("partition", ("graph",), ("mapping",),
                          _stage_partition)
        """)
        assert len(findings) == 1

    def test_metrics_api_is_exempt(self):
        assert self._findings("repro/flow/ok.py", """
            from ..obs import Counter

            def fingerprint(value):
                Counter("calls").inc()
                return repr(value)
        """) == []

    def test_obs_package_itself_is_exempt(self):
        assert self._findings("repro/obs/internal.py", """
            from .span import span

            def fingerprint(value):
                with span("x"):
                    return repr(value)
        """) == []

    def test_tracing_outside_fingerprint_reach_is_fine(self):
        assert self._findings("repro/flow/runner.py", """
            from ..obs import span as obs_span

            def run_sweep(jobs):
                with obs_span("sweep", kind="flow"):
                    return list(jobs)
        """) == []
