"""Tests for repro-lint (:mod:`repro.analysis`).

Each rule gets a fixture pair: an offending snippet that must produce
the finding and a corrected snippet that must come back clean.  On top
of the per-rule pairs: inline suppressions (the mandatory reason,
LNT001, and stale suppressions, LNT005), engine determinism, and the
meta-test that the linter gate passes on this repository itself.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_sources, render_json, rules_for

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(source, rules=None, path="mod.py"):
    sources = {path: textwrap.dedent(source)}
    return lint_sources(sources, rules=rules), sources


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------- DET
class TestDetRules:
    def test_det101_flags_set_iteration(self):
        result, _ = run("""
            def labels(xs):
                out = []
                for x in set(xs):
                    out.append(x)
                return out
            """)
        assert rule_ids(result) == ["DET101"]

    def test_det101_clean_when_sorted(self):
        result, _ = run("""
            def labels(xs):
                return [x for x in sorted(set(xs))]
            """)
        assert result.clean

    def test_det101_exempts_order_insensitive_consumers(self):
        result, _ = run("""
            def total(xs):
                return sum(x * 2 for x in set(xs))

            def uniq(xs):
                return {x * 2 for x in set(xs)}
            """)
        assert result.clean

    def test_det101_flags_set_algebra(self):
        result, _ = run("""
            def merge(a, b):
                return [x for x in set(a) | set(b)]
            """)
        assert rule_ids(result) == ["DET101"]

    def test_det102_flags_clock_in_fingerprint(self):
        result, _ = run("""
            import time

            def fingerprint(x):
                return (x, time.time())
            """)
        assert rule_ids(result) == ["DET102"]

    def test_det102_follows_same_module_calls(self):
        result, _ = run("""
            import uuid

            def _salt():
                return uuid.uuid4()

            def fingerprint(x):
                return (x, _salt())
            """)
        assert rule_ids(result) == ["DET102"]
        assert result.findings[0].symbol == "_salt"

    def test_det102_covers_stage_bodies(self):
        result, _ = run("""
            def _stage_x(ctx):
                return {"out": id(ctx.get("graph"))}

            STAGES = [Stage("x", ("graph",), ("out",), _stage_x)]
            """)
        assert "DET102" in rule_ids(result)

    def test_det102_exempts_seeded_random(self):
        result, _ = run("""
            import random

            def fingerprint(x):
                rng = random.Random(f"key:{x}")
                return rng.random()
            """)
        assert result.clean

    def test_det102_flags_unseeded_random(self):
        result, _ = run("""
            import random

            def fingerprint(x):
                rng = random.Random()
                return rng.random()
            """)
        assert rule_ids(result) == ["DET102"]

    def test_det102_ignores_unreachable_functions(self):
        result, _ = run("""
            import time

            def stopwatch():
                return time.perf_counter()
            """)
        assert result.clean

    def test_det103_flags_set_pop(self):
        result, _ = run("""
            def drain(xs):
                return set(xs).pop()
            """)
        assert rule_ids(result) == ["DET103"]

    def test_det103_clean_for_list_pop(self):
        result, _ = run("""
            def drain(xs):
                return sorted(set(xs)).pop()
            """)
        assert result.clean


# ----------------------------------------------------------------- PKL
class TestPklRules:
    @pytest.mark.parametrize("name", ["JobPayload", "FlowJob"])
    def test_pkl201_flags_unsafe_field(self, name):
        result, _ = run(f"""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class {name}:
                handle: object
            """)
        assert rule_ids(result) == ["PKL201"]

    def test_pkl201_flags_dotted_and_quoted_types(self):
        result, _ = run("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class JobPayload:
                lock: "threading.Lock"
                pool: futures.Executor
            """)
        assert rule_ids(result) == ["PKL201", "PKL201"]

    def test_pkl201_clean_for_allowlisted_types(self):
        result, _ = run("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class JobPayload:
                name: str
                sizes: tuple
                graph: TaskGraph
                spec: "WorkloadSpec | None"
                job: FlowJob
            """)
        assert result.clean

    def test_pkl201_obligation_is_inherited(self):
        result, _ = run("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class WorkloadSpec:
                seed: int

            @dataclass(frozen=True)
            class CustomSpec(WorkloadSpec):
                callback: object
            """)
        assert rule_ids(result) == ["PKL201"]
        assert result.findings[0].symbol == "CustomSpec"

    def test_pkl202_requires_frozen_dataclass(self):
        result, _ = run("""
            from dataclasses import dataclass

            @dataclass
            class JobSummary:
                name: str
            """)
        assert rule_ids(result) == ["PKL202"]

    def test_pkl202_clean_when_frozen(self):
        result, _ = run("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class JobSummary:
                name: str
            """)
        assert result.clean


# ----------------------------------------------------------------- FRZ
class TestFrzRules:
    def test_frz301_flags_setattr_outside_constructor(self):
        result, _ = run("""
            def clobber(x):
                object.__setattr__(x, "field", 1)
            """)
        assert rule_ids(result) == ["FRZ301"]

    def test_frz301_allows_post_init(self):
        result, _ = run("""
            class Point:
                def __post_init__(self):
                    object.__setattr__(self, "norm", 5)
            """)
        assert result.clean

    def test_frz302_flags_kernel_self_mutation(self):
        result, _ = run("""
            class Automaton:
                def poke(self):
                    self.states = ()
            """)
        assert rule_ids(result) == ["FRZ302"]

    def test_frz302_allows_constructor_builder_and_memo(self):
        result, _ = run("""
            class Stg:
                def __init__(self):
                    self.states = {}
                    self._automaton_cache = None

                def add_state(self, name):
                    self.states[name] = name
                    self._version = 1

                def to_automaton(self):
                    self._automaton_cache = object()
                    return self._automaton_cache
            """)
        assert result.clean

    def test_frz303_flags_external_kernel_write(self):
        result, _ = run("""
            def clobber(a: Automaton):
                a.initial = "s0"
            """)
        assert rule_ids(result) == ["FRZ303"]

    def test_frz303_builder_views_allow_public_writes_only(self):
        result, _ = run("""
            def shape(s: Stg):
                s.initial = "s0"
                s._automaton_cache = None
            """)
        assert rule_ids(result) == ["FRZ303"]
        assert "_automaton_cache" in result.findings[0].message

    def test_frz303_flags_frozen_dataclass_write(self):
        result, _ = run("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Config:
                depth: int

            def bump():
                config = Config(1)
                config.depth = 2
            """)
        assert rule_ids(result) == ["FRZ303"]

    def test_frz303_clean_for_untracked_classes(self):
        result, _ = run("""
            def shape(box):
                box.value = 1
            """)
        assert result.clean


# ----------------------------------------------------------------- PUR
STAGE_PRELUDE = """
    def _stage_x(ctx):
        {body}
    STAGES = [Stage("x", ("graph", "arch"), ("out",), _stage_x)]
    """


def run_stage(body):
    return run(STAGE_PRELUDE.format(body=body))


class TestPurRules:
    def test_pur401_flags_undeclared_read(self):
        result, _ = run_stage(
            'return {"out": ctx.get("hidden")}')
        assert rule_ids(result) == ["PUR401"]

    def test_pur401_clean_for_declared_reads(self):
        result, _ = run_stage(
            'return {"out": (ctx.get("graph"), ctx.get("arch"))}')
        assert result.clean

    def test_pur402_flags_direct_context_write(self):
        result, _ = run_stage(
            'ctx.put("out", 1)\n'
            '        return {"out": 1}')
        assert rule_ids(result) == ["PUR402"]

    def test_pur403_flags_dynamic_key(self):
        result, _ = run_stage(
            'key = "graph"\n'
            '        return {"out": ctx.get(key)}')
        assert rule_ids(result) == ["PUR403"]

    def test_pur404_flags_missing_output(self):
        result, _ = run_stage(
            'return {"other": ctx.get("graph")}')
        assert rule_ids(result) == ["PUR404"]

    def test_pur404_skips_unpacked_returns(self):
        result, _ = run_stage(
            'extra = {}\n'
            '        return {**extra}')
        assert result.clean

    def test_pur405_flags_module_level_io(self):
        result, _ = run("""
            print("importing")
            """)
        assert rule_ids(result) == ["PUR405"]

    def test_pur405_allows_main_guard_and_functions(self):
        result, _ = run("""
            def report():
                print("fine")

            if __name__ == "__main__":
                print("also fine")
            """)
        assert result.clean


# ------------------------------------------- sanctioned-I/O carve-out
class TestSanctionedIoCarveOut:
    """The ``repro/store/`` carve-out is scoped to exactly that path.

    One I/O-and-clock-bearing source is linted under several paths: it
    must come back clean under ``repro/store/`` (PUR405 and DET102 are
    the store's sanctioned mechanism) and fully flagged anywhere else --
    including a module merely *named* store outside the package.  The
    order-determinism rules must keep applying inside the store.
    """

    IO_SOURCE = """
        import time

        handle = open("index.json")

        def fingerprint(key):
            return str(time.time()) + key
        """

    def test_store_path_is_sanctioned(self):
        result, _ = run(self.IO_SOURCE, path="src/repro/store/disk.py")
        assert result.clean

    def test_flow_path_keeps_full_rules(self):
        result, _ = run(self.IO_SOURCE, path="src/repro/flow/pipeline.py")
        assert set(rule_ids(result)) == {"PUR405", "DET102"}

    def test_store_named_module_outside_package_not_sanctioned(self):
        result, _ = run(self.IO_SOURCE, path="src/repro/analysis/store.py")
        assert set(rule_ids(result)) == {"PUR405", "DET102"}

    def test_order_rules_still_apply_inside_store(self):
        result, _ = run("""
            def eviction_order(keys):
                return [k for k in set(keys)]
            """, path="src/repro/store/disk.py")
        assert rule_ids(result) == ["DET101"]


# ---------------------------------------------------------- suppressions
class TestSuppressions:
    OFFENDING = """
        def labels(xs):
            return [x for x in set(xs)]{trailer}
        """

    def test_trailing_suppression_with_reason(self):
        result, _ = run(self.OFFENDING.format(
            trailer="  # repro-lint: ignore[DET101] -- order folds into"
                    " a set downstream"))
        assert result.clean
        assert len(result.suppressed) == 1
        finding, suppression = result.suppressed[0]
        assert finding.rule == "DET101"
        assert "folds" in suppression.reason

    def test_reasonless_suppression_is_rejected(self):
        result, _ = run(self.OFFENDING.format(
            trailer="  # repro-lint: ignore[DET101]"))
        assert sorted(rule_ids(result)) == ["DET101", "LNT001"]

    def test_comment_block_suppression_binds_past_continuations(self):
        result, _ = run("""
            def labels(xs):
                # repro-lint: ignore[DET101] -- the order is rebuilt by
                # the caller, so it cannot escape
                return [x for x in set(xs)]
            """)
        assert result.clean
        assert len(result.suppressed) == 1
        _finding, suppression = result.suppressed[0]
        assert suppression.reason == \
            "the order is rebuilt by the caller, so it cannot escape"

    def test_stacked_block_suppressions_keep_their_own_reasons(self):
        result, _ = run("""
            def fingerprint(xs):
                # repro-lint: ignore[DET101] -- order folds into a
                # sorted tuple downstream
                # repro-lint: ignore[DET102] -- ids stay in this process
                return [id(x) for x in set(xs)]
            """)
        assert result.clean
        reasons = {finding.rule: suppression.reason
                   for finding, suppression in result.suppressed}
        assert reasons == {
            "DET101": "order folds into a sorted tuple downstream",
            "DET102": "ids stay in this process"}

    def test_suppression_only_covers_named_rules(self):
        result, _ = run("""
            def fingerprint(xs):
                return [id(x) for x in set(xs)]  # repro-lint: ignore[DET101] -- order ok
            """)
        assert rule_ids(result) == ["DET102"]
        assert len(result.suppressed) == 1


class TestStaleSuppression:
    def test_stale_suppression_fails_the_gate(self):
        result, _ = run("""
            def labels(xs):
                return [x for x in sorted(xs)]  # repro-lint: ignore[DET101] -- was a set once
            """)
        assert rule_ids(result) == ["LNT005"]
        assert result.findings[0].line == 3
        assert not result.suppressed

    def test_misplaced_block_suppression_is_stale(self):
        # a blank line ends the comment block: the suppression binds to
        # the blank line, silences nothing and the finding stays
        result, _ = run("""
            def labels(xs):
                # repro-lint: ignore[DET101] -- order cannot escape

                return [x for x in set(xs)]
            """)
        assert sorted(rule_ids(result)) == ["DET101", "LNT005"]

    def test_suppression_naming_an_unselected_rule_is_not_judged(self):
        source = """
            def labels(xs):
                return [x for x in sorted(xs)]  # repro-lint: ignore[DET101,PKL201] -- was a set once
            """
        for rules in (["PKL"], ["DET"]):
            result, _ = run(source, rules=rules)
            assert result.clean, rules
        everything, _ = run(source)
        assert rule_ids(everything) == ["LNT005"]

    def test_multi_rule_suppression_covering_one_rule_is_live(self):
        result, _ = run("""
            def labels(xs):
                return [x for x in set(xs)]  # repro-lint: ignore[DET101,DET102] -- order and ids ok
            """)
        assert result.clean
        assert [f.rule for f, _s in result.suppressed] == ["DET101"]


# ------------------------------------------------------------ engine
class TestEngine:
    def test_syntax_error_is_reported_not_raised(self):
        result, _ = run("def broken(:\n")
        assert rule_ids(result) == ["LNT003"]

    def test_duplicate_payload_class_is_reported(self):
        result = lint_sources({
            "a.py": "class JobPayload:\n    pass\n",
            "b.py": "class JobPayload:\n    pass\n"})
        assert "LNT002" in rule_ids(result)

    def test_findings_are_sorted_and_deterministic(self):
        source = """
            def labels(xs):
                victim = set(xs).pop()
                return [x for x in set(xs)]
            """
        first, _ = run(source)
        second, _ = run(source)
        assert first.findings == second.findings
        assert first.findings == sorted(first.findings)

    def test_rule_selection_by_family_and_id(self):
        source = """
            def fingerprint(xs):
                return [id(x) for x in set(xs)]
            """
        det_only, _ = run(source, rules=["DET"])
        assert set(rule_ids(det_only)) == {"DET101", "DET102"}
        one_rule, _ = run(source, rules=["DET102"])
        assert rule_ids(one_rule) == ["DET102"]

    def test_registry_has_all_families(self):
        families = {rule.family for rule in all_rules()}
        assert {"DET", "PKL", "FRZ", "PUR"} <= families
        assert len(all_rules()) >= 13
        assert rules_for(["PKL"]) == [r for r in all_rules()
                                      if r.family == "PKL"]

    def test_json_report_shape(self):
        result, _ = run("def f():\n    return [x for x in set(())]\n")
        report = render_json(result)
        assert report["rule_counts"] == {"DET101": 1}
        assert report["family_counts"] == {"DET": 1}
        assert report["clean"] is False
        json.dumps(report)  # must be serializable


# ---------------------------------------------------------- meta-test
def _linter_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestRepositoryGate:
    def test_repo_is_clean(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src"],
            cwd=REPO_ROOT, env=_linter_env(),
            capture_output=True, text=True)
        assert completed.returncode == 0, completed.stdout
        assert "0 finding(s)" in completed.stdout

    def test_repo_suppressions_are_the_three_sanctioned_ones(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "--json"],
            cwd=REPO_ROOT, env=_linter_env(),
            capture_output=True, text=True)
        report = json.loads(completed.stdout)
        assert report["findings"] == []
        suppressed = {(entry["rule"], entry["path"]): entry["reason"]
                      for entry in report["suppressed"]}
        assert sorted(suppressed) == [
            ("DET102", "src/repro/flow/pipeline.py"),
            ("DET102", "src/repro/partition/base.py"),
            ("FRZ303", "src/repro/automata/bisim.py")]
        assert len(report["suppressed"]) == 3
        assert suppressed[("FRZ303", "src/repro/automata/bisim.py")] == (
            "sanctioned lazy memo: _obs_summary is registered in "
            "KERNEL_MEMO_ATTRIBUTES, derived purely from frozen content "
            "and invisible to equality and fingerprints")
        assert suppressed[("DET102", "src/repro/flow/pipeline.py")] == (
            "identity tokens are process-local by design: they key "
            "same-process cache entries for unfingerprintable values and "
            "never reach a shard payload or cross-process fingerprint")
        assert suppressed[("DET102", "src/repro/partition/base.py")] == (
            "vars(self) enumerates the partitioner's own config "
            "attributes, which are plain values with content-based "
            "reprs; the (key, repr) pairs are sorted before hashing, so "
            "the fingerprint is a pure function of configuration, not of "
            "dict order or process state")

    def test_seeded_violation_fails_the_gate(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            import time

            def fingerprint(x):
                return time.time()
            """))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad), "--json"],
            cwd=REPO_ROOT, env=_linter_env(),
            capture_output=True, text=True)
        assert completed.returncode == 1
        report = json.loads(completed.stdout)
        assert report["rule_counts"] == {"DET102": 1}

    def test_usage_error_exit_code(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "does/not/exist"],
            cwd=REPO_ROOT, env=_linter_env(),
            capture_output=True, text=True)
        assert completed.returncode == 2
