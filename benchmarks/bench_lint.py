"""repro-lint over the repository: gate + runtime + rule census.

Writes ``BENCH_lint.json`` at the repo root:

- the repository must lint **clean** (every surviving finding
  suppressed inline with a written reason, and no suppression stale:
  ``LNT005``);
- a seeded violation fixture must trip every rule family (the linter
  has teeth -- an engine regression that stops finding anything would
  otherwise look like a perfectly clean tree);
- rule/family census, suppression count and reasons, and wall-clock.

CI runs this as a smoke (``--no-write``) next to the shard bit-identity
smokes: the lint gate is the first line of defense for the determinism
contract those benchmarks re-prove dynamically.
"""

import argparse
import json
import sys
import textwrap
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import all_rules, lint_sources

RESULTS_PATH = REPO_ROOT / "BENCH_lint.json"

EXPECTED_FAMILIES = ("DET", "FRZ", "OBS", "PKL", "PUR")

#: One offense per family: the linter must catch all of them.
VIOLATION_FIXTURE = textwrap.dedent("""
    import time
    from dataclasses import dataclass
    from repro.obs import span as obs_span

    def fingerprint(x):
        with obs_span("hash", kind="stage"):
            return (time.time(), [i for i in set(x)])

    @dataclass
    class JobPayload:
        handle: object

    def _stage_x(ctx):
        ctx.put("out", ctx.get("hidden"))
        return {}

    STAGES = [Stage("x", ("graph",), ("out",), _stage_x)]

    def clobber(a: Automaton):
        a.initial = "s0"
    """)


def measure():
    # repo-relative paths regardless of cwd
    sources = {
        str(file.relative_to(REPO_ROOT)): file.read_text(encoding="utf-8")
        for file in sorted((REPO_ROOT / "src").rglob("*.py"))}
    started = time.perf_counter()
    result = lint_sources(sources)
    elapsed = time.perf_counter() - started

    fixture = lint_sources({"fixture.py": VIOLATION_FIXTURE})
    return {
        "repo": {
            "clean": result.clean,
            "files": result.files,
            "rules_run": result.rules_run,
            "seconds": round(elapsed, 3),
            "findings": len(result.findings),
            "rule_counts": result.rule_counts(),
            "suppressed": len(result.suppressed),
            "suppression_reasons": sorted(
                suppression.reason
                for _finding, suppression in result.suppressed),
        },
        "registry": {
            "rules": [rule.id for rule in all_rules()],
            "families": sorted({rule.family for rule in all_rules()}),
        },
        "violation_fixture": {
            "findings": len(fixture.findings),
            "family_counts": fixture.family_counts(),
        },
    }


def check(payload):
    repo = payload["repo"]
    assert repo["clean"], \
        f"repository must lint clean, got {repo['findings']} finding(s)"
    assert repo["files"] > 100, "the whole src tree must be analyzed"
    assert repo["rules_run"] >= 13
    for family in EXPECTED_FAMILIES:
        assert family in payload["registry"]["families"], \
            f"rule family {family} is not registered"
    assert all(reason for reason in repo["suppression_reasons"]), \
        "every inline suppression must carry a reason"
    fixture = payload["violation_fixture"]
    missing = [family for family in EXPECTED_FAMILIES
               if fixture["family_counts"].get(family, 0) == 0]
    assert not missing, \
        f"violation fixture not caught by famil{'y' if len(missing) == 1 else 'ies'} {missing}"


def report(payload):
    repo = payload["repo"]
    fixture = payload["violation_fixture"]
    lines = [
        "repro-lint gate:",
        f"  {repo['files']} files, {repo['rules_run']} rules, "
        f"{repo['seconds']:.2f}s",
        f"  findings: {repo['findings']} (clean={repo['clean']}), "
        f"suppressed: {repo['suppressed']}",
        f"  violation fixture: {fixture['findings']} finding(s) across "
        f"{fixture['family_counts']}",
    ]
    return "\n".join(lines)


def test_lint_gate(benchmark, run_once):
    payload = run_once(benchmark, measure)
    check(payload)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + report(payload))
    print(f"  results -> {RESULTS_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro-lint repository gate and census")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_lint.json (CI smoke runs)")
    args = parser.parse_args(argv)
    payload = measure()
    check(payload)
    if not args.no_write:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    if not args.no_write:
        print(f"  results -> {RESULTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
