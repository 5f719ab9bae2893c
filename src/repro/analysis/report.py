"""Reporters: human-readable text and machine-readable JSON.

Both render the same :class:`~repro.analysis.engine.LintResult`; the
JSON form is what CI uploads as an artifact and what
``benchmarks/bench_lint.py`` summarizes.
"""

from __future__ import annotations

from .engine import LintResult

__all__ = ["render_text", "render_json", "summary_line"]


def summary_line(result: LintResult) -> str:
    families = ", ".join(f"{family}={count}" for family, count
                         in result.family_counts().items()) or "none"
    return (f"repro-lint: {len(result.findings)} finding(s) [{families}] "
            f"in {result.files} file(s); "
            f"{len(result.suppressed)} suppressed "
            f"({result.rules_run} rules, {result.seconds:.2f}s)")


def render_text(result: LintResult, verbose: bool = False) -> str:
    blocks: list[str] = []
    for finding in result.findings:
        blocks.append(finding.render())
    if verbose and result.suppressed:
        blocks.append("suppressed findings:")
        for finding, suppression in result.suppressed:
            blocks.append(f"  {finding.location()}: {finding.rule} "
                          f"(reason: {suppression.reason})")
    blocks.append(summary_line(result))
    return "\n".join(blocks)


def render_json(result: LintResult) -> dict:
    return {
        "findings": [finding.to_json() for finding in result.findings],
        "suppressed": [
            {**finding.to_json(), "reason": suppression.reason}
            for finding, suppression in result.suppressed],
        "rule_counts": result.rule_counts(),
        "family_counts": result.family_counts(),
        "files": result.files,
        "rules_run": result.rules_run,
        "seconds": round(result.seconds, 4),
        "clean": result.clean,
    }
