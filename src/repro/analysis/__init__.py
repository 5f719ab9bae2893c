"""repro-lint: an AST-based invariant linter for this repository.

The analyzer enforces the cross-cutting contracts the test suite can
only probe dynamically: fingerprint determinism (``DET``), shard
payload pickle-safety (``PKL``), frozen/kernel immutability (``FRZ``),
pipeline-stage purity (``PUR``) and observability containment
(``OBS``).  Run it as::

    python -m repro.analysis src/

A finding is silenced only by an inline ``# repro-lint: ignore[RULE]
-- reason`` comment.  Engine-level findings use the ``LNT`` family:
``LNT001`` reason-less suppression, ``LNT002`` ambiguous duplicate
class name, ``LNT003`` unparsable file, ``LNT005`` stale suppression
(``LNT004`` is retired).  See ``docs/INVARIANTS.md`` for the
rule-by-rule rationale.
"""

from .engine import LintResult, ModuleContext, lint_paths, lint_sources
from .findings import Finding, Suppression, parse_suppressions
from .registry import Rule, all_rules, families, rule, rules_for
from .report import render_json, render_text, summary_line

__all__ = [
    "Finding", "LintResult", "ModuleContext", "Rule", "Suppression",
    "all_rules", "families", "lint_paths", "lint_sources",
    "parse_suppressions", "render_json", "render_text", "rule",
    "rules_for", "summary_line",
]
