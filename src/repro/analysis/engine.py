"""The repro-lint engine: parse, index, run rules, filter, summarize.

Two passes over the analyzed tree:

1. **index** -- every file is parsed once and fed to the
   :class:`~repro.analysis.project.ProjectIndex` (cross-file class
   facts);
2. **rules** -- every registered rule runs over every
   :class:`ModuleContext`; raw findings are then filtered through
   inline suppressions, which must carry reasons.  A suppression that
   silenced nothing is reported as ``LNT005``, once every rule it
   names has run.

The result is deterministic: files are visited in sorted path order,
rules in ID order, findings sorted by location.  ``lint_sources`` runs
the same engine over in-memory code, which is what the per-rule
fixture tests use.
"""

from __future__ import annotations

import ast
import io
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .findings import Finding, Suppression, parse_suppressions
from .project import ProjectIndex
from .registry import Rule, all_rules, rules_for

__all__ = ["ModuleContext", "LintResult", "lint_paths", "lint_sources"]


class ModuleContext:
    """Everything the rules may ask about one parsed module."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._symbols: dict[ast.AST, str] | None = None
        self._module_imports: dict[str, str] | None = None

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)

    def enclosing_symbol(self, node: ast.AST) -> str:
        """Dotted class/function qualname enclosing ``node`` ("" at top)."""
        if self._symbols is None:
            self._symbols = {}
            self._label_scopes(self.tree, ())
        current: ast.AST | None = node
        while current is not None:
            label = self._symbols.get(current)
            if label is not None:
                return label
            current = self.parent(current)
        return ""

    def _label_scopes(self, node: ast.AST, stack: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                scoped = stack + (child.name,)
                assert self._symbols is not None
                self._symbols[child] = ".".join(scoped)
                self._label_scopes(child, scoped)
            else:
                self._label_scopes(child, stack)

    # ------------------------------------------------------------------
    def module_imports(self) -> Mapping[str, str]:
        """Local name -> imported module/origin, for DET call matching.

        ``import time`` yields ``{"time": "time"}``; ``from time import
        perf_counter`` yields ``{"perf_counter": "time.perf_counter"}``;
        aliases follow the local name.
        """
        if self._module_imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        table[alias.asname or alias.name.split(".")[0]] = \
                            alias.name
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        table[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"
            self._module_imports = table
        return self._module_imports

    # ------------------------------------------------------------------
    def comments(self) -> dict[int, tuple[str, bool]]:
        """Line -> (comment text, has_code_before) via the tokenizer."""
        out: dict[int, tuple[str, bool]] = {}
        code_lines: set[int] = set()
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(self.source).readline))
        except tokenize.TokenError:  # pragma: no cover - parse succeeded
            return out
        for token in tokens:
            if token.type == tokenize.COMMENT:
                out[token.start[0]] = (token.string,
                                       token.start[0] in code_lines)
            elif token.type not in (tokenize.NL, tokenize.NEWLINE,
                                    tokenize.INDENT, tokenize.DEDENT,
                                    tokenize.ENCODING, tokenize.ENDMARKER):
                for line in range(token.start[0], token.end[0] + 1):
                    code_lines.add(line)
        return out

    def finding(self, node: ast.AST, rule: str, message: str,
                hint: str = "") -> Finding:
        return Finding(path=self.path, line=getattr(node, "lineno", 0),
                       column=getattr(node, "col_offset", 0), rule=rule,
                       message=message, hint=hint,
                       symbol=self.enclosing_symbol(node))


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings silenced by an inline suppression (kept for reporting).
    suppressed: list[tuple[Finding, Suppression]] = field(
        default_factory=list)
    files: int = 0
    seconds: float = 0.0
    rules_run: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            family = "".join(c for c in finding.rule if c.isalpha())
            counts[family] = counts.get(family, 0) + 1
        return dict(sorted(counts.items()))


def _python_files(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # sorted + deduplicated: deterministic visit order
    return sorted(set(files))


def lint_paths(paths: Sequence[str],
               rules: Iterable[str] | None = None) -> LintResult:
    """Lint every ``*.py`` under ``paths`` (files or directories)."""
    sources: dict[str, str] = {}
    for file in _python_files(paths):
        sources[str(file)] = file.read_text(encoding="utf-8")
    return lint_sources(sources, rules=rules)


def lint_sources(sources: Mapping[str, str],
                 rules: Iterable[str] | None = None) -> LintResult:
    """Lint in-memory ``{path: source}`` modules (the testable core)."""
    started = time.perf_counter()
    selected: list[Rule] = rules_for(rules)
    result = LintResult(rules_run=len(selected))

    modules: list[ModuleContext] = []
    index = ProjectIndex()
    raw: list[Finding] = []
    for path in sorted(sources):
        try:
            module = ModuleContext(path, sources[path])
        except SyntaxError as exc:
            raw.append(Finding(
                path=path, line=exc.lineno or 0, column=exc.offset or 0,
                rule="LNT003", message=f"file does not parse: {exc.msg}",
                hint="repro-lint needs syntactically valid modules"))
            continue
        index.add_module(path, module.tree)
        modules.append(module)
    raw.extend(index.problems)

    suppressions: dict[str, list[Suppression]] = {}
    for module in modules:
        module_suppressions, problems = parse_suppressions(
            module.comments(), module.path)
        suppressions[module.path] = module_suppressions
        raw.extend(problems)
        for selected_rule in selected:
            raw.extend(selected_rule.body(module, index))

    kept: list[Finding] = []
    live: set[Suppression] = set()
    for finding in sorted(set(raw)):
        covering = next(
            (s for s in suppressions.get(finding.path, ())
             if s.covers(finding)), None)
        if covering is not None:
            result.suppressed.append((finding, covering))
            live.add(covering)
        else:
            kept.append(finding)
    deselected = {r.id for r in all_rules()} - {r.id for r in selected}
    for path, module_suppressions in suppressions.items():
        kept.extend(_stale(path, suppression)
                    for suppression in module_suppressions
                    if suppression not in live
                    and deselected.isdisjoint(suppression.rules))

    result.findings = sorted(set(kept))
    result.files = len(modules)
    result.seconds = time.perf_counter() - started
    return result


def _stale(path: str, suppression: Suppression) -> Finding:
    """``LNT005``: a suppression whose rules all ran and found nothing."""
    return Finding(
        path=path, line=suppression.comment_line, column=0, rule="LNT005",
        message=f"suppression for {', '.join(suppression.rules)} silenced "
                f"no finding on line {suppression.line} -- it is stale",
        hint="delete it, or move it onto (or into the comment block "
             "right above) the flagged line")
