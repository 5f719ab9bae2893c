"""Finding values and inline suppressions for the invariant linter.

A :class:`Finding` is one rule violation at one source location.  Its
sort order is stable (path, line, column, rule ID, message), so reports
are deterministic -- the linter holds itself to the same DET discipline
it enforces.

Inline suppressions use the form::

    risky_line()  # repro-lint: ignore[DET101] -- sets are fine here because ...

The rule list is mandatory and every suppression must carry a written
reason after the rule list (an optional ``--`` separator is allowed).
A suppression comment on its own line applies to the first code line
after its comment block, and the block's continuation lines are part
of its reason.  A reason-less suppression is itself reported (rule
``LNT001``) and suppresses nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Finding", "Suppression", "parse_suppressions",
           "SUPPRESSION_PATTERN"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, sortable into a stable report order."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    hint: str = field(default="", compare=False)
    #: Qualified name of the enclosing function/class, for context.
    symbol: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def render(self) -> str:
        text = f"{self.location()}: {self.rule}: {self.message}"
        if self.symbol:
            text += f" [in {self.symbol}]"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        return {"path": self.path, "line": self.line, "column": self.column,
                "rule": self.rule, "message": self.message,
                "hint": self.hint, "symbol": self.symbol}


@dataclass(frozen=True)
class Suppression:
    """One parsed ``repro-lint: ignore[...]`` comment."""

    line: int          # the source line the suppression applies to
    rules: tuple[str, ...]
    reason: str
    comment_line: int  # where the comment physically sits

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.line and finding.rule in self.rules


#: ``# repro-lint: ignore[<RULE>,<RULE>] -- <reason>`` (reason mandatory,
#: the ``--`` separator optional).
SUPPRESSION_PATTERN = re.compile(
    r"#\s*repro-lint:\s*ignore\[(?P<rules>[A-Z0-9_,\s]+)\]"
    r"\s*(?:--\s*)?(?P<reason>.*)$")


def parse_suppressions(comments: dict[int, tuple[str, bool]], path: str,
                       ) -> tuple[list[Suppression], list[Finding]]:
    """Parse per-line comments into suppressions.

    ``comments`` maps physical line numbers to ``(comment text,
    has_code_before)`` pairs, as collected by the engine's tokenizer
    pass.  A trailing comment binds to its own line; a comment alone on
    its line binds to the first code line after its comment block, and
    the block's continuation lines join its reason.  Returns the
    suppressions plus ``LNT001`` findings for reason-less ones.
    """
    suppressions: list[Suppression] = []
    problems: list[Finding] = []
    for line in sorted(comments):
        text, has_code_before = comments[line]
        match = SUPPRESSION_PATTERN.search(text)
        if match is None:
            continue
        rules = tuple(sorted(r.strip() for r in
                             match.group("rules").split(",") if r.strip()))
        reason = match.group("reason").strip()
        applies_to = line
        if not has_code_before:
            # a comment-block suppression binds to the first code line
            # after the block; the continuation lines up to the next
            # suppression in the block carry the rest of its reason
            applies_to = line + 1
            joining = True
            while applies_to in comments and not comments[applies_to][1]:
                continuation = comments[applies_to][0]
                joining = joining and not SUPPRESSION_PATTERN.search(
                    continuation)
                if joining:
                    reason = f"{reason} {continuation.lstrip('#').strip()}"
                applies_to += 1
            reason = " ".join(reason.split())
        if not reason:
            problems.append(Finding(
                path=path, line=line, column=0, rule="LNT001",
                message=f"suppression for {', '.join(rules)} carries no "
                        f"reason -- every ignore must say why",
                hint="write `# repro-lint: ignore[RULE] -- <reason>`"))
            continue
        suppressions.append(Suppression(line=applies_to, rules=rules,
                                        reason=reason, comment_line=line))
    return suppressions, problems
