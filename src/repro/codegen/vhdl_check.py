"""Structural checking of generated VHDL.

The 1998 flow handed the generated VHDL to Synopsys; offline, this
module plays the front-end acceptance role: it checks the structural
invariants that catch real emitter bugs -- balanced design units and
compound statements, declared-before-driven signals, port/entity
consistency.  It is intentionally not a full VHDL parser; it is the
contract the code generator is tested against.

After comments are stripped and the text lower-cased, a single scan
with one alternation regex visits every keyword the check needs: the
five opener/closer pairs (``entity``, ``architecture``, ``process``,
``case``, ``if`` and their ``end`` forms), entity names, the entity of
each architecture and ``signal`` declarations.  Each alternative
consumes only its keyword and reads the rest of its construct in a
lookahead, so a construct inside another one is still found.  Where a
construct can contain a second one of the same kind (``entity entity
is is``), the scan skips a match that starts inside the last counted
one, as a separate non-overlapping scan per construct would.  Two more
scans find the port declarations and the assignment targets.
"""

from __future__ import annotations

import re

__all__ = ["check_vhdl", "VhdlCheckError"]


class VhdlCheckError(ValueError):
    """Raised by :func:`check_vhdl` when the text is malformed."""


#: Opener/closer pairs in the order their imbalances are reported.
_PAIRS = ("entity", "architecture", "process", "case", "if")

# the leading class lets the engine skip every position that starts no
# keyword; the last group to close in a match names its alternative
_KEYWORDS = re.compile(
    r"(?=[acepis])\b(?:"
    r"end(?=\s+(?P<closer>entity|architecture|process|case|if)\b)"
    r"|entity(?=(?P<entity_tail>\s+(?P<entity>\w+)\s+is\b))"
    r"|architecture(?=(?P<arch_tail>\s+\w+\s+of\b)"
    r"(?P<of_tail>\s+(?P<of>\w+)\s+is\b)?)"
    r"|(?P<process>process)\b(?=\s*\()"
    r"|(?<!end )(?P<opener>case|if)\b"
    r"|signal(?=\s+(?P<signals>[\w\s,]+?):)"
    r")")
# ports: "name : in|out|inout type"
_PORT = re.compile(r"\b(\w+)\s*:\s*(?:in|out|inout)\b")
# array-typed signals used with indexing: regs(0) etc. handled by
# stripping the index before lookup
_ASSIGNMENT = re.compile(r"^\s*(\w+)\s*(?:\([\w\s+*-]+\))?\s*<=",
                         re.MULTILINE)


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("--", 1)[0] for line in text.splitlines())


def check_vhdl(text: str) -> list[str]:
    """Return a list of structural problems (empty = accepted)."""
    problems: list[str] = []
    code = _strip_comments(text).lower()

    opened = dict.fromkeys(_PAIRS, 0)
    closed = dict.fromkeys(_PAIRS, 0)
    declared: set[str] = set()
    entities: set[str] = set()
    architecture_of: list[str] = []
    # end of the last counted match of each construct that can contain
    # another of its kind
    entity_end = arch_end = of_end = signal_end = 0
    for m in _KEYWORDS.finditer(code):
        at = m.start()
        kind = m.lastgroup
        if kind == "closer":
            closed[m["closer"]] += 1
        elif kind == "opener" or kind == "process":
            opened[m[kind]] += 1
        elif kind == "entity_tail":
            if at >= entity_end:
                opened["entity"] += 1
                entities.add(m["entity"])
                entity_end = m.end("entity_tail")
        elif kind == "signals":
            if at >= signal_end:
                for name in m["signals"].split(","):
                    declared.add(name.strip())
                signal_end = m.end("signals") + 1
        else:  # architecture
            if at >= arch_end:
                opened["architecture"] += 1
                arch_end = m.end("arch_tail")
            if m["of"] is not None and at >= of_end:
                architecture_of.append(m["of"])
                of_end = m.end("of_tail")

    # bracket-style balance of compound constructs
    for pair in _PAIRS:
        if opened[pair] != closed[pair]:
            problems.append(f"unbalanced {pair}: {opened[pair]} opened, "
                            f"{closed[pair]} closed")

    # declared-before-driven: every `x <=` target must be a declared
    # signal, port or variable
    for m in _PORT.finditer(code):
        declared.add(m.group(1))
    for m in _ASSIGNMENT.finditer(code):
        target = m.group(1)
        if target not in declared:
            problems.append(f"assignment to undeclared signal {target!r}")

    # each architecture must reference an existing entity
    for name in architecture_of:
        if name not in entities:
            problems.append(f"architecture of unknown entity {name!r}")

    return problems
