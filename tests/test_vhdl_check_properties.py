"""The one-scan VHDL checker against the per-construct regex checker.

``oracle_check_vhdl`` below is the earlier checker, kept verbatim: one
regex scan per construct, thirteen in all.  :func:`repro.codegen.check_vhdl`
finds the same constructs in one keyword scan plus a port and an
assignment scan.  The problem lists must be equal, in order, on

* the controller and datapath VHDL the flow emits for three designs of
  the 20-design test suite, as emitted;
* mutants of those files with lines deleted or duplicated, which break
  the balance of design units and compound statements and the
  declared-before-driven rule;
* generated keyword soup: VHDL keywords, names, punctuation, ``--``
  comments and indexed assignments in mixed case, joined by irregular
  whitespace (``end  if``, ``end\\nprocess``).

The explicit examples are the traps of the earlier checker that the
single scan must reproduce: its ``if``/``case`` openers exclude only
``end`` followed by exactly one space, and each of its scans skips a
match that starts inside the previous match of the same scan.  The
example budget follows the active hypothesis profile
(``tests/conftest.py``).
"""

import functools
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codegen import check_vhdl
from repro.flow import CoolFlow
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.workloads import workload_suite

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)


# ----------------------------------------------------------------------
# the oracle: the per-construct regex checker, verbatim
# ----------------------------------------------------------------------
def _strip_comments(text: str) -> str:
    return "\n".join(line.split("--", 1)[0] for line in text.splitlines())


def oracle_check_vhdl(text: str) -> list[str]:
    """Return a list of structural problems (empty = accepted)."""
    problems: list[str] = []
    code = _strip_comments(text)
    lower = code.lower()

    # ------------------------------------------------------------------
    # bracket-style balance of compound constructs
    # ------------------------------------------------------------------
    counts = {
        "entity": len(re.findall(r"\bentity\s+\w+\s+is\b", lower)),
        "end entity": len(re.findall(r"\bend\s+entity\b", lower)),
        "architecture": len(re.findall(
            r"\barchitecture\s+\w+\s+of\b", lower)),
        "end architecture": len(re.findall(r"\bend\s+architecture\b", lower)),
        "process": len(re.findall(r"\bprocess\b\s*\(", lower)),
        "end process": len(re.findall(r"\bend\s+process\b", lower)),
        "case": len(re.findall(r"(?<!end )\bcase\b", lower)),
        "end case": len(re.findall(r"\bend\s+case\b", lower)),
    }
    for opener, closer in (("entity", "end entity"),
                           ("architecture", "end architecture"),
                           ("process", "end process"),
                           ("case", "end case")):
        if counts[opener] != counts[closer]:
            problems.append(f"unbalanced {opener}: {counts[opener]} opened, "
                            f"{counts[closer]} closed")

    # if/end if balance ("elsif" never matches \bif\b; "end if" excluded)
    n_if = len(re.findall(r"(?<!end )\bif\b", lower))
    n_end_if = len(re.findall(r"\bend\s+if\b", lower))
    if n_if != n_end_if:
        problems.append(f"unbalanced if: {n_if} opened, {n_end_if} closed")

    # ------------------------------------------------------------------
    # declared-before-driven: every `x <=` target must be a declared
    # signal, port or variable
    # ------------------------------------------------------------------
    declared: set[str] = set()
    for m in re.finditer(r"\bsignal\s+([\w\s,]+?):", lower):
        for name in m.group(1).split(","):
            declared.add(name.strip())
    # ports: "name : in|out|inout type"
    for m in re.finditer(r"(\w+)\s*:\s*(?:in|out|inout)\b", lower):
        declared.add(m.group(1))
    # array-typed signals used with indexing: regs(0) etc. handled by
    # stripping the index before lookup
    for m in re.finditer(r"^\s*(\w+)\s*(?:\([\w\s+*-]+\))?\s*<=", lower,
                         re.MULTILINE):
        target = m.group(1)
        if target not in declared:
            problems.append(f"assignment to undeclared signal {target!r}")

    # each architecture must reference an existing entity
    entities = {m.group(1) for m in
                re.finditer(r"\bentity\s+(\w+)\s+is\b", lower)}
    for m in re.finditer(r"\barchitecture\s+\w+\s+of\s+(\w+)\s+is\b", lower):
        if m.group(1) not in entities:
            problems.append(f"architecture of unknown entity {m.group(1)!r}")

    return problems


# ----------------------------------------------------------------------
# emitted VHDL and its mutants
# ----------------------------------------------------------------------
@functools.cache
def emitted_files() -> tuple[str, ...]:
    """Every VHDL file of three flow runs, in name order per design."""
    texts = []
    for spec in workload_suite(3, seed=5):
        result = CoolFlow(minimal_board(),
                          partitioner=GreedyPartitioner()).run(spec.build())
        texts.extend(text for _, text in sorted(result.vhdl_files.items()))
    return tuple(texts)


def test_emitted_vhdl_is_accepted_by_both():
    files = emitted_files()
    assert len(files) == 24
    assert any("datapath" in text.lower() for text in files)
    for text in files:
        assert check_vhdl(text) == oracle_check_vhdl(text) == []


@PROPERTY
@given(st.integers(0, 23),
       st.lists(st.tuples(st.sampled_from(("delete", "duplicate")),
                          st.integers(0, 10_000)), min_size=1, max_size=6))
def test_line_mutants_agree(index, edits):
    lines = emitted_files()[index].split("\n")
    for op, at in edits:
        at %= len(lines)
        if op == "delete" and len(lines) > 1:
            del lines[at]
        else:
            lines.insert(at, lines[at])
    text = "\n".join(lines)
    assert check_vhdl(text) == oracle_check_vhdl(text)


# ----------------------------------------------------------------------
# keyword soup
# ----------------------------------------------------------------------
WORDS = ("entity", "end", "architecture", "of", "is", "process", "case",
         "if", "elsif", "endif", "signal", "in", "out", "inout", "begin",
         "when", "then", "port", "std_logic", "a", "x1", "regs", "s_0",
         "rtl")
PUNCTUATION = (":", ",", "(", ")", "<=", ";", "0", "3", "+", "*", "-",
               "=>", "--")
FRAGMENTS = ("entity e is", "end entity", "architecture rtl of e is",
             "end architecture", "process (clk)", "end process",
             "case s is", "end case", "end if", "end  if", "end\nif",
             "end\nprocess", "signal a, b : std_logic;", "p : in bit",
             "\nregs(3) <= a;", "\n  x ( i + 1 ) <= 0;", "\ny <= x;",
             "-- end if", "a : in : out", "q : inout bit")
SEPARATORS = ("", " ", "  ", "\t", "\n", "\n  ", " \n", "\r\n", "\x0c")
CASES = (str.lower, str.upper, str.title, str.swapcase)


@st.composite
def soup(draw):
    tokens = st.sampled_from(WORDS + PUNCTUATION + FRAGMENTS)
    parts = []
    for _ in range(draw(st.integers(0, 40))):
        token = draw(st.sampled_from(CASES))(draw(tokens))
        parts.append(token + draw(st.sampled_from(SEPARATORS)))
    return "".join(parts)


@PROPERTY
@given(soup())
@example("if x then end  if")
@example("end\nprocess; process (a) end\tprocess")
@example("xend if; end if")
@example("entity entity is is end entity")
@example("architecture architecture of of e is end architecture")
@example("entity e is end entity; architecture a of x is")
@example("architecture architecture of of is is")
@example("signal signal x : t;\nx <= 0;")
@example("a : in : out\nin <= 0;")
@example("p : inout bit;\np <= 0;")
@example("\n\n  regs (3) <= 0;\nx(i + 1) <= 1")
@example("End  IF -- if\nCASE")
def test_keyword_soup_agrees(text):
    assert check_vhdl(text) == oracle_check_vhdl(text)
