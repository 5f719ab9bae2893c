"""VHDL code generation.

COOL "generates VHDL-specifications for all these additional pieces"
(system controller, data-path controllers, I/O controller, bus
arbiters) "and a net-list wiring all them" (paper Section 2 / Fig. 4).

Emitted style:

* FSMs -- the classic synthesizable two-process architecture: a clocked
  state register plus a combinational next-state/output process whose
  if/elsif cascade preserves the FSM's transition priority.  The
  cascade of a state is its *live prefix*: everything up to and
  including the first unconditional transition, which becomes the
  ``else`` arm; transitions behind it can never fire and are elided
  with an explicit comment instead of silently vanishing.
* With ``simplify=True`` the cascade is rebuilt from per-state truth
  tables (:mod:`repro.automata.simplify`): dead branches are pruned,
  branches picking the same (successor, actions) outcome merge by
  guard disjunction, and every branch guard is re-emitted as a
  factored sum-of-products -- negated literals (``sig = '0'``) and
  parenthesized OR-terms included -- minimized against the cascade
  don't-cares and, when ``care_of`` supplies reachability care sets,
  against the configurations the composition can actually reach.  A
  state whose simplified cascade would cost more guard literals keeps
  the original one.
* datapaths -- one entity per (shared) datapath with start/done
  handshake, functional units as behavioural processes, and the
  micro-schedule documented in comments;
* a structural top level via :mod:`repro.codegen.netlist`.

The output is checked by :mod:`repro.codegen.vhdl_check` in the tests
(the 1998 flow handed these files to Synopsys; our checker plays the
front-end acceptance role); :func:`guard_literal_count` is the cost
metric the guard-simplification benchmark gates on.
"""

from __future__ import annotations

import re

from ..automata.simplify import simplified_state_covers
from ..controllers.fsm import Fsm, encode_states
from ..hls.rtl import RtlDatapath

__all__ = ["fsm_to_vhdl", "datapath_to_vhdl", "fsm_guard_literals",
           "guard_literal_count", "HEADER"]

HEADER = """\
-- Generated by repro (COOL co-synthesis reproduction)
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
"""


def _sanitize(name: str) -> str:
    """Make a signal name VHDL-safe."""
    out = name.replace("-", "_")
    if out and out[0].isdigit():
        out = "s_" + out
    return out


def _split_live_cascade(transitions):
    """The firing cascade: live prefix + unreachable (shadowed) tail.

    In prioritized Mealy semantics the first unconditional transition
    always fires when reached, so everything declared after it is dead:
    the live prefix ends there and the tail is reported to the caller
    (the emitter elides it with a comment rather than silently).
    """
    live = []
    for t in transitions:
        live.append(t)
        if not t.conditions:
            return live, transitions[len(live):]
    return live, []


def _live_literals(live) -> int:
    """Guard literals the default emission spells out for a live cascade."""
    return sum(len(t.conditions) for t in live)


def _render_cube(cube) -> str:
    """Render a name-space cube (``(signal name, polarity)`` literals)."""
    return " and ".join(
        f"{_sanitize(name)} = '{'1' if positive else '0'}'"
        for name, positive in cube)


def _render_cover(cover) -> str:
    """A factored VHDL expression for a sum-of-products cover.

    The most shared literal is hoisted recursively (``x and (... or
    ...)``), which is what turns ``a&b or a&c`` into ``a and (b or
    c)``; cubes that share nothing render as parenthesized OR-terms.
    """
    cover = [tuple(cube) for cube in cover]

    def or_terms(cubes) -> list[str]:
        """OR-chain terms; every term containing ``and`` is already
        parenthesized (VHDL forbids mixing and/or without parens)."""
        if len(cubes) == 1:
            term = _render_cube(cubes[0]) or "'1' = '1'"
            return [f"({term})" if " and " in term else term]
        counts: dict[tuple, int] = {}
        for cube in cubes:
            for literal in cube:
                counts[literal] = counts.get(literal, 0) + 1
        literal, best = max(sorted(counts.items()),
                            key=lambda item: item[1], default=(None, 0))
        if best < 2:
            terms = []
            for cube in cubes:
                term = _render_cube(cube)
                terms.append(f"({term})" if len(cube) > 1 else term)
            return terms
        with_lit = [tuple(l for l in cube if l != literal)
                    for cube in cubes if literal in cube]
        without = [cube for cube in cubes if literal not in cube]
        head = _render_cube((literal,))
        if any(not cube for cube in with_lit):
            factored = head  # x or x&y..: absorbed into x
        else:
            inner = " or ".join(or_terms(with_lit))
            factored = f"({head} and ({inner}))"
        return [factored] + (or_terms(without) if without else [])

    terms = or_terms(cover)
    if len(terms) == 1:
        # a lone parenthesized group needs no outer parens
        term = terms[0]
        if term.startswith("(") and term.endswith(")"):
            depth = 0
            balanced = True
            for ch in term[1:-1]:
                depth += (ch == "(") - (ch == ")")
                if depth < 0:
                    balanced = False
                    break
            if balanced:
                term = term[1:-1]
        return term
    return " or ".join(terms)


def _simplified_arms(fsm: Fsm, care_of=None):
    """Per-state simplified branch lists for the ``simplify=True`` path.

    Returns ``state name -> list of (cover, dst name, action names)``
    with covers minimized against the cascade don't-cares (everything a
    higher-priority branch takes) and the reachability don't-cares of
    ``care_of`` (state name -> iterable of observed input valuations).
    A trailing tautology cover renders as the ``else`` arm.  States
    whose rewrite would cost more guard literals than the live original
    cascade (the count :func:`fsm_guard_literals` charges the state)
    are omitted -- the caller falls back to the default arm.
    """
    automaton = fsm.to_automaton()
    name_of = automaton.symbols.name_of
    arms: dict[str, list] = {}
    for index, state in enumerate(automaton.state_names):
        transitions = fsm.out_transitions(state)
        if not transitions:
            continue
        observed = care_of.get(state) if care_of else None
        simplified = [
            (tuple(tuple((name_of(var), positive)
                         for var, positive in cube) for cube in cover),
             automaton.name_of(dst), automaton.symbols.names_of(actions))
            for cover, dst, actions in simplified_state_covers(
                automaton, index, observed)]
        live, _shadowed = _split_live_cascade(transitions)
        original_literals = _live_literals(live)
        rewritten_literals = sum(len(cube) for cover, _, _ in simplified
                                 for cube in cover)
        if rewritten_literals < original_literals or (
                rewritten_literals == original_literals
                and len(simplified) < len(live)):
            arms[state] = simplified
    return arms


def fsm_to_vhdl(fsm: Fsm, encoding: str = "binary",
                simplify: bool = False, care_of=None) -> str:
    """Emit a two-process synthesizable architecture for ``fsm``.

    ``simplify=True`` routes every state's cascade through the
    truth-table guard rewrite (see the module docstring); ``care_of``
    optionally supplies reachability care sets (state name -> iterable
    of observed input valuations, e.g. from
    :func:`repro.controllers.harvest_care_sets`) whose complement is
    exploited as don't-care freedom.
    """
    name = _sanitize(fsm.name)
    inputs = [_sanitize(s) for s in fsm.inputs]
    outputs = [_sanitize(s) for s in fsm.outputs]
    # the kernel's state encoding: synthesis back-ends get the intended
    # bit patterns spelled out next to the enumerated state type
    codes = encode_states(fsm, encoding)
    simplified_arms = _simplified_arms(fsm, care_of) if simplify else {}

    lines: list[str] = [HEADER]
    lines.append(f"entity {name} is")
    lines.append("  port (")
    port_decls = ["    clk : in std_logic", "    rst : in std_logic"]
    port_decls += [f"    {s} : in std_logic" for s in inputs]
    port_decls += [f"    {s} : out std_logic" for s in outputs]
    lines.append(";\n".join(port_decls))
    lines.append("  );")
    lines.append(f"end entity {name};")
    lines.append("")
    lines.append(f"architecture rtl of {name} is")
    state_list = ", ".join(f"st_{_sanitize(s)}" for s in fsm.states)
    lines.append(f"  type state_t is ({state_list});")
    lines.append(f"  signal state, next_state : state_t;")
    lines.append("  -- encoding scheme: " + encoding)
    for state in fsm.states:
        lines.append(f"  --   st_{_sanitize(state)} = \"{codes[state]}\"")
    lines.append("begin")
    lines.append("")
    lines.append("  state_reg : process (clk, rst)")
    lines.append("  begin")
    lines.append("    if rst = '1' then")
    lines.append(f"      state <= st_{_sanitize(fsm.initial)};")
    lines.append("    elsif rising_edge(clk) then")
    lines.append("      state <= next_state;")
    lines.append("    end if;")
    lines.append("  end process;")
    lines.append("")
    sensitivity = ", ".join(["state"] + inputs) if inputs else "state"
    lines.append(f"  next_logic : process ({sensitivity})")
    lines.append("  begin")
    lines.append("    next_state <= state;")
    for out in outputs:
        lines.append(f"    {out} <= '0';")
    lines.append("    case state is")
    for state in fsm.states:
        lines.append(f"      when st_{_sanitize(state)} =>")
        for moore in fsm.state_outputs.get(state, ()):
            lines.append(f"        {_sanitize(moore)} <= '1';")
        if state in simplified_arms:
            _emit_simplified_arm(lines, simplified_arms[state])
            continue
        transitions = fsm.out_transitions(state)
        live, shadowed = _split_live_cascade(transitions)
        first = True
        for t in live:
            if t.conditions:
                cond = " and ".join(f"{_sanitize(c)} = '1'"
                                    for c in t.conditions)
                keyword = "if" if first else "elsif"
                lines.append(f"        {keyword} {cond} then")
                indent = "          "
            else:
                # an unconditional transition terminates the cascade:
                # the sole arm when it leads, the else arm otherwise
                indent = "        " if first else "          "
                if not first:
                    lines.append("        else")
            lines.append(f"{indent}next_state <= st_{_sanitize(t.dst)};")
            for action in t.actions:
                lines.append(f"{indent}{_sanitize(action)} <= '1';")
            first = False
        if live and live[0].conditions:
            lines.append("        end if;")
        elif not live:
            lines.append("        null;")
        if shadowed:
            lines.append(f"        -- {len(shadowed)} lower-priority "
                         f"transition(s) unreachable behind the "
                         f"unconditional arm: "
                         + "; ".join(f"-> {_sanitize(t.dst)}"
                                     for t in shadowed))
    lines.append("    end case;")
    lines.append("  end process;")
    lines.append("")
    lines.append("end architecture rtl;")
    return "\n".join(lines) + "\n"


def _emit_simplified_arm(lines: list[str], branches) -> None:
    """One case arm from simplified ``(cover, dst, actions)`` branches.

    Branch guards are mutually disjoint by construction, so the
    cascade order is free; a tautology cover (only ever produced for
    the final live branch) becomes the ``else`` arm -- or the sole
    unconditional arm when it is the state's only branch.
    """
    opened = False
    for cover, dst, actions in branches:
        tautology = any(not cube for cube in cover)
        if tautology and not opened:
            indent = "        "
        elif tautology:
            lines.append("        else")
            indent = "          "
        else:
            expr = _render_cover(cover)
            keyword = "if" if not opened else "elsif"
            lines.append(f"        {keyword} {expr} then")
            opened = True
            indent = "          "
        lines.append(f"{indent}next_state <= st_{_sanitize(dst)};")
        for action in actions:
            lines.append(f"{indent}{_sanitize(action)} <= '1';")
        if tautology:
            # a tautology arm always fires: anything behind it is dead
            # (don't-care freedom can produce several tautology covers)
            break
    if opened:
        lines.append("        end if;")
    elif not branches:
        lines.append("        null;")


def fsm_guard_literals(fsm: Fsm) -> int:
    """Baseline guard literals of the cascades ``fsm_to_vhdl`` emits.

    Exactly :func:`guard_literal_count` of the default emission --
    conditions of each state's live cascade prefix -- without paying
    for the text (the flow's guard report uses it to avoid emitting a
    throwaway baseline file per FSM).
    """
    total = 0
    for state in fsm.states:
        live, _shadowed = _split_live_cascade(fsm.out_transitions(state))
        total += _live_literals(live)
    return total


_GUARD_LITERAL = re.compile(r"\w+ = '[01]'")


def guard_literal_count(text: str) -> int:
    """Guard literals in the emitted cascades (``sig = '0'|'1'`` tests).

    Counts only ``if``/``elsif`` condition lines of the combinational
    processes -- assignments (``x <= '1';``) never match the pattern --
    so it is exactly the cost the guard-simplification benchmark gates:
    how much condition logic the synthesizer must realize.
    """
    total = 0
    in_next_logic = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("next_logic : process"):
            in_next_logic = True
        elif stripped == "end process;":
            in_next_logic = False
        elif in_next_logic and (stripped.startswith("if ")
                                or stripped.startswith("elsif ")):
            total += len(_GUARD_LITERAL.findall(stripped))
    return total


_FU_EXPR = {
    "add": "resize(a, acc'length) + resize(b, acc'length)",
    "mul": "resize(a * b, acc'length)",
    "mac": "acc + resize(a * b, acc'length)",
    "div": "divide(a, b)",
    "cmp": "compare(a, b)",
    "shift": "shift_right(a, to_integer(b))",
    "logic": "a and b",
    "mov": "a",
}


def datapath_to_vhdl(rtl: RtlDatapath) -> str:
    """Emit the (shared) datapath entity of one hardware resource."""
    name = _sanitize(rtl.name)
    width = rtl.width
    lines = [HEADER]
    lines.append(f"-- datapath {name}: "
                 f"{len(rtl.fus)} functional units, "
                 f"{rtl.register_count} registers, "
                 f"latency {rtl.latency_cycles} cycles")
    lines.append(f"entity {name} is")
    lines.append("  port (")
    lines.append("    clk : in std_logic;")
    lines.append("    rst : in std_logic;")
    lines.append("    start : in std_logic;")
    lines.append(f"    din : in signed({width - 1} downto 0);")
    lines.append(f"    dout : out signed({width - 1} downto 0);")
    lines.append("    done : out std_logic")
    lines.append("  );")
    lines.append(f"end entity {name};")
    lines.append("")
    lines.append(f"architecture rtl of {name} is")
    if rtl.register_count:
        lines.append(f"  type regfile_t is array (0 to "
                     f"{rtl.register_count - 1}) of "
                     f"signed({width - 1} downto 0);")
        lines.append("  signal regs : regfile_t;")
    lines.append("  signal cycle : integer range 0 to "
                 f"{max(rtl.latency_cycles, 1)};")
    for fu in rtl.fus:
        lines.append(f"  signal {_sanitize(fu.name)}_out : "
                     f"signed({width - 1} downto 0);"
                     f"  -- {fu.category}, {fu.mux_inputs}-input mux")
    lines.append("begin")
    lines.append("")
    lines.append("  sequencer : process (clk, rst)")
    lines.append("  begin")
    lines.append("    if rst = '1' then")
    lines.append("      cycle <= 0;")
    lines.append("      done <= '0';")
    lines.append("    elsif rising_edge(clk) then")
    lines.append("      if start = '1' then")
    lines.append("        cycle <= 0;")
    lines.append("        done <= '0';")
    lines.append(f"      elsif cycle < {max(rtl.latency_cycles, 1)} then")
    lines.append("        cycle <= cycle + 1;")
    lines.append("      else")
    lines.append("        done <= '1';")
    lines.append("      end if;")
    lines.append("    end if;")
    lines.append("  end process;")
    lines.append("")
    for step in sorted(rtl.micro_schedule):
        ops = ", ".join(f"op{uid}->{fu}" for uid, fu
                        in rtl.micro_schedule[step])
        lines.append(f"  -- step {step}: {ops}")
    lines.append("")
    if rtl.register_count:
        lines.append("  dout <= regs(0);")
    else:
        lines.append("  dout <= din;")
    lines.append("")
    lines.append("end architecture rtl;")
    return "\n".join(lines) + "\n"
