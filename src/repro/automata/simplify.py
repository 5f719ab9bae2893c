"""Cascade rewrite of one prioritized (Mealy) automaton state.

This module has one consumer: the VHDL emitter's ``simplify=True``
path (:func:`repro.codegen.fsm_to_vhdl`).  Kernel guards stay
conjunctions of positive literals; the rewrite only changes how a
state's if/elsif cascade is *printed*.

Every function here lives on one state's *frame*: the sorted distinct
condition IDs of its out-transitions.  Over a frame of ``width``
variables a boolean function is its complete truth table, an int of
``2**width`` bits whose bit ``m`` is the value under the valuation
that sets variable ``i`` iff bit ``i`` of ``m`` is set.  AND, OR and
AND-NOT are int operations and a cofactor is a mask plus a shift.
Controller states wait on a handful of flags (at most 8 over the
52-design suite), so a table is a few hundred bits at the very most.

The cascade of a state is first converted into its disjoint
*effective* guards (``g_i and not (g_1 or ... or g_{i-1})``) -- dead
branches vanish here -- and branches picking the same ``(successor,
actions)`` outcome are merged by guard disjunction.  Each surviving
branch is then re-covered ESPRESSO-lite style (Minato-Morreale ISOP,
expand, irredundant), with two sources of don't-care freedom:

* the *cascade* don't-cares: a branch may overlap anything a
  higher-priority branch already takes (the if/elsif order resolves
  it), which is what keeps single-literal cascades single-literal
  instead of sprouting ``not`` terms;
* the *reachability* don't-cares of the observed valuations: input
  valuations that can never occur while residing in the state
  (harvested from the controller composition by
  :func:`repro.controllers.harvest_care_sets`) are free, so a join
  guard whose producer flag is always latched by the time the state is
  entered drops that literal.

A *cube* is a sorted tuple of ``(variable, polarity)`` literals and a
*cover* a tuple of cubes read as their disjunction.  Cubes and
literals are always visited in sorted order, so equal inputs emit
equal covers (generated VHDL must not flap between runs).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .core import Automaton

__all__ = ["Cube", "cube_table", "isop", "expand_cubes",
           "irredundant_cover", "minimal_cover", "simplified_state_covers"]

#: One product term: sorted ``(variable, polarity)`` literals.
Cube = tuple[tuple[int, bool], ...]


def _full(width: int) -> int:
    """The constant-true table over ``width`` variables."""
    return (1 << (1 << width)) - 1


@lru_cache(maxsize=None)
def _positives(width: int) -> tuple[int, ...]:
    """The table of each positive literal: for variable ``v``, blocks of
    ``2**v`` zeros then ``2**v`` ones, repeated across the table."""
    full = _full(width)
    return tuple(full // ((1 << (2 << var)) - 1)
                 * (((1 << (1 << var)) - 1) << (1 << var))
                 for var in range(width))


def _cofactors(table: int, positive: int, shift: int) -> tuple[int, int]:
    """The ``var = 0`` / ``var = 1`` cofactors, replicated across both
    halves so they stay tables over the same frame."""
    low = table & ~positive
    high = table & positive
    return low | (low << shift), high | (high >> shift)


def _depends(table: int, positive: int, shift: int) -> bool:
    low, high = _cofactors(table, positive, shift)
    return low != high


def cube_table(width: int, cube: Cube) -> int:
    """The table of one cube."""
    table = _full(width)
    positives = _positives(width)
    for var, polarity in cube:
        table &= positives[var] if polarity else ~positives[var]
    return table


def isop(width: int, lower: int, upper: int) -> tuple[Cube, ...]:
    """An irredundant SOP ``cover`` with ``lower <= cover <= upper``.

    The Minato-Morreale recursion: branch on the smallest variable
    either bound depends on, extract the cubes that need a negative /
    positive literal, recurse on what remains without the variable.
    Raises when the interval is empty (``lower`` must imply ``upper``).
    """
    if lower & ~upper:
        raise ValueError("isop needs lower <= upper")
    full = _full(width)
    positives = _positives(width)
    cache: dict[tuple[int, int], tuple[tuple[Cube, ...], int]] = {}

    def recurse(low: int, up: int) -> tuple[tuple[Cube, ...], int]:
        if not low:
            return (), 0
        if up == full:
            return ((),), full
        key = (low, up)
        hit = cache.get(key)
        if hit is not None:
            return hit
        var = next(var for var, positive in enumerate(positives)
                   if _depends(low, positive, 1 << var)
                   or _depends(up, positive, 1 << var))
        positive, shift = positives[var], 1 << var
        low0, low1 = _cofactors(low, positive, shift)
        up0, up1 = _cofactors(up, positive, shift)
        # cubes that must carry the negative / positive literal
        cubes0, table0 = recurse(low0 & ~up1, up0)
        cubes1, table1 = recurse(low1 & ~up0, up1)
        # what is still uncovered may be covered variable-free
        cubes2, table2 = recurse((low0 & ~table0) | (low1 & ~table1),
                                 up0 & up1)
        cubes = tuple(tuple(sorted(cube + ((var, False),)))
                      for cube in cubes0) \
            + tuple(tuple(sorted(cube + ((var, True),))) for cube in cubes1) \
            + cubes2
        table = (table0 & ~positive) | (table1 & positive) | table2
        cache[key] = (cubes, table)
        return cubes, table

    cubes, _ = recurse(lower, upper)
    return tuple(sorted(cubes))


def expand_cubes(width: int, cubes: Iterable[Cube],
                 upper: int) -> tuple[Cube, ...]:
    """ESPRESSO *expand*: drop literals while each cube stays in ``upper``.

    Literals are tried in sorted order, so expansion is deterministic.
    Duplicate and subsumed results collapse (an expanded cube absorbs
    any other cube it contains).
    """
    expanded: list[Cube] = []
    for cube in sorted(set(cubes)):
        current = cube
        for literal in cube:
            shorter = tuple(lit for lit in current if lit != literal)
            if not cube_table(width, shorter) & ~upper:
                current = shorter
        expanded.append(current)
    # absorption: a cube contained in another is redundant
    kept: list[Cube] = []
    for cube in sorted(expanded, key=len):
        if not any(set(other) <= set(cube) for other in kept):
            kept.append(cube)
    return tuple(sorted(kept))


def irredundant_cover(width: int, cubes: Iterable[Cube],
                      lower: int) -> tuple[Cube, ...]:
    """ESPRESSO *irredundant*: drop cubes while ``lower`` stays covered.

    Cubes are tried largest-first (most literals first), so the cheap
    cubes survive; ties break on the sorted cube order.
    """
    tables = {cube: cube_table(width, cube) for cube in sorted(set(cubes))}
    kept = list(tables)
    for cube in sorted(kept, key=lambda c: (-len(c), c)):
        rest = [c for c in kept if c != cube]
        covered = 0
        for other in rest:
            covered |= tables[other]
        if not lower & ~covered:
            kept = rest
    return tuple(sorted(kept))


def minimal_cover(width: int, onset: int,
                  dont_care: int = 0) -> tuple[Cube, ...]:
    """A compact SOP of ``onset`` exploiting ``dont_care`` freedom.

    ISOP over the interval, then expand against the upper bound, then
    the irredundant pass against the onset.  Not guaranteed minimum
    (that is NP-hard) but small, deterministic, and always within
    ``[onset, onset or dont_care]``.
    """
    upper = onset | dont_care
    cubes = expand_cubes(width, isop(width, onset, upper), upper)
    return irredundant_cover(width, cubes, onset)


def _effective_branches(transitions, index: dict[int, int], width: int
                        ) -> list[tuple[int, int, tuple[int, ...]]]:
    """The cascade's disjoint effective guards as ``(table, dst,
    actions)``, dead branches dropped and same-``(dst, actions)``
    branches merged by disjunction (first-occurrence order)."""
    taken = 0
    merged: dict[tuple[int, tuple[int, ...]], int] = {}
    for t in transitions:
        guard = cube_table(width, tuple((index[var], True)
                                        for var in t.conditions))
        effective = guard & ~taken
        taken |= guard
        if not effective:
            continue  # dead: fully shadowed by higher-priority branches
        key = (t.dst, t.actions)
        merged[key] = merged.get(key, 0) | effective
    return [(table, dst, actions)
            for (dst, actions), table in merged.items()]


def _care_table(automaton: Automaton, frame: list[int], support: list[int],
                valuations: Iterable) -> int:
    """The observed input valuations, one cube each over ``support``.

    ``valuations`` are the input sets (signal names or IDs) seen in the
    state on any reachable path; only the ``support`` variables (frame
    indices the branch guards depend on) are constrained -- everything
    else stays free, which keeps the don't-care harvest cheap without
    giving up the literals it can actually remove.
    """
    width = len(frame)
    signals = [(frame[var], automaton.symbols.name_of(frame[var]))
               for var in support]
    care = 0
    for cube in sorted({tuple((var, name in valuation or sid in valuation)
                              for var, (sid, name) in zip(support, signals))
                        for valuation in valuations}):
        care |= cube_table(width, cube)
    return care


def simplified_state_covers(automaton: Automaton, state: int,
                            observed: Iterable | None
                            ) -> list[tuple[tuple, int, tuple[int, ...]]]:
    """Minimized ``(cover, dst, actions)`` branches of one state.

    Covers are minimized against the cascade don't-cares and, when
    ``observed`` valuations are given, the reachability don't-cares;
    the list ends at the first tautology cover (that arm always fires).
    Covers are in the automaton's signal-ID space.
    """
    transitions = automaton.out(state)
    frame = sorted({var for t in transitions for var in t.conditions})
    width = len(frame)
    index = {sid: var for var, sid in enumerate(frame)}
    branches = _effective_branches(transitions, index, width)
    dont_care = 0
    if observed is not None:
        positives = _positives(width)
        support = [var for var in range(width)
                   if any(_depends(table, positives[var], 1 << var)
                          for table, _, _ in branches)]
        if support:
            dont_care = _full(width) & ~_care_table(
                automaton, frame, support, observed)
    taken = 0
    simplified: list[tuple[tuple, int, tuple[int, ...]]] = []
    for table, dst, actions in branches:
        # anything a higher-priority branch takes is free here
        cover = minimal_cover(width, table, taken | dont_care)
        taken |= table
        simplified.append((tuple(tuple((frame[var], polarity)
                                       for var, polarity in cube)
                                 for cube in cover), dst, actions))
        if any(not cube for cube in cover):
            break  # tautology arm always fires: the rest is dead
    return simplified
