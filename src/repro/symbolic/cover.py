"""Two-level covers of BDD intervals (ESPRESSO-lite).

A *cube* is a conjunction of literals, represented as a sorted tuple of
``(variable, polarity)`` pairs; a *cover* is a tuple of cubes read as
their disjunction (sum of products).  This module extracts compact
covers of an incompletely specified function -- anything between an
onset ``L`` and an upper bound ``U = L or dont_care`` is acceptable:

* :func:`isop` -- the Minato-Morreale irredundant sum-of-products
  recursion over the interval ``[L, U]``;
* :func:`expand_cubes` -- ESPRESSO's *expand* step: greedily drop
  literals from each cube while it stays inside ``U``;
* :func:`irredundant_cover` -- ESPRESSO's *irredundant* step: drop
  whole cubes while the remainder still covers ``L``;
* :func:`minimal_cover` -- the pipeline the VHDL guard rewrite calls.

The cover algorithms are deterministic: cubes and literals are always
visited in sorted order, so two runs over equal inputs emit equal
covers (fingerprints and generated VHDL must not flap between runs).
"""

from __future__ import annotations

from typing import Iterable

from .bdd import FALSE, TRUE, BddEngine

__all__ = ["Cube", "cube_node", "cover_node", "isop", "expand_cubes",
           "irredundant_cover", "minimal_cover", "cover_literals"]

#: One product term: sorted ``(variable, polarity)`` literals.
Cube = tuple[tuple[int, bool], ...]

#: The tautology cube (empty product).
_TAUTOLOGY: Cube = ()


def cube_node(engine: BddEngine, cube: Cube) -> int:
    """The BDD of one cube."""
    return engine.cube(cube)


def cover_node(engine: BddEngine, cubes: Iterable[Cube]) -> int:
    """The BDD of a cover (disjunction of its cubes)."""
    return engine.disj(engine.cube(cube) for cube in cubes)


def isop(engine: BddEngine, lower: int, upper: int
         ) -> tuple[tuple[Cube, ...], int]:
    """An irredundant SOP ``cover`` with ``lower <= cover <= upper``.

    The Minato-Morreale recursion: branch on the top variable, extract
    the cubes that need a negative / positive literal, recurse on what
    remains without the variable.  Returns ``(cubes, node)`` where
    ``node`` is the BDD of the cover.  Raises when the interval is
    empty (``lower`` must imply ``upper``).
    """
    if not engine.implies(lower, upper):
        raise ValueError("isop needs lower <= upper")
    cache: dict[tuple[int, int], tuple[tuple[Cube, ...], int]] = {}

    def recurse(low: int, up: int) -> tuple[tuple[Cube, ...], int]:
        if low == FALSE:
            return (), FALSE
        if up == TRUE:
            return (_TAUTOLOGY,), TRUE
        key = (low, up)
        hit = cache.get(key)
        if hit is not None:
            return hit
        var = engine.top_var(low)
        up_var = engine.top_var(up)
        if var is None or (up_var is not None and up_var < var):
            var = up_var
        low0 = engine.cofactor(low, var, False)
        low1 = engine.cofactor(low, var, True)
        up0 = engine.cofactor(up, var, False)
        up1 = engine.cofactor(up, var, True)
        # cubes that must carry the negative / positive literal
        cubes0, node0 = recurse(engine.diff(low0, up1), up0)
        cubes1, node1 = recurse(engine.diff(low1, up0), up1)
        # what is still uncovered may be covered variable-free
        rest0 = engine.diff(low0, node0)
        rest1 = engine.diff(low1, node1)
        cubes2, node2 = recurse(engine.or_(rest0, rest1),
                                engine.and_(up0, up1))
        nlit = (var, False)
        plit = (var, True)
        cubes = tuple(tuple(sorted(cube + (nlit,))) for cube in cubes0) \
            + tuple(tuple(sorted(cube + (plit,))) for cube in cubes1) \
            + cubes2
        node = engine.or_(
            engine.or_(engine.and_(engine.nvar(var), node0),
                       engine.and_(engine.var(var), node1)), node2)
        cache[key] = (cubes, node)
        return cubes, node

    cubes, node = recurse(lower, upper)
    return tuple(sorted(cubes)), node


def expand_cubes(engine: BddEngine, cubes: Iterable[Cube],
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
            shorter = tuple(l for l in current if l != literal)
            if engine.implies(engine.cube(shorter), upper):
                current = shorter
        expanded.append(current)
    # absorption: a cube contained in another is redundant
    kept: list[Cube] = []
    for cube in sorted(expanded, key=len):
        if not any(set(other) <= set(cube) for other in kept):
            kept.append(cube)
    return tuple(sorted(kept))


def irredundant_cover(engine: BddEngine, cubes: Iterable[Cube],
                      lower: int) -> tuple[Cube, ...]:
    """ESPRESSO *irredundant*: drop cubes while ``lower`` stays covered.

    Cubes are tried largest-first (most literals first), so the cheap
    cubes survive; ties break on the sorted cube order.
    """
    kept = sorted(set(cubes))
    for cube in sorted(kept, key=lambda c: (-len(c), c)):
        rest = [c for c in kept if c != cube]
        if engine.implies(lower, cover_node(engine, rest)):
            kept = rest
    return tuple(sorted(kept))


def minimal_cover(engine: BddEngine, onset: int,
                  dont_care: int = FALSE) -> tuple[Cube, ...]:
    """A compact SOP of ``onset`` exploiting ``dont_care`` freedom.

    ISOP over the interval, then expand against the upper bound, then
    the irredundant pass against the onset.  Not guaranteed minimum
    (that is NP-hard) but small, deterministic, and always within
    ``[onset, onset or dont_care]``.
    """
    upper = engine.or_(onset, dont_care)
    cubes, _ = isop(engine, onset, upper)
    cubes = expand_cubes(engine, cubes, upper)
    return irredundant_cover(engine, cubes, onset)


def cover_literals(cubes: Iterable[Cube]) -> int:
    """Total literal count of a cover (the emitter's cost metric)."""
    return sum(len(cube) for cube in cubes)

