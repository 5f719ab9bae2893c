"""Relational algebra over the hash-consed BDD engine.

The symbolic verification tier (:mod:`repro.automata.symbolic`) works
with *state sets as characteristic functions* and *transition relations
as boolean functions over paired variable blocks*.  This module is the
algebra those objects need on top of :class:`~repro.symbolic.bdd.BddEngine`:

* :func:`exists` / :func:`forall` -- quantification over a variable set
  (one linear pass with node memoization, early-terminating ``or`` on
  the existential branch);
* :func:`rename` -- simultaneous variable substitution (the
  current-state / next-state block swap), validated to be injective and
  collision-free so the ite-composition is sound for any order;
* :class:`VariablePairing` -- the interleaved current/next variable
  convention (``current bit i -> 2i``, ``next bit i -> 2i+1``), which
  keeps each relation's corresponding bits adjacent in the engine's
  fixed ascending order -- the standard layout that keeps relation BDDs
  small;
* :func:`and_exists` -- the relational product ``exists V. f and g``
  fused into one recursive pass (never building the full conjunction),
  with early termination on a TRUE existential branch;
* :func:`relational_image` -- one symbolic image step through a
  partitioned transition relation: disjunctive partitions (per input
  letter) distribute over the union, conjunctive partitions (per
  component) are scheduled with *early quantification* -- each current
  variable is quantified out in the first conjunction after which no
  later partition mentions it;
* :func:`reachable_states` -- image iteration to the least fixpoint,
  returning the reachable characteristic function and the iteration
  count.

Everything routes through the owning engine's memoized ``ite``/``_mk``,
so repeated subproblems stay shared.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .bdd import FALSE, TRUE, BddEngine, BddError

__all__ = ["VariablePairing", "exists", "forall", "rename", "and_exists",
           "relational_image", "reachable_states"]


def exists(engine: BddEngine, f: int, variables: Iterable[int]) -> int:
    """``exists variables. f`` -- existential quantification."""
    variables = frozenset(variables)
    if not variables:
        return f
    engine._check(f)
    last = max(variables)
    var, low, high = engine._var, engine._low, engine._high
    cache: dict[int, int] = {}

    def walk(node: int) -> int:
        # below the deepest quantified variable nothing changes
        if node <= TRUE or var[node] > last:
            return node
        done = cache.get(node)
        if done is None:
            level = var[node]
            lo = walk(low[node])
            if level in variables:
                done = TRUE if lo == TRUE \
                    else engine.or_(lo, walk(high[node]))
            else:
                done = engine._mk(level, lo, walk(high[node]))
            cache[node] = done
        return done

    return walk(f)


def forall(engine: BddEngine, f: int, variables: Iterable[int]) -> int:
    """``forall variables. f`` -- dual of :func:`exists`."""
    return engine.not_(exists(engine, engine.not_(f), variables))


def rename(engine: BddEngine, f: int,
           mapping: Mapping[int, int]) -> int:
    """``f`` with every variable ``v`` replaced by ``mapping[v]``.

    The substitution is simultaneous.  It must be injective on the
    variables it actually moves and its targets must not collide with
    the un-renamed support -- otherwise two distinct variables would
    alias and the composition below would be unsound, so that is
    rejected rather than silently computed.
    """
    engine._check(f)
    moving = {s: t for s, t in mapping.items() if s != t}
    if not moving:
        return f
    support = engine.support(f)
    sources = support & set(moving)
    targets = {moving[s] for s in sources}
    if len(targets) != len(sources):
        raise BddError("rename mapping is not injective on the support")
    if targets & (support - sources):
        raise BddError("rename targets collide with un-renamed support "
                       "variables")
    var, low, high = engine._var, engine._low, engine._high
    cache: dict[int, int] = {}

    def walk(node: int) -> int:
        if node <= TRUE:
            return node
        done = cache.get(node)
        if done is None:
            level = var[node]
            lo, hi = walk(low[node]), walk(high[node])
            # ite-composition is order-agnostic: correct even when the
            # substitution is not monotone in the variable order
            done = engine.ite(engine.var(moving.get(level, level)), hi, lo)
            cache[node] = done
        return done

    return walk(f)


def and_exists(engine: BddEngine, f: int, g: int,
               variables: Iterable[int]) -> int:
    """``exists variables. f and g`` without building the conjunction.

    The relational-product workhorse: quantification happens *inside*
    the conjunction recursion, so the (often much larger) intermediate
    ``f and g`` BDD never materializes, and a TRUE existential branch
    short-circuits its sibling.
    """
    variables = frozenset(variables)
    engine._check(f)
    engine._check(g)
    if not variables:
        return engine.and_(f, g)
    last = max(variables)
    var = engine._var
    cache: dict[tuple[int, int], int] = {}

    def walk(a: int, b: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if b < a:  # conjunction commutes: canonical cache key
            a, b = b, a
        level = min(var[a], var[b])
        if level > last:  # no quantified variable left below here
            return engine.and_(a, b)
        key = (a, b)
        done = cache.get(key)
        if done is None:
            a0, a1 = engine._cofactors(a, level)
            b0, b1 = engine._cofactors(b, level)
            if level in variables:
                done = walk(a0, b0)
                if done != TRUE:
                    done = engine.or_(done, walk(a1, b1))
            else:
                done = engine._mk(level, walk(a0, b0), walk(a1, b1))
            cache[key] = done
        return done

    return walk(f, g)


class VariablePairing:
    """Interleaved current/next variable blocks for relation encoding.

    Bit ``i`` of the current state lives at engine variable ``2i``, bit
    ``i`` of the next state at ``2i + 1`` -- corresponding bits are
    adjacent in the fixed ascending order, the classic interleaving
    that keeps transition-relation BDDs compact.  The pairing is pure
    arithmetic (no engine state), so one instance can serve any number
    of engines and the layout is deterministic by construction.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise BddError(f"a pairing needs at least one bit, got {bits}")
        self.bits = bits

    def current(self, bit: int) -> int:
        self._check_bit(bit)
        return 2 * bit

    def next(self, bit: int) -> int:
        self._check_bit(bit)
        return 2 * bit + 1

    @property
    def current_vars(self) -> tuple[int, ...]:
        return tuple(2 * bit for bit in range(self.bits))

    @property
    def next_vars(self) -> tuple[int, ...]:
        return tuple(2 * bit + 1 for bit in range(self.bits))

    def prime(self, engine: BddEngine, f: int) -> int:
        """Rename current-state variables to their next-state partners."""
        return rename(engine, f, {2 * b: 2 * b + 1
                                  for b in range(self.bits)})

    def unprime(self, engine: BddEngine, f: int) -> int:
        """Rename next-state variables back to current-state ones."""
        return rename(engine, f, {2 * b + 1: 2 * b
                                  for b in range(self.bits)})

    def state_cube(self, engine: BddEngine, index: int,
                   primed: bool = False) -> int:
        """The minterm of state ``index`` over one variable block."""
        offset = 1 if primed else 0
        return engine.cube(((2 * bit + offset, bool(index >> bit & 1))
                            for bit in range(self.bits)))

    def _check_bit(self, bit: int) -> None:
        if not 0 <= bit < self.bits:
            raise BddError(f"bit {bit} outside pairing of {self.bits} bits")


def relational_image(engine: BddEngine, source: int,
                     relations: Sequence[int], pairing: VariablePairing,
                     disjunctive: bool = False) -> int:
    """States reachable in one step of a partitioned relation.

    ``source`` is a characteristic function over the current-state
    block; ``relations`` the partitioned transition relation over
    current + next blocks.  With ``disjunctive=True`` the partitions
    are united (one partition per input letter: image distributes over
    the union).  Otherwise they are conjoined with early-quantification
    scheduling: walking the partitions in order, every current-state
    variable is quantified out in the first :func:`and_exists` after
    which no later partition mentions it, so intermediate products stay
    as small as the partition order allows.  Returns the image over the
    *current* block (already un-primed).
    """
    current = frozenset(pairing.current_vars)
    if disjunctive:
        image = FALSE
        for relation in relations:
            image = engine.or_(image, and_exists(engine, source, relation,
                                                 current))
        return pairing.unprime(engine, image)
    supports = [engine.support(relation) for relation in relations]
    image = source
    for index, relation in enumerate(relations):
        later: set[int] = set()
        for support in supports[index + 1:]:
            later |= support
        ripe = (current & (engine.support(image) | supports[index])) - later
        image = and_exists(engine, image, relation, ripe)
    image = exists(engine, image, current & engine.support(image))
    return pairing.unprime(engine, image)


def reachable_states(engine: BddEngine, initial: int,
                     relations: Sequence[int], pairing: VariablePairing,
                     disjunctive: bool = False) -> tuple[int, int]:
    """Least fixpoint of :func:`relational_image` from ``initial``.

    Frontier-based image iteration: each round images only the states
    discovered in the previous round, so converged parts of the state
    space are not re-imaged.  Returns ``(reachable characteristic
    function, image iterations)``.
    """
    reached = initial
    frontier = initial
    iterations = 0
    while frontier != FALSE:
        iterations += 1
        image = relational_image(engine, frontier, relations, pairing,
                                 disjunctive=disjunctive)
        frontier = engine.diff(image, reached)
        reached = engine.or_(reached, frontier)
    return reached, iterations
