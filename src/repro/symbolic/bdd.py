"""Hash-consed reduced ordered BDDs over integer variables.

One :class:`BddEngine` owns a forest of ROBDD nodes.  Variables are
plain non-negative integers -- in the relational layer they are the
interleaved current/next bits of a
:class:`~repro.symbolic.relation.VariablePairing` -- and the variable
order is fixed to ascending numeric ID.  A fixed order makes every
function *canonical by construction*: two functions that are equal
resolve to the same node index no matter how they were built, so
equality is a pointer comparison.

Nodes are hash-consed through a unique table and all binary operations
route through :meth:`BddEngine.ite` with a computed table, so repeated
algebra stays near-linear in the number of *distinct* subproblems.

The engine deliberately has no complement edges and no garbage
collector: dropping the whole engine frees everything.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["BddError", "BddEngine", "FALSE", "TRUE"]


class BddError(ValueError):
    """Raised for malformed variables or foreign node references."""


#: Terminal node indices, shared by every engine.
FALSE = 0
TRUE = 1

#: Sentinel level of the terminals: below every real variable.
_TERMINAL_LEVEL = 1 << 60


class BddEngine:
    """A hash-consing ROBDD manager with a fixed ascending variable order.

    Node references are plain ints; ``FALSE`` (0) and ``TRUE`` (1) are
    the terminals.  References are only meaningful within the engine
    that produced them.
    """

    __slots__ = ("_var", "_low", "_high", "_unique", "_ite_cache",
                 "_var_nodes")

    def __init__(self) -> None:
        # index-aligned node arrays; slots 0/1 are the terminals
        self._var: list[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._low: list[int] = [FALSE, TRUE]
        self._high: list[int] = [FALSE, TRUE]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._var_nodes: dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def var(self, variable: int) -> int:
        """The function ``variable`` (a positive literal)."""
        node = self._var_nodes.get(variable)
        if node is None:
            if variable < 0:
                raise BddError(f"variable IDs must be >= 0, got {variable}")
            node = self._mk(variable, FALSE, TRUE)
            self._var_nodes[variable] = node
        return node

    def nvar(self, variable: int) -> int:
        """The function ``not variable`` (a negative literal)."""
        return self.not_(self.var(variable))

    def literal(self, variable: int, positive: bool) -> int:
        return self.var(variable) if positive else self.nvar(variable)

    def cube(self, literals: Iterable[tuple[int, bool]]) -> int:
        """Conjunction of ``(variable, polarity)`` literals."""
        node = TRUE
        for variable, positive in sorted(set(literals)):
            node = self.and_(node, self.literal(variable, positive))
        return node

    def disj(self, nodes: Iterable[int]) -> int:
        out = FALSE
        for node in nodes:
            out = self.or_(out, node)
        return out

    # ------------------------------------------------------------------
    # boolean algebra (all through the one memoized ite)
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """``if f then g else h``, the one connective everything uses."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        var = self._var
        level = min(var[f], var[g], var[h])
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        node = self._mk(level, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_cache[key] = node
        return node

    def not_(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def diff(self, f: int, g: int) -> int:
        """``f and not g``."""
        return self.ite(f, self.not_(g), FALSE)

    # ------------------------------------------------------------------
    # cofactors and structure
    # ------------------------------------------------------------------
    def cofactor(self, f: int, variable: int, value: bool) -> int:
        """``f`` with ``variable`` fixed to ``value`` (Shannon cofactor)."""
        self._check(f)
        cache: dict[int, int] = {}

        def walk(node: int) -> int:
            top = self._var[node]
            if top > variable:
                return node
            if top == variable:
                return self._high[node] if value else self._low[node]
            done = cache.get(node)
            if done is None:
                done = self._mk(top, walk(self._low[node]),
                                walk(self._high[node]))
                cache[node] = done
            return done

        return walk(f)

    def support(self, f: int) -> frozenset[int]:
        """Every variable ``f`` actually depends on."""
        self._check(f)
        seen: set[int] = set()
        out: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            out.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return frozenset(out)

    def eval(self, f: int, true_variables) -> bool:
        """Evaluate under the valuation ``v -> (v in true_variables)``."""
        self._check(f)
        node = f
        while node > TRUE:
            if self._var[node] in true_variables:
                node = self._high[node]
            else:
                node = self._low[node]
        return node == TRUE

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def size(self, f: int) -> int:
        """Number of internal DAG nodes reachable from ``f``."""
        self._check(f)
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    # ------------------------------------------------------------------
    def _mk(self, variable: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (variable, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(variable)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def _cofactors(self, f: int, level: int) -> tuple[int, int]:
        if self._var[f] != level:
            return f, f
        return self._low[f], self._high[f]

    def _check(self, f: int) -> None:
        if not 0 <= f < len(self._var):
            raise BddError(f"node {f} does not belong to this engine")
