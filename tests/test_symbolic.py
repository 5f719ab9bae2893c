"""Unit tests for the BDD engine and the guard rewrite's two-level covers."""

import itertools
import random

import pytest

from repro.automata.simplify import (cube_table, expand_cubes,
                                     irredundant_cover, isop, minimal_cover)
from repro.symbolic import FALSE, TRUE, BddEngine, BddError


def minterm_node(engine, row):
    """The minterm BDD of one 0/1 assignment row."""
    return engine.cube(tuple((var, bool(bit)) for var, bit in enumerate(row)))


def rows_node(engine, rows):
    return engine.disj(minterm_node(engine, row) for row in rows)


def random_function(engine, rng, nvars, density=0.4):
    rows = [row for row in itertools.product((0, 1), repeat=nvars)
            if rng.random() < density]
    return rows, rows_node(engine, rows)


class TestEngine:
    def test_canonicity_independent_of_construction_order(self):
        e = BddEngine()
        a, b, c = e.var(0), e.var(1), e.var(2)
        left = e.and_(a, e.or_(b, c))
        right = e.or_(e.and_(c, a), e.and_(a, b))
        assert left == right
        assert e.xor(left, right) == FALSE

    def test_terminal_rules(self):
        e = BddEngine()
        a = e.var(0)
        assert e.and_(a, TRUE) == a
        assert e.and_(a, FALSE) == FALSE
        assert e.or_(a, FALSE) == a
        assert e.or_(a, TRUE) == TRUE
        assert e.not_(e.not_(a)) == a
        assert e.or_(a, e.not_(a)) == TRUE
        assert e.and_(a, e.not_(a)) == FALSE

    def test_ite_matches_truth_table(self):
        e = BddEngine()
        rng = random.Random(7)
        for _ in range(50):
            _, f = random_function(e, rng, 3)
            _, g = random_function(e, rng, 3)
            _, h = random_function(e, rng, 3)
            node = e.ite(f, g, h)
            for row in itertools.product((0, 1), repeat=3):
                truth = {i for i, bit in enumerate(row) if bit}
                want = e.eval(g, truth) if e.eval(f, truth) \
                    else e.eval(h, truth)
                assert e.eval(node, truth) == want

    def test_cofactor(self):
        e = BddEngine()
        f = e.and_(e.var(0), e.or_(e.var(1), e.var(2)))
        assert e.cofactor(f, 0, True) == e.or_(e.var(1), e.var(2))
        assert e.cofactor(f, 0, False) == FALSE
        assert e.cofactor(f, 5, True) == f  # absent variable: unchanged

    def test_eval_and_support(self):
        e = BddEngine()
        f = e.or_(e.and_(e.var(0), e.nvar(1)), e.var(3))
        assert e.eval(f, {0}) and not e.eval(f, {0, 1})
        assert e.eval(f, {3, 1})
        assert e.support(f) == frozenset({0, 1, 3})
        assert e.support(TRUE) == frozenset()

    def test_foreign_node_rejected(self):
        e = BddEngine()
        with pytest.raises(BddError):
            e.eval(99, set())
        with pytest.raises(BddError):
            e.var(-1)


class TestCovers:
    """Hand examples of the truth-table covers (two variables: ``a`` is
    variable 0, ``b`` is variable 1); the general laws are the
    properties of ``tests/test_cover_properties.py``."""

    A = cube_table(2, ((0, True),))
    AB = cube_table(2, ((0, True), (1, True)))

    @staticmethod
    def random_table(rng, nvars, density):
        """A random truth table over ``nvars`` variables, row by row."""
        return sum(1 << minterm for minterm in range(1 << nvars)
                   if rng.random() < density)

    @staticmethod
    def cover_holds(cover, minterm):
        """Whether some cube of ``cover`` holds on one minterm."""
        return any(all(bool(minterm >> var & 1) == polarity
                       for var, polarity in cube) for cube in cover)

    def test_isop_stays_in_interval(self):
        rng = random.Random(11)
        for _ in range(150):
            nvars = rng.randint(1, 4)
            onset = self.random_table(rng, nvars, 0.4)
            upper = onset | self.random_table(rng, nvars, 0.2)
            cubes = isop(nvars, onset, upper)
            for minterm in range(1 << nvars):
                covered = self.cover_holds(cubes, minterm)
                if onset >> minterm & 1:
                    assert covered
                if covered:
                    assert upper >> minterm & 1

    def test_isop_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            isop(2, cube_table(2, ()), self.A)

    def test_expand_drops_literals_inside_upper(self):
        # cube a&b with upper = a: b is free
        cubes = expand_cubes(2, [((0, True), (1, True))], self.A)
        assert cubes == (((0, True),),)

    def test_irredundant_removes_covered_cubes(self):
        cubes = irredundant_cover(
            2, [((0, True),), ((0, True), (1, True))], self.A)
        assert cubes == (((0, True),),)

    def test_minimal_cover_agrees_on_care_rows(self):
        rng = random.Random(23)
        for _ in range(150):
            nvars = rng.randint(1, 4)
            onset = self.random_table(rng, nvars, 0.4)
            dc = self.random_table(rng, nvars, 0.25) & ~onset
            cover = minimal_cover(nvars, onset, dc)
            for minterm in range(1 << nvars):
                if dc >> minterm & 1:
                    continue  # don't-care row: anything goes
                assert self.cover_holds(cover, minterm) \
                    == bool(onset >> minterm & 1)

    def test_minimal_cover_exploits_dont_cares(self):
        # onset a&b, don't care everything with b false -> cover is just a
        cover = minimal_cover(2, self.AB, self.A & ~self.AB)
        assert cover == (((0, True),),)
