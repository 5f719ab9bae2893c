"""Unit tests for the symbolic guard engine (BDDs + two-level covers)."""

import itertools
import random

import pytest

from repro.symbolic import (FALSE, TRUE, BddEngine, BddError, cover_literals,
                            cover_node, expand_cubes, irredundant_cover, isop,
                            minimal_cover)


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
        assert e.is_tautology(e.or_(a, e.not_(a)))
        assert e.is_false(e.and_(a, e.not_(a)))

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

    def test_implication_and_equivalence(self):
        e = BddEngine()
        a, b = e.var(0), e.var(1)
        assert e.implies(e.and_(a, b), a)
        assert not e.implies(a, e.and_(a, b))
        assert e.implies(FALSE, a) and e.implies(a, TRUE)
        assert e.equivalent(e.or_(a, b), e.or_(b, a))

    def test_eval_and_support(self):
        e = BddEngine()
        f = e.or_(e.and_(e.var(0), e.nvar(1)), e.var(3))
        assert e.eval(f, {0}) and not e.eval(f, {0, 1})
        assert e.eval(f, {3, 1})
        assert e.support(f) == frozenset({0, 1, 3})
        assert e.support(TRUE) == frozenset()

    def test_fingerprint_stable_across_engines(self):
        names = {0: "a", 1: "b", 2: "c"}
        e1, e2 = BddEngine(), BddEngine()
        f1 = e1.and_(e1.var(0), e1.or_(e1.var(1), e1.var(2)))
        f2 = e2.or_(e2.and_(e2.var(0), e2.var(2)),
                    e2.and_(e2.var(1), e2.var(0)))
        assert e1.fingerprint(f1, names.get) == e2.fingerprint(f2, names.get)
        assert e1.fingerprint(f1, names.get) != e1.fingerprint(
            e1.var(0), names.get)

    def test_foreign_node_rejected(self):
        e = BddEngine()
        with pytest.raises(BddError):
            e.eval(99, set())
        with pytest.raises(BddError):
            e.var(-1)


class TestCovers:
    def test_isop_stays_in_interval(self):
        rng = random.Random(11)
        for _ in range(150):
            e = BddEngine()
            nvars = rng.randint(1, 4)
            on_rows, onset = random_function(e, rng, nvars)
            dc_rows, dc = random_function(e, rng, nvars, density=0.2)
            upper = e.or_(onset, dc)
            cubes, node = isop(e, onset, upper)
            assert e.implies(onset, node)
            assert e.implies(node, upper)
            assert cover_node(e, cubes) == node

    def test_isop_rejects_empty_interval(self):
        e = BddEngine()
        with pytest.raises(ValueError):
            isop(e, TRUE, e.var(0))

    def test_expand_drops_literals_inside_upper(self):
        e = BddEngine()
        a, b = e.var(0), e.var(1)
        # cube a&b with upper = a: b is free
        cubes = expand_cubes(e, [((0, True), (1, True))], a)
        assert cubes == (((0, True),),)

    def test_irredundant_removes_covered_cubes(self):
        e = BddEngine()
        lower = e.var(0)
        cubes = irredundant_cover(
            e, [((0, True),), ((0, True), (1, True))], lower)
        assert cubes == (((0, True),),)

    def test_minimal_cover_agrees_on_care_rows(self):
        rng = random.Random(23)
        for _ in range(150):
            e = BddEngine()
            nvars = rng.randint(1, 4)
            on_rows, onset = random_function(e, rng, nvars)
            dc_rows, dc = random_function(e, rng, nvars, density=0.25)
            dc = e.diff(dc, onset)
            cover = minimal_cover(e, onset, dc)
            node = cover_node(e, cover)
            for row in itertools.product((0, 1), repeat=nvars):
                truth = {i for i, bit in enumerate(row) if bit}
                if e.eval(dc, truth):
                    continue  # don't-care row: anything goes
                assert e.eval(node, truth) == e.eval(onset, truth)

    def test_minimal_cover_exploits_dont_cares(self):
        e = BddEngine()
        # onset a&b, don't care everything with b false -> cover is just a
        onset = e.and_(e.var(0), e.var(1))
        dc = e.diff(e.var(0), onset)
        cover = minimal_cover(e, onset, dc)
        assert cover == (((0, True),),)
        assert cover_literals(cover) == 1
