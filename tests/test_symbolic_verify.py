"""Unit tests for the symbolic verification tier's building blocks.

Covers the relational algebra over the BDD engine
(:mod:`repro.symbolic.relation`), the interned step systems and
the determinized trace-equivalence fixpoint
(:mod:`repro.automata.symbolic`) on toy systems small enough to check
by hand -- including the concrete distinguishing-trace counterexample
and the relational image-iteration cross-check.
"""

import itertools
import random

import pytest

from repro.automata import (AutomataError, ClassVerdict, ProductEnvironment,
                            StepSystem, reachable_set_summary,
                            symbolic_trace_equivalence)
from repro.symbolic import (FALSE, TRUE, BddEngine, BddError,
                            VariablePairing, and_exists, exists, forall,
                            reachable_states, relational_image, rename)


def random_node(engine, rng, nvars, density=0.45):
    rows = [row for row in itertools.product((0, 1), repeat=nvars)
            if rng.random() < density]
    return engine.disj(
        engine.cube(tuple((var, bool(bit)) for var, bit in enumerate(row)))
        for row in rows)


class TestQuantification:
    def test_exists_drops_the_variable(self):
        e = BddEngine()
        f = e.and_(e.var(0), e.or_(e.var(1), e.var(2)))
        g = exists(e, f, (1,))
        assert g == e.var(0)  # exists b. a and (b or c) == a
        assert 1 not in e.support(g)

    def test_exists_matches_cofactor_disjunction(self):
        e = BddEngine()
        rng = random.Random(11)
        for _ in range(25):
            f = random_node(e, rng, 4)
            var = rng.randrange(4)
            expected = e.or_(e.cofactor(f, var, False),
                             e.cofactor(f, var, True))
            assert exists(e, f, (var,)) == expected

    def test_forall_is_the_dual(self):
        e = BddEngine()
        rng = random.Random(12)
        for _ in range(25):
            f = random_node(e, rng, 4)
            var = rng.randrange(4)
            expected = e.and_(e.cofactor(f, var, False),
                              e.cofactor(f, var, True))
            assert forall(e, f, (var,)) == expected

    def test_empty_variable_set_is_identity(self):
        e = BddEngine()
        f = e.xor(e.var(0), e.var(3))
        assert exists(e, f, ()) == f
        assert forall(e, f, ()) == f


class TestRename:
    def test_block_swap_round_trips(self):
        e = BddEngine()
        f = e.and_(e.var(0), e.not_(e.var(2)))
        shifted = rename(e, f, {0: 1, 2: 3})
        assert shifted == e.and_(e.var(1), e.not_(e.var(3)))
        assert rename(e, shifted, {1: 0, 3: 2}) == f

    def test_non_monotone_substitution_is_sound(self):
        # the ite-composition must not depend on the substitution
        # preserving the variable order
        e = BddEngine()
        f = e.and_(e.var(0), e.or_(e.var(1), e.var(2)))
        swapped = rename(e, f, {0: 2, 2: 0})
        assert swapped == e.and_(e.var(2), e.or_(e.var(1), e.var(0)))

    def test_non_injective_mapping_rejected(self):
        e = BddEngine()
        f = e.and_(e.var(0), e.var(1))
        with pytest.raises(BddError):
            rename(e, f, {0: 5, 1: 5})

    def test_collision_with_unrenamed_support_rejected(self):
        e = BddEngine()
        f = e.and_(e.var(0), e.var(1))
        with pytest.raises(BddError):
            rename(e, f, {0: 1})

    def test_identity_mapping_is_noop(self):
        e = BddEngine()
        f = e.or_(e.var(0), e.var(4))
        assert rename(e, f, {0: 0, 7: 7}) == f


class TestAndExists:
    def test_matches_unfused_relational_product(self):
        e = BddEngine()
        rng = random.Random(13)
        for _ in range(30):
            f = random_node(e, rng, 5)
            g = random_node(e, rng, 5)
            variables = tuple(v for v in range(5) if rng.random() < 0.5)
            assert and_exists(e, f, g, variables) == \
                exists(e, e.and_(f, g), variables)

    def test_no_variables_is_plain_conjunction(self):
        e = BddEngine()
        f, g = e.var(0), e.not_(e.var(0))
        assert and_exists(e, f, g, ()) == FALSE


class TestVariablePairing:
    def test_interleaved_layout(self):
        pairing = VariablePairing(3)
        assert pairing.current_vars == (0, 2, 4)
        assert pairing.next_vars == (1, 3, 5)
        assert pairing.current(2) == 4
        assert pairing.next(2) == 5

    def test_bit_bounds_and_size_validated(self):
        with pytest.raises(BddError):
            VariablePairing(0)
        with pytest.raises(BddError):
            VariablePairing(2).current(2)

    def test_prime_unprime_round_trip(self):
        e = BddEngine()
        pairing = VariablePairing(2)
        cube = pairing.state_cube(e, 2)
        primed = pairing.prime(e, cube)
        assert primed == pairing.state_cube(e, 2, primed=True)
        assert pairing.unprime(e, primed) == cube

    def test_state_cube_encodes_the_index(self):
        e = BddEngine()
        pairing = VariablePairing(3)
        for index in range(8):
            cube = pairing.state_cube(e, index)
            bits = {pairing.current(b) for b in range(3) if index >> b & 1}
            for candidate in range(8):
                assignment = {pairing.current(b) for b in range(3)
                              if candidate >> b & 1}
                assert e.eval(cube, assignment) == (assignment == bits)


class TestImageIteration:
    def _ring(self, e, pairing, n):
        """Relation of the n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
        return e.disj(
            e.and_(pairing.state_cube(e, i),
                   pairing.state_cube(e, (i + 1) % n, primed=True))
            for i in range(n))

    def test_single_image_step(self):
        e = BddEngine()
        pairing = VariablePairing(2)
        ring = self._ring(e, pairing, 4)
        image = relational_image(e, pairing.state_cube(e, 1), [ring],
                                 pairing)
        assert image == pairing.state_cube(e, 2)

    def test_disjunctive_and_conjunctive_agree(self):
        e = BddEngine()
        pairing = VariablePairing(2)
        ring = self._ring(e, pairing, 4)
        source = e.or_(pairing.state_cube(e, 0), pairing.state_cube(e, 2))
        assert relational_image(e, source, [ring], pairing,
                                disjunctive=True) == \
            relational_image(e, source, [ring], pairing)

    def test_conjunctive_partitions_constrain_jointly(self):
        # two one-bit component relations: bit 0 flips, bit 1 holds --
        # the conjunctive image must satisfy both partitions at once
        e = BddEngine()
        pairing = VariablePairing(2)
        flip0 = e.xor(e.var(pairing.current(0)), e.var(pairing.next(0)))
        hold1 = e.not_(e.xor(e.var(pairing.current(1)),
                             e.var(pairing.next(1))))
        image = relational_image(e, pairing.state_cube(e, 2),
                                 [flip0, hold1], pairing)
        assert image == pairing.state_cube(e, 3)

    def test_reachable_states_closes_the_ring(self):
        e = BddEngine()
        pairing = VariablePairing(2)
        ring = self._ring(e, pairing, 4)
        reached, iterations = reachable_states(
            e, pairing.state_cube(e, 0), [ring], pairing,
            disjunctive=True)
        assert reached == e.disj(pairing.state_cube(e, i)
                                 for i in range(4))
        assert iterations == 4  # 3 discovery rounds + 1 empty frontier

    def test_unreachable_states_stay_out(self):
        e = BddEngine()
        pairing = VariablePairing(2)
        # 0 -> 1 only; 2 and 3 are disconnected
        chain = e.and_(pairing.state_cube(e, 0),
                       pairing.state_cube(e, 1, primed=True))
        reached, _ = reachable_states(e, pairing.state_cube(e, 0),
                                      [chain], pairing, disjunctive=True)
        assert reached == e.or_(pairing.state_cube(e, 0),
                                pairing.state_cube(e, 1))


# ----------------------------------------------------------------------
# toy step systems for the trace-equivalence fixpoint
# ----------------------------------------------------------------------
class _OfferEnv(ProductEnvironment):
    """Offer silence everywhere plus per-config extra letters."""

    def __init__(self, offers):
        super().__init__()
        self._offers = {config: tuple(frozenset(letter)
                                      for letter in letters)
                        for config, letters in offers.items()}

    def letters(self, env_state, config):
        yield frozenset()
        yield from self._offers.get(config, ())


def _table_system(name, table, offers):
    """A StepSystem from ``(config, letter) -> (succ, actions)``.

    Unlisted (config, letter) pairs are silent self-loops.
    """
    def step(config, letter):
        return table.get((config, frozenset(letter)), (config, ()))
    return StepSystem(name, 0, step, _OfferEnv(offers))


GO = frozenset({"go"})
SILENT = frozenset()


def _ping_fused():
    """Emits ack in the same step that consumes go."""
    return _table_system("fused", {(0, GO): (1, ("ack",)),
                                   (1, SILENT): (0, ())},
                         {0: (GO,)})


def _ping_staged():
    """Consumes go first, emits ack one silent step later."""
    return _table_system("staged", {(0, GO): (1, ()),
                                    (1, SILENT): (2, ("ack",)),
                                    (2, SILENT): (0, ())},
                         {0: (GO,)})


def _ping_tampered():
    """Consumes go but never emits the ack."""
    return _table_system("tampered", {(0, GO): (1, ()),
                                      (1, SILENT): (0, ())},
                         {0: (GO,)})


CLASSES = [("ack", frozenset({"ack"}))]


def _burst(actions):
    """Emits ``actions`` in the one step that consumes go."""
    return _table_system("burst", {(0, GO): (1, actions),
                                   (1, SILENT): (0, ())},
                         {0: (GO,)})


def _split():
    """Emits a, then b one silent step later."""
    return _table_system("split", {(0, GO): (1, ("a",)),
                                   (1, SILENT): (2, ("b",)),
                                   (2, SILENT): (0, ())},
                         {0: (GO,)})


TWO_CLASSES = [("A", frozenset({"a"})), ("B", frozenset({"b"}))]


class TestStepSystem:
    def test_interning_is_dense_and_shared(self):
        system = _ping_staged()
        assert len(system) == 3
        assert sorted(system.key_of(s)[0] for s in range(3)) == [0, 1, 2]
        # letters and action tuples are interned to shared objects
        letters = [system.letter_of(i) for i in range(system.n_letters)]
        assert SILENT in letters and GO in letters
        acks = [actions for _s, _l, actions, _succ in system.iter_rows()
                if actions]
        assert all(a is acks[0] for a in acks)

    def test_rows_are_stable_and_deterministic(self):
        system = _ping_staged()
        assert system.rows(0) is system.rows(0)
        again = _ping_staged()
        assert [system.rows(s) for s in range(len(system))] == \
            [again.rows(s) for s in range(len(again))]


class TestReachableSetSummary:
    def test_relational_check_agrees_with_enumeration(self):
        engine = BddEngine()
        system = _ping_staged()
        node, size, iterations = reachable_set_summary(
            engine, system, relational_check=True)
        assert node not in (FALSE,)
        assert size >= 1
        assert iterations >= 3  # three states discovered one per round

    def test_saturated_block_is_true(self):
        # 4 states on 2 bits: the interval predicate {i : i < 4} is
        # the whole block, whose reduced BDD is the TRUE terminal
        engine = BddEngine()
        system = _table_system("square", {(0, GO): (1, ()),
                                          (1, GO): (2, ()),
                                          (2, GO): (3, ()),
                                          (3, GO): (0, ())},
                               {0: (GO,), 1: (GO,), 2: (GO,), 3: (GO,)})
        node, size, _ = reachable_set_summary(engine, system)
        assert node == TRUE
        assert size == engine.size(TRUE)


class TestSymbolicTraceEquivalence:
    def test_timing_skew_is_weakly_invisible(self):
        result = symbolic_trace_equivalence(_ping_fused(), _ping_staged(),
                                            CLASSES)
        assert result.equivalent
        assert result.left_states == 2
        assert result.right_states == 3
        assert result.pairs_checked > 0

    def test_tampered_side_yields_shortest_trace(self):
        result = symbolic_trace_equivalence(_ping_fused(),
                                            _ping_tampered(), CLASSES)
        assert not result.equivalent
        verdict = result.verdicts[0]
        assert verdict.counterexample == ("?go", "!ack")
        assert verdict.missing_side == "right"
        assert "trace ?go !ack is possible only in the left one" in \
            verdict.explain("the left one", "the right one")

    def test_tamper_detected_from_the_other_side_too(self):
        result = symbolic_trace_equivalence(_ping_tampered(),
                                            _ping_fused(), CLASSES)
        verdict = result.verdicts[0]
        assert not verdict.equivalent
        assert verdict.missing_side == "left"

    def test_fixpoint_safety_valve(self, monkeypatch):
        import repro.automata.symbolic as symbolic
        monkeypatch.setattr(symbolic, "MAX_PAIR_FIXPOINT", 1)
        with pytest.raises(AutomataError):
            symbolic_trace_equivalence(_ping_fused(), _ping_staged(),
                                       CLASSES)

    def test_verdict_explain_for_equivalence(self):
        verdict = ClassVerdict("ack", True, 3)
        assert verdict.explain() == "weakly trace-equivalent"


class TestAllVisiblePass:
    def test_one_pass_proves_every_class(self):
        result = symbolic_trace_equivalence(_burst(("a", "b")),
                                            _burst(("a", "b")), TWO_CLASSES)
        assert result.equivalent and not result.fallback
        assert [v.label for v in result.verdicts] == ["all-visible"]
        assert result.pairs_checked == result.verdicts[0].pairs > 0

    def test_firing_order_within_a_step_is_invisible(self):
        # the STG stepper reports firing order, the controller side
        # sorts: the all-visible label must be the sorted multiset
        result = symbolic_trace_equivalence(_burst(("b", "a")),
                                            _burst(("a", "b")), TWO_CLASSES)
        assert result.equivalent and not result.fallback

    def test_burst_grouping_falls_back_to_the_classes(self):
        # a+b in one step against a then b: the all-visible pass sees
        # different labels, while each class sees one action either way
        result = symbolic_trace_equivalence(_burst(("a", "b")), _split(),
                                            TWO_CLASSES)
        assert result.equivalent and result.fallback
        assert [v.label for v in result.verdicts] == ["A", "B"]
        assert all(v.equivalent for v in result.verdicts)
        assert result.pairs_checked > sum(v.pairs for v in result.verdicts)

    def test_fallback_keeps_the_class_counterexample(self):
        result = symbolic_trace_equivalence(_ping_fused(), _ping_tampered(),
                                            CLASSES + TWO_CLASSES)
        assert result.fallback and not result.equivalent
        assert [v.equivalent for v in result.verdicts] == [False, True, True]
        assert result.verdicts[0].counterexample == ("?go", "!ack")

    def test_two_same_step_members_of_a_class_still_raise(self):
        from repro.automata.symbolic import _ClassView
        system = _burst(("a", "b"))
        classes = [("AB", frozenset({"a", "b"})), ("C", frozenset({"c"}))]
        view = _ClassView(system, classes)
        with pytest.raises(AutomataError, match="two same-step observables"):
            view.successors(view.closure((0,)))
        with pytest.raises(AutomataError, match="two same-step observables"):
            symbolic_trace_equivalence(_burst(("a", "b")),
                                       _burst(("a", "b")), classes)
