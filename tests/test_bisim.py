"""Tests for the kernel weak-bisimulation check (repro.automata.bisim).

Small hand-built step automata: transitions carry an input letter
(conditions) and the outputs of that step (actions).  The checks must
absorb timing skew (one side fires atomically what the other spreads
over cycles), respect hiding, and report shortest counterexamples.
"""

import pytest

from repro.automata import (AutomatonBuilder, BisimResult,
                            distinguishing_trace, weak_bisimilar)


def atomic_machine():
    """?go then x and y in one step, then quiescent."""
    b = AutomatonBuilder("atomic")
    b.add_state("s0")
    b.add_state("s1")
    b.add_transition("s0", "s0")                     # idle self-loop
    b.add_transition("s0", "s1", conditions=("go",),
                     actions=("x", "y"))
    b.add_transition("s1", "s1")
    return b.build()


def staged_machine(order=("x", "y")):
    """?go then the same outputs spread over separate silent cycles."""
    b = AutomatonBuilder("staged")
    b.add_state("t0")
    b.add_state("t1")
    b.add_state("t2")
    b.add_transition("t0", "t0")
    b.add_transition("t0", "t1", conditions=("go",),
                     actions=(order[0],))
    b.add_transition("t1", "t2", actions=(order[1],))
    b.add_transition("t2", "t2")
    return b.build()


class TestWeakBisimilar:
    def test_timing_skew_is_invisible(self):
        result = weak_bisimilar(atomic_machine(), staged_machine())
        assert result.bisimilar
        assert result.counterexample == ()
        assert result.explain() == "weakly bisimilar"

    def test_output_order_is_observable(self):
        # same multiset, reversed emission order across cycles
        result = weak_bisimilar(atomic_machine(),
                                staged_machine(order=("y", "x")))
        assert not result.bisimilar
        assert result.counterexample == ("?go", "!x")
        assert result.missing_side == "right"
        assert "only in the left" in result.explain()

    def test_hiding_restores_equivalence(self):
        skewed = staged_machine(order=("y", "x"))
        assert weak_bisimilar(atomic_machine(), skewed,
                              observable=("x",)).bisimilar
        assert weak_bisimilar(atomic_machine(), skewed,
                              observable=("y",)).bisimilar
        assert not weak_bisimilar(atomic_machine(), skewed).bisimilar

    def test_hidden_everything_is_trivially_bisimilar(self):
        result = weak_bisimilar(atomic_machine(),
                                staged_machine(order=("y", "x")),
                                observable=())
        assert result.bisimilar
        assert result.observable == ()

    def test_missing_input_edge_detected(self):
        b = AutomatonBuilder("deaf")
        b.add_state("u0")
        b.add_transition("u0", "u0")
        result = weak_bisimilar(atomic_machine(), b.build())
        assert not result.bisimilar
        assert result.counterexample == ("?go",)
        assert result.missing_side == "right"

    def test_result_shape(self):
        result = weak_bisimilar(atomic_machine(), staged_machine())
        assert isinstance(result, BisimResult)
        assert result.left_states >= 2
        assert result.right_states >= 3
        assert result.blocks >= 1
        assert result.observable is None


class TestDistinguishingTrace:
    def test_agreement_returns_none(self):
        assert distinguishing_trace(atomic_machine(),
                                    staged_machine()) is None

    def test_shortest_trace_and_side(self):
        trace, missing = distinguishing_trace(
            staged_machine(order=("y", "x")), atomic_machine())
        assert trace == ("?go", "!x")
        assert missing == "left"

    def test_respects_hiding(self):
        assert distinguishing_trace(
            atomic_machine(), staged_machine(order=("y", "x")),
            observable=("x",)) is None


class TestSymmetry:
    @pytest.mark.parametrize("swap", [False, True])
    def test_verdict_is_symmetric(self, swap):
        a, b = atomic_machine(), staged_machine(order=("y", "x"))
        if swap:
            a, b = b, a
        result = weak_bisimilar(a, b)
        assert not result.bisimilar
        # the missing side tracks the argument order
        assert result.missing_side == ("left" if swap else "right")


def chain_machine(length, label="ping", tail_actions=("z",)):
    """?label, then a long silent walk, then one observable action."""
    b = AutomatonBuilder(f"chain{length}")
    b.add_state("c0")
    b.add_transition("c0", "c0")
    for i in range(1, length + 1):
        b.add_state(f"c{i}")
    b.add_transition("c0", "c1", conditions=(label,))
    for i in range(1, length):
        b.add_transition(f"c{i}", f"c{i + 1}")     # deterministic τ-chain
    b.add_transition(f"c{length}", f"c{length}", actions=tail_actions)
    return b.build()


class TestTauChainCompression:
    def test_long_chains_still_bisimilar(self):
        # a 40-state silent walk vs a 2-state one: weakly equal
        result = weak_bisimilar(chain_machine(40), chain_machine(2))
        assert result.bisimilar
        # compression strips the interior of the walk before saturation
        assert result.left_states < 10

    def test_negative_verdict_survives_compression(self):
        result = weak_bisimilar(chain_machine(40, tail_actions=("z",)),
                                chain_machine(40, tail_actions=("w",)))
        assert not result.bisimilar
        # shortest distinguishing trace; either side's tail action leads
        assert result.counterexample in (("?ping", "!z"), ("?ping", "!w"))

    def test_tau_cycle_collapses(self):
        b = AutomatonBuilder("cycle")
        for name in ("a", "b", "c"):
            b.add_state(name)
        b.add_transition("a", "b")   # a -> b -> c -> a: pure τ-cycle
        b.add_transition("b", "c")
        b.add_transition("c", "a")
        cyclic = b.build()
        d = AutomatonBuilder("dead")
        d.add_state("only")
        d.add_transition("only", "only")
        result = weak_bisimilar(cyclic, d.build())
        assert result.bisimilar   # both are silent-divergent systems

    def test_compression_keeps_initial_behaviour(self):
        # initial state is itself inside a chain
        b = AutomatonBuilder("entry")
        for name in ("e0", "e1", "e2"):
            b.add_state(name)
        b.add_transition("e0", "e1")                 # initial is a chain state
        b.add_transition("e1", "e2", actions=("x",))
        b.add_transition("e2", "e2")
        lhs = b.build()
        c = AutomatonBuilder("direct")
        c.add_state("d0")
        c.add_state("d1")
        c.add_transition("d0", "d1", actions=("x",))
        c.add_transition("d1", "d1")
        result = weak_bisimilar(lhs, c.build())
        assert result.bisimilar
