"""Unit tests for the shared automaton kernel (repro.automata)."""

import pytest

from repro.automata import (AutomataError, AutomatonBuilder,
                            CompositionConfig, ProductEnvironment,
                            SequentialRunner, StepSystem, SymbolTable,
                            SynchronousComposition, TokenExecutor,
                            encode_names, internal_signals,
                            minimize_automaton, reachable_automaton,
                            refine_partition, synchronous_product)


def chain_automaton():
    """idle -> a -> b -> idle, each hop guarded and acting."""
    b = AutomatonBuilder("chain")
    b.add_state("idle")
    b.add_state("a")
    b.add_state("b")
    b.add_transition("idle", "a", conditions=("go",), actions=("start_a",))
    b.add_transition("a", "b", conditions=("done_a",), actions=("start_b",))
    b.add_transition("b", "idle", conditions=("done_b",), actions=("fin",))
    return b.build()


class TestSymbolTable:
    def test_round_trip(self):
        table = SymbolTable()
        assert table.intern("x") == table.intern("x")
        assert table.name_of(table.intern("y")) == "y"
        assert table.ids_of(["x", "ghost"]) == {table.id_of("x")}
        assert "ghost" not in table


class TestAutomatonCore:
    def test_duplicate_state_rejected(self):
        b = AutomatonBuilder("dup")
        b.add_state("s")
        with pytest.raises(AutomataError):
            b.add_state("s")

    def test_unknown_endpoint_rejected(self):
        b = AutomatonBuilder("ghost")
        b.add_state("s")
        with pytest.raises(AutomataError):
            b.add_transition("s", "nowhere")

    def test_out_transitions_preserve_priority(self):
        b = AutomatonBuilder("prio")
        b.add_state("s")
        b.add_state("t")
        b.add_transition("s", "t", conditions=("x",), actions=("first",))
        b.add_transition("s", "s", conditions=("x",), actions=("second",))
        a = b.build()
        sym = a.symbols
        assert [sym.names_of(t.actions) for t in a.out(a.index_of("s"))] \
            == [("first",), ("second",)]

    def test_signal_inventories(self):
        a = chain_automaton()
        assert a.input_names() == ["done_a", "done_b", "go"]
        assert a.output_names() == ["fin", "start_a", "start_b"]

    def test_fingerprint_ignores_signal_declaration_order(self):
        def build(cond_order):
            b = AutomatonBuilder("fp")
            b.add_state("s")
            b.add_state("t")
            b.add_transition("s", "t", conditions=cond_order,
                             actions=("out",))
            return b.build()
        assert build(("p", "q")).fingerprint() == \
            build(("q", "p")).fingerprint()

    def test_fingerprint_sees_structure(self):
        a = chain_automaton()
        b = AutomatonBuilder("chain")
        b.add_state("idle")
        b.add_state("a")
        b.add_state("b")
        b.add_transition("idle", "a", conditions=("go",),
                         actions=("start_a",))
        b.add_transition("a", "b", conditions=("done_a",),
                         actions=("start_b",))
        b.add_transition("b", "idle", conditions=("done_b",),
                         actions=("DIFFERENT",))
        assert a.fingerprint() != b.build().fingerprint()


class TestMinimizer:
    def build_diamond(self):
        """s0 branches to equivalent a/b which rejoin at end."""
        b = AutomatonBuilder("diamond")
        for s in ("s0", "a", "b", "end"):
            b.add_state(s)
        b.add_transition("s0", "a", conditions=("p",))
        b.add_transition("s0", "b", conditions=("q",))
        b.add_transition("a", "end", conditions=("t",), actions=("out",))
        b.add_transition("b", "end", conditions=("t",), actions=("out",))
        b.add_transition("end", "s0")
        return b.build()

    def test_equivalent_states_merge(self):
        reduced, refinement = minimize_automaton(self.build_diamond())
        assert refinement.merged == 1
        assert set(reduced.state_names) == {"s0", "a", "end"}

    def test_refinement_deterministic(self):
        a = self.build_diamond()
        assert refine_partition(a) == refine_partition(a)

    def test_initial_preferred_as_representative(self):
        b = AutomatonBuilder("entry")
        b.add_state("a")
        b.add_state("b")
        b.add_state("end")
        b.add_transition("a", "end", conditions=("t",), actions=("out",))
        b.add_transition("b", "end", conditions=("t",), actions=("out",))
        a = b.build(initial="b")
        reduced, refinement = minimize_automaton(a, ordered=True)
        assert refinement.merged == 1
        assert "b" in reduced.state_names
        assert "a" not in reduced.state_names
        assert reduced.name_of(reduced.initial) == "b"

    def test_ordered_signatures_respect_priority(self):
        # two states with the same transition *set* but swapped priority:
        # overlapping guards make the order observable
        b = AutomatonBuilder("prio")
        for s in ("p", "q", "t1", "t2"):
            b.add_state(s)
        b.add_transition("t1", "t1", actions=("one",))
        b.add_transition("t2", "t2", actions=("two",))
        b.add_transition("p", "t1", conditions=("x",), actions=("first",))
        b.add_transition("p", "t2", conditions=("x",), actions=("second",))
        b.add_transition("q", "t2", conditions=("x",), actions=("second",))
        b.add_transition("q", "t1", conditions=("x",), actions=("first",))
        a = b.build(initial="p")
        _, unordered = minimize_automaton(a, ordered=False)
        _, ordered = minimize_automaton(a, ordered=True)
        assert unordered.merged == 1       # same behaviour as a *set*
        assert ordered.merged == 0         # priority makes them distinct

    def test_key_partition_never_crossed(self):
        b = AutomatonBuilder("keys")
        b.add_state("a", key="cpu")
        b.add_state("b", key="fpga")
        a = b.build()
        assert refine_partition(a).n_blocks == 2


class TestTokenExecutor:
    def fork_join(self):
        """R forks to two chains that join at D (marked-graph shape)."""
        b = AutomatonBuilder("forkjoin")
        for s in ("R", "u", "v", "D"):
            b.add_state(s)
        b.add_transition("R", "u", actions=("go_u",))
        b.add_transition("R", "v", actions=("go_v",))
        b.add_transition("u", "D", conditions=("done_u",))
        b.add_transition("v", "D", conditions=("done_v",))
        return b.build(initial="R")

    def test_join_requires_all_inputs(self):
        a = self.fork_join()
        ex = TokenExecutor(a, final=[a.index_of("D")])
        state, first = ex.fire(ex.initial, 0)
        assert sorted(first) == ["go_u", "go_v"]
        state, _ = ex.fire(state, ex.mask_of({"done_u"}))
        assert not ex.done_in(state)
        state, _ = ex.fire(state, ex.mask_of({"done_v"}))
        assert ex.done_in(state)

    def test_conditions_latched(self):
        a = self.fork_join()
        ex = TokenExecutor(a, final=[a.index_of("D")])
        # both dones latched before the fork even fires
        state, _ = ex.fire(ex.initial, ex.mask_of({"done_u", "done_v"}))
        assert ex.done_in(state)

    def test_reset_replays_identically(self):
        a = self.fork_join()
        ex = TokenExecutor(a, final=[a.index_of("D")])
        signals = [set(), {"done_u"}, {"done_v"}]

        def run():
            state, emitted = ex.initial, []
            for names in signals:
                state, actions = ex.fire(state, ex.mask_of(names))
                emitted.append(actions)
            return state, emitted

        end, first = run()
        assert ex.done_in(end)
        assert not ex.done_in(ex.initial)
        assert run() == (end, first)

    def test_requires_initial_state(self):
        b = AutomatonBuilder("empty")
        with pytest.raises(AutomataError):
            TokenExecutor(b.build())

    def test_snapshot_restore_round_trip(self):
        a = self.fork_join()
        ex = TokenExecutor(a, final=[a.index_of("D")])
        both = ex.mask_of({"done_u", "done_v"})
        mid, _ = ex.fire(ex.initial, 0)
        done, emitted = ex.fire(mid, both)
        assert ex.done_in(done)
        assert not ex.done_in(mid)
        # a run state is a value: runs continue exactly where it was taken
        assert emitted == ()
        assert ex.fire(mid, both) == (done, ())

    def test_snapshots_identify_configurations_not_histories(self):
        a = self.fork_join()
        ex = TokenExecutor(a, final=[a.index_of("D")])
        state, _ = ex.fire(ex.initial, ex.mask_of({"done_u"}))
        two_steps, _ = ex.fire(state, ex.mask_of({"done_v"}))
        one_step, _ = ex.fire(ex.initial, ex.mask_of({"done_u", "done_v"}))
        assert one_step == two_steps

    def test_round_limited_stepping_exposes_intermediates(self):
        b = AutomatonBuilder("cascade")
        for s in ("R", "m", "D"):
            b.add_state(s)
        b.add_transition("R", "m", actions=("first",))
        b.add_transition("m", "D", actions=("second",))
        a = b.build(initial="R")
        ex = TokenExecutor(a, final=[a.index_of("D")])
        assert ex.fire(ex.initial, 0)[1] == ("first", "second")
        state, emitted = ex.fire(ex.initial, 0, max_rounds=1)
        assert emitted == ("first",)
        assert not ex.done_in(state)
        state, emitted = ex.fire(state, 0, max_rounds=1)
        assert emitted == ("second",)
        assert ex.done_in(state)


class TestSequentialRunner:
    def test_priority_and_moore(self):
        b = AutomatonBuilder("m")
        b.add_state("s", outputs=("alive",))
        b.add_state("t")
        b.add_transition("s", "t", conditions=("x",), actions=("hop",))
        b.add_transition("s", "s", conditions=("x",), actions=("shadowed",))
        a = b.build()
        runner = SequentialRunner(a)
        sym = a.symbols
        state, outs = runner.step(a.index_of("s"), sym.ids_of({"x"}))
        assert a.name_of(state) == "t"
        assert sym.names_of(outs) == ("alive", "hop")
        state, outs = runner.step(a.index_of("s"), set())
        assert a.name_of(state) == "s"
        assert sym.names_of(outs) == ("alive",)


def ping_pong():
    """Two FSMs handshaking over hidden tick/tock channels."""
    ping = AutomatonBuilder("ping")
    ping.add_state("idle")
    ping.add_state("sent")
    ping.add_transition("idle", "sent", conditions=("kick",),
                        actions=("tick",))
    ping.add_transition("sent", "idle", conditions=("tock",),
                        actions=("round_done",))
    pong = AutomatonBuilder("pong")
    pong.add_state("wait")
    pong.add_state("got")
    pong.add_transition("wait", "got", conditions=("tick",),
                        actions=("work",))
    pong.add_transition("got", "wait", actions=("tock",))
    return ping.build(), pong.build()


class TestSynchronousComposition:
    def test_internal_signal_detection(self):
        assert internal_signals(ping_pong()) == ("tick", "tock")

    def test_channel_delay_and_completion(self):
        composition = SynchronousComposition(ping_pong())
        external = []
        external += composition.cycle(pulses={"kick"})
        for _ in range(4):
            external += composition.cycle()
        assert "work" in external
        assert "round_done" in external
        # hidden channels never leak
        assert "tick" not in external and "tock" not in external
        # kick stays latched (flag-register semantics), so after the
        # round completes ping has already re-fired into 'sent'
        assert composition.state_names == ("sent", "wait")

    def test_product_materializes_composite_behaviour(self):
        product = synchronous_product(ping_pong())
        assert product.initial is not None
        # the composed round trip appears as product transitions
        actions = {product.symbols.name_of(a)
                   for t in product.transitions for a in t.actions}
        assert {"work", "round_done"} <= actions
        assert "tick" not in actions  # hidden channel stays hidden
        assert 3 <= len(product) <= 8

    def test_product_state_bound_enforced(self):
        with pytest.raises(AutomataError):
            synchronous_product(ping_pong(), max_states=1)

    def test_product_minimizes_like_any_automaton(self):
        product = synchronous_product(ping_pong())
        reduced, refinement = minimize_automaton(product, ordered=True)
        assert len(reduced) == len(product) - refinement.merged

    def test_product_explores_breadth_first(self):
        # regression: exploration used a LIFO pop (depth-first) while
        # the p<index>[...] labels promise breadth ordering; the label
        # sequence is pinned so a traversal change cannot slip through
        product = synchronous_product(ping_pong())
        assert product.state_names == (
            "p0[idle|wait]", "p1[sent|wait]", "p2[sent|got]",
            "p3[sent|wait]", "p4[idle|got]")
        again = synchronous_product(ping_pong())
        assert again.state_names == product.state_names
        assert again.fingerprint() == product.fingerprint()

    def test_held_signals_are_not_latched(self):
        b = AutomatonBuilder("hop")
        b.add_state("s0")
        b.add_state("s1")
        b.add_state("s2")
        b.add_transition("s0", "s1", conditions=("kick",))
        b.add_transition("s1", "s2", conditions=("kick",))
        letters = [frozenset(), frozenset({"kick"})]

        def silent_successor(product, src):
            sym = product.symbols
            return next(product.name_of(t.dst) for t in product.out(src)
                        if not sym.names_of(t.conditions))

        latched = synchronous_product([b.build()], letters=letters)
        # one kick pulse latches: the silent letter still advances s1
        assert silent_successor(latched, 1) == "p2[s2]"
        held = synchronous_product([b.build()], letters=letters,
                                   held=("kick",))
        # held for one cycle only: silence leaves s1 where it is
        assert silent_successor(held, 1) == "p1[s1]"

    def test_environment_policy_prunes_and_extends_states(self):
        class OneShot(ProductEnvironment):
            """'kick' admissible only until it was delivered once."""

            def initial_state(self):
                return True

            def letters(self, env_state, config):
                letters = [frozenset()]
                if env_state:
                    letters.append(frozenset({"kick"}))
                return letters

            def advance(self, env_state, letter, actions):
                return env_state and "kick" not in letter

        ping, pong = ping_pong()
        open_product = synchronous_product((ping, pong))
        constrained = synchronous_product((ping, pong),
                                          environment=OneShot())
        sym = constrained.symbols
        kick = sym.id_of("kick")
        kick_edges = [t for t in constrained.transitions
                      if kick in t.conditions]
        assert kick_edges  # admissible once...
        # ...and never from a post-kick state: every kick edge leaves a
        # state whose environment half still allows it
        for t in kick_edges:
            assert constrained.key_of(t.src)[1] is True
        # the open product may pulse kick from every state; the
        # environment prunes those replays away
        open_kick = open_product.symbols.id_of("kick")
        open_edges = [t for t in open_product.transitions
                      if open_kick in t.conditions]
        assert len(kick_edges) < len(open_edges)


class TestReachableAutomaton:
    def test_materializes_a_pure_stepper(self):
        def step(config, letter):
            if "inc" in letter:
                nxt = (config + 1) % 3
                return nxt, ("wrap",) if nxt == 0 else ()
            return config, ()

        automaton = reachable_automaton(
            "mod3", 0, step, letters=[frozenset(), frozenset({"inc"})],
            label_of=lambda config, index: f"n{config}")
        assert automaton.state_names == ("n0", "n1", "n2")
        sym = automaton.symbols
        wraps = [t for t in automaton.transitions
                 if sym.names_of(t.actions) == ("wrap",)]
        assert len(wraps) == 1
        assert automaton.name_of(wraps[0].src) == "n2"
        assert automaton.name_of(wraps[0].dst) == "n0"

    def test_state_bound_enforced(self):
        with pytest.raises(AutomataError):
            reachable_automaton(
                "counter", 0, lambda c, letter: (c + 1, ()),
                letters=[frozenset()], max_states=10)

    def test_state_bound_is_inclusive(self):
        # a ten-state ring fits a bound of exactly ten, not of nine
        def ring(config, letter):
            return (config + 1) % 10, ()

        automaton = reachable_automaton("ring", 0, ring,
                                        letters=[frozenset()], max_states=10)
        assert len(automaton) == 10
        assert len(StepSystem("ring", 0, ring,
                              ProductEnvironment([frozenset()]),
                              max_states=10)) == 10
        with pytest.raises(AutomataError, match="exceeds 9 composite"):
            reachable_automaton("ring", 0, ring, letters=[frozenset()],
                                max_states=9)
        with pytest.raises(AutomataError, match="exceeds 9 composite"):
            StepSystem("ring", 0, ring, ProductEnvironment([frozenset()]),
                       max_states=9)

    def test_letters_and_environment_are_mutually_exclusive(self):
        with pytest.raises(AutomataError, match="not both"):
            reachable_automaton(
                "ambiguous", 0, lambda c, letter: (c, ()),
                letters=[frozenset({"go"})],
                environment=ProductEnvironment())
        with pytest.raises(AutomataError, match="not both"):
            synchronous_product(ping_pong(),
                                letters=[frozenset({"kick"})],
                                environment=ProductEnvironment())


class TestEncodings:
    def test_schemes(self):
        names = ["a", "b", "c"]
        binary = encode_names(names, "binary")
        assert sorted(binary.values()) == ["00", "01", "10"]
        one_hot = encode_names(names, "one_hot")
        assert all(code.count("1") == 1 for code in one_hot.values())
        gray = encode_names(names, "gray")
        assert len(set(gray.values())) == 3

    def test_errors(self):
        with pytest.raises(AutomataError):
            encode_names([], "binary")
        with pytest.raises(AutomataError):
            encode_names(["a"], "quantum")
