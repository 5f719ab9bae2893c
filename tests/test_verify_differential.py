"""Differential property tests: the production verifier vs. the oracle.

Over small generated designs (``WorkloadSpec`` families with drawn
knobs, each node mapped to a drawn processing unit) two properties
must hold:

* the production verdict of :func:`verify_composition` equals the
  verdict of the explicit weak-bisimulation reference
  :func:`~repro.controllers.verify.explicit_oracle` -- and both prove
  the synthesized controllers correct;
* seeded controller mutations -- a sequencer ``start_*`` dropped, or a
  done-flag guard literal dropped where some reachable configuration
  depends on it -- are rejected by both, each with a counterexample
  trace.

A third property checks the verifier's all-visible pass against the
per-class fixpoints it stands in for: on generated designs and their
seeded mutations, whenever the one pass with every class visible holds,
every per-class check holds too, and the production verdict still
equals the oracle's.  A pinned mutant covers the fallback to the
per-class checks.

A fourth property checks the pair fixpoint against a verbatim copy of
the one it replaced, which kept per-element τ and edge memos: on
generated designs and their seeded mutations the whole
``SymbolicEquivalence`` must be equal -- verdicts, counterexamples,
``missing_side`` and ``pairs_checked``.

A fifth property drives the production emitter the codegen stage
runs: every FSM of the synthesized controller, emitted with
``fsm_to_vhdl(simplify=True)`` over its harvested care sets, must pass
the VHDL checker, spend no more guard literals than the default
emission, and step like ``Fsm.step`` on every harvested valuation of
every state.

Each example synthesizes and proves a whole design several times, so
the properties take a fifth of the active hypothesis profile's budget
(``tests/conftest.py``: 20 examples under ``dev``, 120 under ``ci``).
The ``@example`` rows pin degenerate shapes: a single-node chain,
round-robin units, and every node on one unit.
"""

import random
from collections import deque
from typing import Iterable, Sequence

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from test_codegen import _case_arm, _interpret_arm

from repro.automata import (AutomataError, ClassVerdict, StepSystem,
                            SymbolicEquivalence, symbolic_trace_equivalence)
from repro.automata.symbolic import (INPUT_PREFIX, MAX_PAIR_FIXPOINT,
                                     OUTPUT_PREFIX, _check_class)
from repro.codegen import (check_vhdl, fsm_guard_literals, fsm_to_vhdl,
                           guard_literal_count)
from repro.controllers import (Fsm, SystemController, harvest_care_sets,
                               synthesize_system_controller,
                               verify_composition)
from repro.controllers.verify import (_node_resources, _observable_classes,
                                      _system_alphabet,
                                      controller_step_system,
                                      explicit_oracle, stg_step_system)
from repro.obs import Tracer, activate
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.stg import build_stg, minimize_stg
from repro.workloads import (ChainSpec, DctSpec, EqualizerSpec, ForkJoinSpec,
                             LayeredDagSpec, TreeSpec)

EXAMPLES = max(1, settings.default.max_examples // 5)
PROPERTY = settings(max_examples=EXAMPLES, deadline=None)

BOARDS = {"minimal": minimal_board, "cool": cool_board}

_seeds = st.integers(min_value=0, max_value=10_000)
_knobs = {"ccr": st.sampled_from((0.1, 0.5, 1.0, 2.0, 8.0)),
          "hw_bias": st.sampled_from((0.3, 0.5, 0.7)),
          "cost_spread": st.sampled_from((2.0, 4.0, 8.0))}

specs = st.one_of(
    st.builds(ChainSpec, seed=_seeds, length=st.integers(1, 10), **_knobs),
    st.builds(ForkJoinSpec, seed=_seeds, branches=st.integers(1, 4),
              depth=st.integers(1, 2), **_knobs),
    st.builds(TreeSpec, seed=_seeds, depth=st.integers(1, 2),
              arity=st.integers(2, 3), **_knobs),
    st.integers(1, 4).flatmap(lambda layers: st.builds(
        LayeredDagSpec, seed=_seeds, layers=st.just(layers),
        nodes=st.integers(layers, 10), inputs=st.integers(1, 2),
        outputs=st.integers(1, 2), **_knobs)),
    st.builds(EqualizerSpec, seed=_seeds, bands=st.integers(1, 4),
              words=st.just(8), taps_per_band=st.sampled_from((3, 5))),
    st.builds(DctSpec, seed=_seeds, points=st.just(4),
              coefficients=st.integers(1, 3)),
)
boards = st.sampled_from(sorted(BOARDS))
#: The node -> unit mapping: a random seed, or one of the two
#: degenerate mappings (every node on the first unit, round robin).
mappings = st.one_of(st.sampled_from(("one_unit", "round_robin")),
                     st.integers(min_value=0, max_value=2**16))


def node_mapping(graph, board, mapping):
    """The node -> unit dict a drawn ``mappings`` value stands for."""
    units = board.resource_names
    nodes = [node.name for node in graph.internal_nodes()]
    if mapping == "one_unit":
        return {node: units[0] for node in nodes}
    if mapping == "round_robin":
        return {node: units[rank % len(units)]
                for rank, node in enumerate(nodes)}
    rng = random.Random(mapping)
    return {node: rng.choice(units) for node in nodes}


def implement(spec, board_name, mapping):
    """(graph, minimized STG, controller) of ``spec`` under ``mapping``."""
    board = BOARDS[board_name]()
    graph = spec.build()
    partition = from_mapping(graph, node_mapping(graph, board, mapping),
                             board.fpga_names, board.processor_names)
    stg, _ = minimize_stg(build_stg(list_schedule(partition,
                                                  CostModel(graph, board))))
    return graph, stg, synthesize_system_controller(stg)


def _mutated(controller, resource, index, conditions, actions):
    """``controller`` with one sequencer transition rewritten."""
    fsm = controller.sequencers[resource]
    mutant = Fsm(fsm.name)
    for state in fsm.states:
        mutant.add_state(state, fsm.state_outputs.get(state, ()))
    mutant.initial = fsm.initial
    for position, t in enumerate(fsm.transitions):
        if position == index:
            mutant.add_transition(t.src, t.dst, conditions, actions)
        else:
            mutant.add_transition(t.src, t.dst, t.conditions, t.actions)
    return SystemController(controller.name, controller.phase_fsm,
                            {**controller.sequencers, resource: mutant},
                            controller.done_flags)


def drop_start(controller, pick):
    """Drop the ``start_*`` commands of one sequencer transition."""
    sites = [(resource, index, t)
             for resource, fsm in sorted(controller.sequencers.items())
             for index, t in enumerate(fsm.transitions)
             if any(a.startswith("start_") for a in t.actions)]
    resource, index, t = sites[pick % len(sites)]
    return _mutated(controller, resource, index, t.conditions,
                    tuple(a for a in t.actions if not a.startswith("start_")))


def drop_done_literal(controller, pick):
    """Drop one *live* ``done_*`` guard literal of a sequencer.

    Live: some reachable configuration satisfies the rest of the guard
    but not the literal (a literal the latched flags always satisfy is
    a reachability don't-care, and dropping it changes nothing).
    Returns None when the controller has no live done literal.
    """
    care = harvest_care_sets(controller)
    sites = []
    for resource, fsm in sorted(controller.sequencers.items()):
        observed = care.get(fsm.name, {})
        for index, t in enumerate(fsm.transitions):
            for literal in sorted(t.conditions):
                rest = set(t.conditions) - {literal}
                if literal.startswith("done_") and any(
                        literal not in valuation and rest <= valuation
                        for valuation in observed.get(t.src, ())):
                    sites.append((resource, index, t, literal))
    if not sites:
        return None
    resource, index, t, literal = sites[pick % len(sites)]
    return _mutated(controller, resource, index,
                    tuple(c for c in t.conditions if c != literal),
                    t.actions)


@PROPERTY
@given(spec=specs, board=boards, mapping=mappings)
@example(spec=ChainSpec(seed=0, length=1), board="minimal", mapping=0)
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin")
@example(spec=TreeSpec(seed=2, depth=2, arity=2), board="cool",
         mapping="one_unit")
def test_production_verdict_matches_the_oracle(spec, board, mapping):
    graph, stg, controller = implement(spec, board, mapping)
    check = verify_composition(stg, controller, graph=graph)
    reference = explicit_oracle(stg, controller, graph=graph)
    assert check.tier == "symbolic" and check.oracle is None
    assert reference.oracle == "agrees"
    assert check.equivalent == reference.equivalent
    assert check.equivalent, check.mismatches


@PROPERTY
@given(spec=specs, board=boards, mapping=mappings,
       pick=st.integers(min_value=0, max_value=1_000))
@example(spec=ChainSpec(seed=0, length=1), board="minimal", mapping=0,
         pick=0)
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin", pick=3)
def test_seeded_mutations_are_rejected_by_both(spec, board, mapping,
                                               pick):
    graph, stg, controller = implement(spec, board, mapping)
    mutants = [drop_start(controller, pick),
               drop_done_literal(controller, pick)]
    assume(mutants[1] is not None)
    for mutant in mutants:
        check = verify_composition(stg, mutant, graph=graph)
        reference = explicit_oracle(stg, mutant, graph=graph)
        assert not check.equivalent
        assert reference.oracle == "agrees"
        assert any(" is possible only in " in m for m in check.mismatches), \
            check.mismatches
        assert any(" possible only in " in m
                   for m in reference.mismatches), reference.mismatches


def step_systems(stg, controller):
    """(STG system, controller system, classes) as the verifier builds
    them."""
    reference = stg_step_system(stg)
    product = controller_step_system(controller)
    actions, bursts = _system_alphabet((reference, product))
    return reference, product, _observable_classes(
        actions, bursts, _node_resources(controller))


def joint_and_class_verdicts(stg, controller):
    """The all-visible pass and every per-class pass, each run alone."""
    reference, product, classes = step_systems(stg, controller)
    return (_check_class("all-visible", reference, product, classes),
            [_check_class(label, reference, product, [(label, observable)])
             for label, observable in classes])


@PROPERTY
@given(spec=specs, board=boards, mapping=mappings,
       pick=st.integers(min_value=0, max_value=1_000))
@example(spec=ChainSpec(seed=0, length=1), board="minimal", mapping=0,
         pick=0)
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin", pick=3)
def test_all_visible_pass_implies_every_class(spec, board, mapping, pick):
    graph, stg, controller = implement(spec, board, mapping)
    candidates = [controller, drop_start(controller, pick),
                  drop_done_literal(controller, pick)]
    for candidate in filter(None, candidates):
        joint, per_class = joint_and_class_verdicts(stg, candidate)
        assert joint.pairs > 0
        if joint.equivalent:
            assert all(v.equivalent for v in per_class), per_class
        check = verify_composition(stg, candidate, graph=graph)
        reference = explicit_oracle(stg, candidate, graph=graph)
        assert reference.oracle == "agrees"
        assert check.equivalent == reference.equivalent
        assert sum(m.startswith("projection ") for m in check.mismatches) \
            == sum(not v.equivalent for v in per_class)


# ----------------------------------------------------------------------
# the parent pair fixpoint, verbatim but for the renamed ``Parent*`` /
# ``parent_*`` names: per-element τ and edge memos over a ``(state,
# row)``-interned intermediate index
# ----------------------------------------------------------------------
class ParentSide:
    """Per-system element space shared by every fixpoint pass.

    Elements are either plain states (element id == state index) or
    *pending-action intermediates* ``(state, row)`` -- the point inside
    a two-label step where the input letter was consumed but the
    observable action not yet emitted.  Intermediate ids are interned
    globally (class-independent keys), so every pass over the side
    numbers them alike.
    """

    __slots__ = ("system", "letter_labels", "_mid_index", "_next_eid")

    def __init__(self, system: StepSystem) -> None:
        self.system = system
        letters = (sorted(system.letter_of(letter_id))
                   for letter_id in range(system.n_letters))
        #: ``?letter`` label per letter id; None for the silent letter
        self.letter_labels = [INPUT_PREFIX + "+".join(names) if names
                              else None for names in letters]
        self._mid_index: dict[tuple[int, int], int] = {}
        self._next_eid = len(system)

    def mid(self, state: int, row: int) -> int:
        eid = self._mid_index.get((state, row))
        if eid is None:
            eid = self._next_eid
            self._next_eid += 1
            self._mid_index[(state, row)] = eid
        return eid


class ParentClassView:
    """One side's observation edges with ``classes`` visible.

    A step's observable label is ``!`` plus its sorted visible actions
    ``+``-joined, as letters are.  The sort matters: the STG stepper
    reports actions in firing order, the controller side interns them
    sorted.  With every class visible one fixpoint decides all classes
    together; a per-class pass is the view over ``[(label, members)]``.
    Two same-step members of one class raise: hiding maps the
    all-visible view onto each class's view only while every class
    sees at most one action per step.

    Per element the view keeps the (unique -- the environment offers
    silence exactly once per state, so silent rows are deterministic)
    τ-successor in ``_tau`` and the observable edges in ``_obs``.
    The ``!action`` label is memoized per *interned* action tuple
    rather than per state: distinct states overwhelmingly share the
    same few action tuples, so the per-element expansion reduces to
    dictionary lookups and every edge shares one label string.  Closed
    sets themselves are NOT memoized -- the pair fixpoint visits each
    reachable set pair once and distinct pairs carry distinct sets, so
    such a cache costs memory at the 60k-state scale designs without
    ever hitting.
    """

    __slots__ = ("side", "_class_of", "_tau", "_obs", "_visible")

    #: ``_tau`` sentinel: the element has no silent successor.
    _NO_TAU = -1

    def __init__(self, side: ParentSide,
                 classes: Sequence[tuple[str, frozenset[str]]]) -> None:
        self.side = side
        self._class_of = {action: index for index, (_label, members)
                          in enumerate(classes) for action in members}
        self._tau: dict[int, int] = {}
        self._obs: dict[int, tuple] = {}
        self._visible: dict[tuple, str | None] = {}

    def _visible_of(self, actions: tuple) -> str | None:
        """The ``!action`` label of an interned action tuple, or None."""
        class_of = self._class_of
        visible = sorted(a for a in actions if a in class_of)
        if len({class_of[a] for a in visible}) < len(visible):
            # the verifier's projection classes guarantee at most one
            # member per step (same-step members are
            # order-indistinguishable); a class violating that is a
            # caller bug, not a verdict
            raise AutomataError(
                f"projection class admits two same-step observables "
                f"{visible!r} in {self.side.system.name!r}")
        return OUTPUT_PREFIX + "+".join(visible) if visible else None

    def _expand(self, eid: int) -> None:
        """Derive ``eid``'s τ-successor and observable edges.

        Only plain states reach here: pending-action intermediates are
        populated eagerly when their parent state creates them (they
        have no step rows of their own).
        """
        side = self.side
        visible_of = self._visible
        out = []
        tau = self._NO_TAU
        for row_index, (letter_id, actions, succ) in \
                enumerate(side.system.rows(eid)):
            letter = side.letter_labels[letter_id]
            if actions in visible_of:
                action = visible_of[actions]
            else:
                action = visible_of[actions] = self._visible_of(actions)
            if letter is None and action is None:
                tau = succ
            elif letter is not None and action is not None:
                mid = side.mid(eid, row_index)
                self._tau[mid] = self._NO_TAU
                self._obs[mid] = ((action, succ),)
                out.append((letter, mid))
            elif letter is not None:
                out.append((letter, succ))
            else:
                out.append((action, succ))
        self._tau[eid] = tau
        self._obs[eid] = tuple(out)

    def closure(self, eids: Iterable[int]) -> tuple[int, ...]:
        """τ-closure: the transitive-closure fixpoint over silent rows."""
        tau = self._tau
        seen = set(eids)
        stack = list(seen)
        while stack:
            eid = stack.pop()
            succ = tau.get(eid)
            if succ is None:
                self._expand(eid)
                succ = tau[eid]
            if succ >= 0 and succ not in seen:
                seen.add(succ)
                stack.append(succ)
        return tuple(sorted(seen))

    def successors(self, members: tuple[int, ...]) -> dict[str, tuple]:
        """Closed successor sets of a τ-closed set, per observable label."""
        obs = self._obs
        grouped: dict[str, set[int]] = {}
        for eid in members:
            edges = obs.get(eid)
            if edges is None:
                self._expand(eid)
                edges = obs[eid]
            for label, succ in edges:
                if label in grouped:
                    grouped[label].add(succ)
                else:
                    grouped[label] = {succ}
        return {label: self.closure(targets)
                for label, targets in grouped.items()}


def parent_check_class(label: str, left_side: ParentSide,
                       right_side: ParentSide,
                       classes: Sequence[tuple[str, frozenset[str]]]
                       ) -> ClassVerdict:
    """Joint breadth-first fixpoint over pairs of τ-closed sets, with
    ``classes`` visible on both sides."""
    left = ParentClassView(left_side, classes)
    right = ParentClassView(right_side, classes)
    start = (left.closure((0,)), right.closure((0,)))
    seen: dict[tuple, int] = {start: 0}
    parents: list[tuple[int, str | None]] = [(-1, None)]
    queue: deque[tuple] = deque([start])
    pairs = 0
    while queue:
        pair = queue.popleft()
        entry = seen[pair]
        pairs += 1
        left_out = left.successors(pair[0])
        right_out = right.successors(pair[1])
        if left_out.keys() != right_out.keys():
            divergent = sorted(left_out.keys() ^ right_out.keys())[0]
            missing = "right" if divergent in left_out else "left"
            trace: list[str] = [divergent]
            while entry > 0:
                parent, step_label = parents[entry]
                trace.append(step_label)
                entry = parent
            return ClassVerdict(label, False, pairs,
                                tuple(reversed(trace)), missing)
        for step_label in sorted(left_out):
            successor = (left_out[step_label], right_out[step_label])
            if successor not in seen:
                if len(seen) >= MAX_PAIR_FIXPOINT:
                    raise AutomataError(
                        f"pair fixpoint exceeds {MAX_PAIR_FIXPOINT} "
                        f"determinized set pairs (projection {label!r})")
                seen[successor] = len(parents)
                parents.append((seen[pair], step_label))
                queue.append(successor)
    return ClassVerdict(label, True, pairs)


def parent_symbolic_trace_equivalence(
        left: StepSystem, right: StepSystem,
        classes: Sequence[tuple[str, frozenset[str]]]
        ) -> SymbolicEquivalence:
    """Weak trace equivalence of two step systems, per projection class.

    Runs the determinized τ-closed pair fixpoint once with every class
    visible.  Each class's weak trace set is the image of the
    all-visible one under hiding, so when that pass holds every class
    holds.  Only when it fails does the fixpoint run once per class,
    so that each failing class carries its shortest distinguishing
    trace.
    """
    sides = (ParentSide(left), ParentSide(right))
    joint = parent_check_class("all-visible", *sides, classes)
    if joint.equivalent:
        return SymbolicEquivalence(True, (joint,), len(left), len(right),
                                   joint.pairs)
    verdicts = tuple(parent_check_class(label, *sides,
                                        [(label, observable)])
                     for label, observable in classes)
    return SymbolicEquivalence(
        equivalent=all(v.equivalent for v in verdicts),
        verdicts=verdicts,
        left_states=len(left),
        right_states=len(right),
        pairs_checked=joint.pairs + sum(v.pairs for v in verdicts),
        fallback=True)


@PROPERTY
@given(spec=specs, board=boards, mapping=mappings,
       pick=st.integers(min_value=0, max_value=1_000))
@example(spec=ChainSpec(seed=0, length=1), board="minimal", mapping=0,
         pick=0)
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin", pick=3)
def test_fixpoint_matches_the_parent_fixpoint(spec, board, mapping, pick):
    """Every verdict, counterexample, ``missing_side`` and pair count of
    the row-reading fixpoint equals the memoizing one it replaced, on
    the design and on both seeded mutants."""
    _graph, stg, controller = implement(spec, board, mapping)
    candidates = [controller, drop_start(controller, pick),
                  drop_done_literal(controller, pick)]
    for candidate in filter(None, candidates):
        systems = step_systems(stg, candidate)
        assert symbolic_trace_equivalence(*systems) \
            == parent_symbolic_trace_equivalence(*systems)


#: The verdict texts of one seeded mutant, as the per-class fixpoints
#: report them with no all-visible pass in front.
PINNED_MUTANT_MISMATCHES = (
    "projection 'fpga0': STG and controller composition are not weakly "
    "trace-equivalent (trace !reset_fpga0 !start_n0 is possible only in "
    "the controller composition)",
    "projection 'io': STG and controller composition are not weakly "
    "trace-equivalent (trace !reset_io !start_in0 !read_in0__to__n0_p0 "
    "is possible only in the controller composition)",
    "projection 'write_in0__to__n0_p0': STG and controller composition "
    "are not weakly trace-equivalent (trace ?done_n0 is possible only in "
    "the controller composition)",
)


def test_mutant_falls_back_to_the_per_class_verdicts():
    graph, stg, controller = implement(ChainSpec(seed=0, length=1),
                                       "minimal", 0)
    mutant = drop_done_literal(controller, 0)
    tracer = Tracer()
    with activate(tracer):
        check = verify_composition(stg, mutant, graph=graph)
    assert check.mismatches == PINNED_MUTANT_MISMATCHES
    result = symbolic_trace_equivalence(*step_systems(stg, mutant))
    assert result.fallback and not result.equivalent
    assert len(result.verdicts) == check.projections_checked == 3
    joint, per_class = joint_and_class_verdicts(stg, mutant)
    assert not joint.equivalent
    assert result.verdicts == tuple(per_class)
    assert check.pairs_checked == result.pairs_checked \
        == joint.pairs + sum(v.pairs for v in per_class)
    fixpoint, = [s for s in tracer.spans() if s.name == "verify.fixpoint"]
    assert fixpoint.attributes == {"fallback": True,
                                   "pairs": check.pairs_checked}
    assert any(s.name == "verify.expand" for s in tracer.spans())


def test_proved_design_takes_the_all_visible_pass_alone():
    graph, stg, controller = implement(
        ForkJoinSpec(seed=1, branches=3, depth=1), "cool", "round_robin")
    tracer = Tracer()
    with activate(tracer):
        check = verify_composition(stg, controller, graph=graph)
    result = symbolic_trace_equivalence(*step_systems(stg, controller))
    assert check.equivalent and result.equivalent and not result.fallback
    assert [v.label for v in result.verdicts] == ["all-visible"]
    assert check.pairs_checked == result.pairs_checked \
        == result.verdicts[0].pairs > 0
    assert check.projections_checked > 1
    fixpoint, = [s for s in tracer.spans() if s.name == "verify.fixpoint"]
    assert fixpoint.attributes == {"fallback": False,
                                   "pairs": check.pairs_checked}


def test_expansion_spans_split_the_two_sides():
    """``verify.expand`` has one child span per side, each with the
    number of states that side's step system holds."""
    graph, stg, controller = implement(
        ForkJoinSpec(seed=1, branches=3, depth=1), "cool", "round_robin")
    tracer = Tracer()
    with activate(tracer):
        check = verify_composition(stg, controller, graph=graph)
    spans = {s.name: s for s in tracer.spans()}
    expand = spans["verify.expand"]
    controller_side = spans["verify.expand.controller"]
    stg_side = spans["verify.expand.stg"]
    assert controller_side.parent_id == stg_side.parent_id \
        == expand.span_id
    assert controller_side.attributes == {"states": check.product_states}
    assert stg_side.attributes == {"states": check.reference_states}
    assert check.product_states > 1 and check.reference_states > 1


@PROPERTY
@given(spec=specs, board=boards, mapping=mappings)
@example(spec=ChainSpec(seed=0, length=1), board="minimal", mapping=0)
@example(spec=ForkJoinSpec(seed=1, branches=3, depth=1), board="cool",
         mapping="round_robin")
@example(spec=TreeSpec(seed=2, depth=2, arity=2), board="cool",
         mapping="one_unit")
def test_care_set_emission_steps_like_the_fsm(spec, board, mapping):
    _graph, _stg, controller = implement(spec, board, mapping)
    care = harvest_care_sets(controller)
    for fsm in controller.fsms:
        observed = care[fsm.name]
        text = fsm_to_vhdl(fsm, simplify=True, care_of=observed)
        assert check_vhdl(text) == [], text
        assert guard_literal_count(text) <= fsm_guard_literals(fsm)
        for state in fsm.states:
            arm = _case_arm(text, state)
            for valuation in observed.get(state, ()):
                want_next, want_out = fsm.step(state, set(valuation))
                got = _interpret_arm(arm, set(valuation), state)
                assert (want_next, set(want_out)) == got, \
                    (fsm.name, state, sorted(valuation))
