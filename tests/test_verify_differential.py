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

A fourth property drives the production emitter the codegen stage
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

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from test_codegen import _case_arm, _interpret_arm

from repro.automata import symbolic_trace_equivalence
from repro.automata.symbolic import _check_class, _Side
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
    left, right = _Side(reference), _Side(product)
    return (_check_class("all-visible", left, right, classes),
            [_check_class(label, left, right, [(label, observable)])
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
