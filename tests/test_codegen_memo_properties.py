"""The codegen stage's emission memo against fresh emission.

``repro.flow.cool._emit_fsm`` keys each controller FSM by its full
content plus its care set and keeps ``(text, baseline literals,
emitted literals, check_vhdl problems)``.  These properties pin that

* an entry, on the miss that stores it and on every later hit, equals
  a fresh ``fsm_to_vhdl(simplify=True)`` / ``fsm_guard_literals`` /
  ``guard_literal_count`` / ``check_vhdl`` of the same FSM and care
  set, with and without care sets;
* two FSMs that differ only in their name, in one condition literal or
  in one care valuation never share an entry;
* a stored rejection is raised again on a hit, and the memo stays
  within its bound;
* the memoized ``minimal_cover`` equals the uncached function.

FSMs are generated over a small signal alphabet so that shapes repeat
and hits happen inside one example.  The example budget follows the
active hypothesis profile (``tests/conftest.py``).
"""

import sys
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flow.cool as cool
from repro.automata.simplify import minimal_cover
from repro.codegen import (check_vhdl, fsm_guard_literals, fsm_to_vhdl,
                           guard_literal_count)
from repro.controllers import Fsm
from repro.flow import CoolFlow
from repro.partition import GreedyPartitioner
from repro.platform import minimal_board
from repro.workloads import workload_suite

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)

SIGNALS = ("a", "b", "c", "d")


def build_fsm(name, states, outputs, transitions):
    fsm = Fsm(name)
    for state in states:
        fsm.add_state(state, outputs=outputs.get(state, ()))
    for src, dst, conditions, actions in transitions:
        fsm.add_transition(src, dst, conditions=conditions, actions=actions)
    return fsm


@st.composite
def fsm_specs(draw):
    """``(name, states, Moore outputs, transitions, care set)``."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    state = st.sampled_from(states)
    outputs = {s: tuple(draw(st.lists(st.sampled_from(("m0", "m1")),
                                      max_size=2, unique=True)))
               for s in states}
    transitions = draw(st.lists(
        st.tuples(state, state,
                  st.lists(st.sampled_from(SIGNALS), max_size=3,
                           unique=True).map(tuple),
                  st.lists(st.sampled_from(("x", "y")), max_size=2,
                           unique=True).map(tuple)),
        max_size=7))
    valuation = st.frozensets(st.sampled_from(SIGNALS))
    care = draw(st.none() | st.dictionaries(
        state, st.sets(valuation, max_size=5), max_size=len(states)))
    name = draw(st.sampled_from(("ctl", "seq_0", "dpc_fpga0")))
    return name, states, outputs, transitions, care


def fresh(fsm, care):
    text = fsm_to_vhdl(fsm, simplify=True, care_of=care)
    return (text, fsm_guard_literals(fsm), guard_literal_count(text),
            tuple(check_vhdl(text)))


@PROPERTY
@given(st.lists(fsm_specs(), min_size=1, max_size=4))
def test_memoized_emission_equals_fresh(specs):
    cool._EMISSION_CACHE.clear()
    # every spec twice, rebuilt each time: the second emission is a hit
    # served for a different but equal Fsm object
    for spec in specs + specs:
        name, states, outputs, transitions, care = spec
        fsm = build_fsm(name, states, outputs, transitions)
        assert cool._emit_fsm(fsm, care) == fresh(fsm, care)
    distinct = {cool._emission_key(build_fsm(*spec[:4]), spec[4])
                for spec in specs}
    assert len(cool._EMISSION_CACHE) == len(distinct)


def _renamed(spec):
    name, states, outputs, transitions, care = spec
    return name + "_v", states, outputs, transitions, care


def _one_condition_changed(spec, index):
    """``spec`` with one literal of transition ``index`` replaced (or
    one added to an unconditional transition)."""
    name, states, outputs, transitions, care = spec
    src, dst, conditions, actions = transitions[index]
    unused = [s for s in SIGNALS + ("e",) if s not in conditions]
    changed = (conditions[:-1] + (unused[0],)) if conditions \
        else (unused[0],)
    edited = list(transitions)
    edited[index] = (src, dst, changed, actions)
    return name, states, outputs, edited, care


def _one_valuation_changed(spec):
    """``spec`` with one care valuation toggled on signal ``a`` (or one
    valuation added when the care set is empty)."""
    name, states, outputs, transitions, care = spec
    edited = {state: set(valuations)
              for state, valuations in (care or {}).items()}
    state = next((s for s in sorted(edited) if edited[s]), None)
    if state is None:
        edited = {**edited, states[0]: {frozenset()}}
    else:
        valuation = min(edited[state], key=sorted)
        edited[state].discard(valuation)
        edited[state].add(valuation ^ {"a"})
    return name, states, outputs, transitions, edited


@PROPERTY
@given(fsm_specs(), st.data())
def test_near_twins_never_share_an_entry(spec, data):
    twins = [_renamed(spec), _one_valuation_changed(spec)]
    if spec[3]:
        index = data.draw(st.integers(0, len(spec[3]) - 1))
        twins.append(_one_condition_changed(spec, index))
    cool._EMISSION_CACHE.clear()
    original = build_fsm(*spec[:4])
    original_key = cool._emission_key(original, spec[4])
    cool._emit_fsm(original, spec[4])
    for twin in twins:
        fsm = build_fsm(*twin[:4])
        assert cool._emission_key(fsm, twin[4]) != original_key
        assert cool._emit_fsm(fsm, twin[4]) == fresh(fsm, twin[4])
    assert len(cool._EMISSION_CACHE) == 1 + len(twins)


@PROPERTY
@given(st.integers(1, 4), st.data())
def test_memoized_minimal_cover_equals_uncached(width, data):
    full = (1 << (1 << width)) - 1
    onset = data.draw(st.integers(0, full))
    dont_care = data.draw(st.integers(0, full)) & ~onset
    assert minimal_cover(width, onset, dont_care) == \
        minimal_cover.__wrapped__(width, onset, dont_care)


def test_care_mapping_empty_keys_like_none():
    fsm = build_fsm("ctl", ["s0", "s1"], {}, [("s0", "s1", ("a",), ())])
    assert cool._emission_key(fsm, {}) == cool._emission_key(fsm, None)
    assert cool._emission_key(fsm, {"s0": set()}) != \
        cool._emission_key(fsm, None)


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(cool, "_EMISSION_CACHE", OrderedDict())
    monkeypatch.setattr(cool, "_EMISSION_CACHE_MAX", 3)
    fsms = [build_fsm(f"f{i}", ["s0"], {}, [("s0", "s0", ("a",), ())])
            for i in range(5)]
    for fsm in fsms[:3] + fsms[:1] + fsms[3:]:
        cool._emit_fsm(fsm, None)
    # least recently used first out: the hit kept f0, f1 and f2 are gone
    assert [key[0][0] for key in cool._EMISSION_CACHE] == ["f0", "f3", "f4"]


def test_concurrent_emission_agrees(monkeypatch):
    """More threads than cores, a short switch interval and a memo
    smaller than the distinct FSMs, so hits, inserts and evictions
    interleave: every entry equals fresh emission, no call raises and
    the bound holds."""
    monkeypatch.setattr(cool, "_EMISSION_CACHE", OrderedDict())
    monkeypatch.setattr(cool, "_EMISSION_CACHE_MAX", 5)
    fsms = [build_fsm(f"f{i % 12}", ["s0", "s1"], {},
                      [("s0", "s1", ("a", "b"), ("x",)), ("s1", "s0", (), ())])
            for i in range(96)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            entries = list(pool.map(lambda fsm: cool._emit_fsm(fsm, None),
                                    fsms, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for fsm, entry in zip(fsms, entries):
        assert entry == fresh(fsm, None)
    assert len(cool._EMISSION_CACHE) == 5


def test_rejection_is_raised_again_on_a_memo_hit(monkeypatch):
    """A text ``check_vhdl`` rejects stays rejected when served from
    the memo: the second run emits nothing and still raises."""
    original = cool.fsm_to_vhdl
    emitted = []

    def unbalanced(fsm, **kwargs):
        emitted.append(fsm.name)
        return original(fsm, **kwargs).replace("  end process;\n", "", 1)

    monkeypatch.setattr(cool, "fsm_to_vhdl", unbalanced)
    monkeypatch.setattr(cool, "_EMISSION_CACHE", OrderedDict())
    graph = workload_suite(20, seed=5)[0].build()
    flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
    with pytest.raises(ValueError, match=r"generated VHDL \w+\.vhd "
                                         r"rejected: unbalanced process"):
        flow.run(graph)
    misses = len(emitted)
    assert misses > 0 and len(cool._EMISSION_CACHE) == misses
    with pytest.raises(ValueError, match=r"generated VHDL \w+\.vhd "
                                         r"rejected: unbalanced process"):
        flow.run(graph)
    assert len(emitted) == misses
