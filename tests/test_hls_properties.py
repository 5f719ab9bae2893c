"""Properties of the HLS list scheduler and binder on general DAGs.

The unit tests in ``tests/test_hls.py`` schedule FIR lane chains, where
no value has more than one consumer.  Here hypothesis draws DFGs of
1-24 operations over ``add/mul/mac/div/cmp`` (XC4005 latencies 1-8
cycles), each operation reading up to three earlier values (one value
may be read more than once), and one to three functional units per used
category.  For every such DFG

* :func:`repro.hls.list_schedule_ops` validates against the FU limits
  and is no shorter than the critical path;
* :func:`repro.hls.bind` uses no more FUs per category than the limit;
* two values bound to one register never overlap.  A value lives from
  its producer's finish to its last consumer's start + 1, or for one
  step when nothing consumes it.

The lifetimes are recomputed here from the schedule, independently of
the binder.  A second property checks :meth:`repro.hls.Dfg.successor_map`
against a scan of every op's inputs.  The example budget follows the
active hypothesis profile (``tests/conftest.py``): 100 examples under
``dev``, 600 under ``ci``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hls import Dfg, bind, list_schedule_ops
from repro.platform import xc4005

PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)

CATEGORIES = ("add", "mul", "mac", "div", "cmp")


@st.composite
def dags(draw):
    """``(ops, fu_limits)``: ops are ``(category, inputs)`` in uid order."""
    ops = []
    for uid in range(draw(st.integers(1, 24))):
        inputs = draw(st.lists(st.integers(0, uid - 1),
                               max_size=3)) if uid else []
        ops.append((draw(st.sampled_from(CATEGORIES)), tuple(inputs)))
    used = sorted({category for category, _ in ops})
    limits = {category: draw(st.integers(1, 3)) for category in used}
    return tuple(ops), limits


def build_dfg(ops) -> Dfg:
    dfg = Dfg("prop")
    for category, inputs in ops:
        dfg.add_op(category, inputs)
    return dfg


def lifetimes(schedule) -> dict[int, tuple[int, int]]:
    """Half-open ``[born, dies)`` step interval of every op's value."""
    dfg = schedule.dfg
    readers: dict[int, list[int]] = {uid: [] for uid in dfg.ops}
    for op in dfg.ops.values():
        for dep in op.inputs:
            readers[dep].append(schedule.start[op.uid])
    out = {}
    for uid, op in dfg.ops.items():
        born = schedule.start[uid] + schedule.latency_of[op.category]
        dies = max(readers[uid]) + 1 if readers[uid] else born + 1
        out[uid] = (born, dies)
    return out


@PROPERTY
@given(dags())
# value 0 is read at step 1 and again at step 4; value 1 is born at 2
@example(case=((("add", ()), ("add", (0,)), ("mul", (1,)), ("add", (0, 2))),
               {"add": 1, "mul": 1}))
# value 0 is read twice by one op
@example(case=((("add", ()), ("mul", (0, 0))), {"add": 1, "mul": 1}))
def test_schedule_and_binding_on_general_dags(case):
    ops, limits = case
    latency_of = xc4005().latency_for
    dfg = build_dfg(ops)

    schedule = list_schedule_ops(dfg, latency_of, limits)
    assert schedule.validate(limits) == []
    assert schedule.length >= dfg.critical_path(latency_of)

    binding = bind(schedule)
    for category, count in binding.fu_counts.items():
        assert count <= limits[category], (category, count)

    life = lifetimes(schedule)
    by_register: dict[int, list[tuple[int, int, int]]] = {}
    for uid, register in binding.register_of.items():
        by_register.setdefault(register, []).append((*life[uid], uid))
    for register, values in by_register.items():
        values.sort()
        for (_, end, first), (start, _, second) in zip(values, values[1:]):
            assert start >= end, (register, first, second)


@PROPERTY
@given(dags())
def test_successor_map_matches_a_scan(case):
    dfg = build_dfg(case[0])
    scan = {uid: [op.uid for op in dfg.ops.values() if uid in op.inputs]
            for uid in dfg.ops}
    assert dfg.successor_map() == scan
