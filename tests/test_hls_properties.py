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
against a scan of every op's inputs.

A differential property runs the heap-driven scheduler and binder
against verbatim copies of the loops they replaced (``parent_*``
below): the ready-list scan that re-sorts after every start, the ALAP
and ASAP schedules over a ``pop(0)`` topological order, first-fit
left-edge colouring and the per-step ``fu_usage``.  ``start``,
``fu_of`` and ``register_of`` must agree, dict order included, on the
general DAGs above and on lane chains shaped like
:func:`repro.hls.expand_node` (1-16 lanes, up to 300 operations dealt
round-robin), under XC4005 latencies or a drawn table of latencies 0-4.
A latency-0 category pins the rule that an operation readied during a
step starts one step later at the soonest.

The example budget follows the active hypothesis profile
(``tests/conftest.py``): 100 examples under ``dev``, 600 under ``ci``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hls import (Binding, Dfg, HlsError, HlsSchedule, alap_schedule,
                       asap_schedule, bind, list_schedule_ops)
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


# -- the parent loops, verbatim but for the renamed ``parent_*`` calls --

def parent_topological_order(self) -> list[int]:
    indeg = {uid: len(set(op.inputs)) for uid, op in self.ops.items()}
    succs = self.successor_map()
    ready = sorted(uid for uid, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        uid = ready.pop(0)
        order.append(uid)
        for succ in succs[uid]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(self.ops):
        raise HlsError(f"dfg {self.name!r} contains a cycle")
    return order


def parent_ops_active_at(self, step: int) -> list[int]:
    return [uid for uid, op in self.dfg.ops.items()
            if self.start[uid] <= step
            < self.start[uid] + self.latency_of[op.category]]


def parent_fu_usage(self) -> dict[str, int]:
    """Peak concurrent operations per category (= FUs needed)."""
    usage: dict[str, int] = {}
    for step in range(self.length):
        per_cat: dict[str, int] = {}
        for uid in parent_ops_active_at(self, step):
            cat = self.dfg.ops[uid].category
            per_cat[cat] = per_cat.get(cat, 0) + 1
        for cat, n in per_cat.items():
            usage[cat] = max(usage.get(cat, 0), n)
    return usage


def _latency_table(dfg: Dfg, latency_of) -> dict[str, int]:
    return {cat: latency_of(cat) for cat in dfg.categories()}


def parent_asap_schedule(dfg: Dfg, latency_of) -> HlsSchedule:
    """Unconstrained earliest-start schedule."""
    table = _latency_table(dfg, latency_of)
    start: dict[int, int] = {}
    for uid in parent_topological_order(dfg):
        op = dfg.ops[uid]
        start[uid] = max((start[d] + table[dfg.ops[d].category]
                          for d in op.inputs), default=0)
    return HlsSchedule(dfg, start, table)


def parent_alap_schedule(dfg: Dfg, latency_of) -> HlsSchedule:
    """Latest-start schedule within the ASAP length."""
    table = _latency_table(dfg, latency_of)
    horizon = parent_asap_schedule(dfg, latency_of).length
    successors = dfg.successor_map()
    start: dict[int, int] = {}
    for uid in reversed(parent_topological_order(dfg)):
        op = dfg.ops[uid]
        latest = horizon - table[op.category]
        for succ in successors[uid]:
            latest = min(latest, start[succ] - table[op.category])
        start[uid] = latest
    return HlsSchedule(dfg, start, table)


def parent_list_schedule_ops(dfg: Dfg, latency_of,
                             fu_limits: dict[str, int]) -> HlsSchedule:
    """Resource-constrained list scheduling, priority = ALAP urgency."""
    table = _latency_table(dfg, latency_of)
    missing = set(table) - set(fu_limits)
    if missing:
        raise HlsError(f"no FU limit for categories {sorted(missing)}")
    if any(fu_limits[c] < 1 for c in table):
        raise HlsError("every used category needs at least one FU")

    alap = parent_alap_schedule(dfg, latency_of)
    priority = alap.start  # smaller ALAP start = more urgent

    start: dict[int, int] = {}
    finished: dict[int, int] = {}
    successors = dfg.successor_map()
    # distinct inputs: a value read twice has its reader listed once
    pending = {uid: len(set(op.inputs)) for uid, op in dfg.ops.items()}
    #: ready op -> step at which its last input has finished
    data_ready = {uid: 0 for uid, k in pending.items() if k == 0}
    ready = sorted(data_ready, key=lambda u: (priority[u], u))
    busy_until: dict[str, list[int]] = {
        cat: [0] * fu_limits[cat] for cat in table}

    def earliest(uid: int) -> int:
        """First step ``uid`` could start at, given the FU bookings so far."""
        return max(data_ready[uid], min(busy_until[dfg.ops[uid].category]))

    step = 0
    guard = 0
    while ready or len(finished) < len(dfg.ops):
        guard += 1
        if guard > 10 * (len(dfg.ops) + 1) * (max(table.values(), default=1) + 1):
            raise HlsError("list scheduler failed to make progress")
        for uid in list(ready):
            if data_ready[uid] > step:
                continue
            op = dfg.ops[uid]
            pool = busy_until[op.category]
            fu = pool.index(min(pool))
            if pool[fu] > step:
                continue
            start[uid] = step
            finished[uid] = step + table[op.category]
            pool[fu] = finished[uid]
            ready.remove(uid)
            for succ in successors[uid]:
                pending[succ] -= 1
                if pending[succ] == 0:
                    data_ready[succ] = max(finished[d]
                                           for d in dfg.ops[succ].inputs)
                    ready.append(succ)
            ready.sort(key=lambda u: (priority[u], u))
        # nothing starts before the next input or FU frees up: skip the
        # steps in between, which could schedule nothing
        step = max(step + 1, min(map(earliest, ready), default=0))
    return HlsSchedule(dfg, start, table)


def parent_left_edge(intervals: list[tuple[int, int, int]]) -> dict[int, int]:
    """Colour half-open intervals ``(start, end, key)``; returns key->colour."""
    colour: dict[int, int] = {}
    busy_until: list[int] = []  # per colour
    for start, end, key in sorted(intervals):
        for index, until in enumerate(busy_until):
            if until <= start:
                colour[key] = index
                busy_until[index] = end
                break
        else:
            colour[key] = len(busy_until)
            busy_until.append(end)
    return colour


def parent_bind(schedule: HlsSchedule) -> Binding:
    """Bind a scheduled DFG to shared FUs and registers."""
    dfg: Dfg = schedule.dfg

    # FU binding per category
    fu_of: dict[int, tuple[str, int]] = {}
    for category in dfg.categories():
        intervals = []
        for uid, op in dfg.ops.items():
            if op.category != category:
                continue
            start = schedule.start[uid]
            end = start + schedule.latency_of[category]
            intervals.append((start, end, uid))
        for uid, index in parent_left_edge(intervals).items():
            fu_of[uid] = (category, index)

    # register binding on value lifetimes
    successor_map = dfg.successor_map()
    intervals = []
    for uid, op in dfg.ops.items():
        born = schedule.start[uid] + schedule.latency_of[op.category]
        successors = successor_map[uid]
        if successors:
            dies = max(schedule.start[s] for s in successors) + 1
        else:
            dies = born + 1  # output value: held one step for the store
        intervals.append((born, max(dies, born + 1), uid))
    register_of = parent_left_edge(intervals)

    return Binding(fu_of, register_of)


# -- the differential property --

@st.composite
def lane_chains(draw):
    """``(ops, fu_limits)`` dealt like :func:`repro.hls.expand_node`:
    each category's operations round-robin over the lanes, in sorted
    category order, and every lane one chain."""
    lanes = draw(st.integers(1, 16))
    per_lane: list[list[str]] = [[] for _ in range(lanes)]
    for category in sorted(CATEGORIES):
        for i in range(draw(st.integers(0, 60))):
            per_lane[i % lanes].append(category)
    ops = []
    for lane_ops in per_lane:
        previous = None
        for category in lane_ops:
            ops.append((category, () if previous is None else (previous,)))
            previous = len(ops) - 1
    if not ops:
        ops.append(("add", ()))
    used = sorted({category for category, _ in ops})
    limits = {category: draw(st.integers(1, 3)) for category in used}
    return tuple(ops), limits


#: XC4005's latencies, or a drawn table in which latency 0 is common
latency_tables = st.one_of(
    st.just({c: xc4005().latency_for(c) for c in CATEGORIES}),
    st.fixed_dictionaries({c: st.integers(0, 4) for c in CATEGORIES}))

ZERO_ADD = {"add": 0, "mul": 2, "mac": 2, "div": 8, "cmp": 1}


@PROPERTY
@given(st.one_of(dags(), lane_chains()), latency_tables)
# an op readied by a latency-0 start waits for the next step
@example(case=((("add", ()), ("add", (0,)), ("mul", (1,))),
               {"add": 1, "mul": 1}), table=ZERO_ADD)
# a mul more urgent than an add starting in the same step: ``start``
# keeps the scan's order, not the category order
@example(case=((("add", ()), ("mul", ()), ("mul", (1,))),
               {"add": 1, "mul": 1}), table=ZERO_ADD)
def test_scheduler_and_binder_match_the_parent_loops(case, table):
    ops, limits = case
    latency_of = table.__getitem__
    dfg = build_dfg(ops)

    for schedule, parent in ((asap_schedule, parent_asap_schedule),
                             (alap_schedule, parent_alap_schedule)):
        got, want = schedule(dfg, latency_of), parent(dfg, latency_of)
        assert list(got.start.items()) == list(want.start.items())

    got = list_schedule_ops(dfg, latency_of, limits)
    want = parent_list_schedule_ops(dfg, latency_of, limits)
    assert list(got.start.items()) == list(want.start.items())
    assert got.latency_of == want.latency_of
    assert got.fu_usage() == parent_fu_usage(want)
    assert got.validate(limits) == []

    binding, parent = bind(got), parent_bind(want)
    assert list(binding.fu_of.items()) == list(parent.fu_of.items())
    assert list(binding.register_of.items()) \
        == list(parent.register_of.items())
