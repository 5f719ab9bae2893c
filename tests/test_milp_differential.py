"""Differential property: HiGHS against exhaustive enumeration.

:func:`repro.partition.solve_milp` is the only MILP solver. This file
checks it against a reference that is exact by construction: every
node -> resource mapping of a small problem, scored under the
formulation's own semantics --

* ``y_e`` is the cut indicator of internal edge ``e``;
* ``T`` (``min_time``) is the largest load row: one row per resource,
  plus the bus row (I/O traffic and the cut edges' transfer ticks);
* the area rows (and, for ``min_area``, the deadline rows) are
  feasibility filters.

``solve_milp`` must return ``None`` exactly when no mapping passes the
filters. Otherwise ``c . x`` must equal the enumerated optimum, every
binary must be integral, and the mapping read back out of ``x`` must
itself be feasible and optimal.

Problems are small generated task graphs and the equalizer on
``minimal_board`` / ``cool_board``, capped at 4096 mappings. The
example budget follows the active hypothesis profile
(``tests/conftest.py``): 100 examples under ``dev``, 600 under ``ci``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from repro.apps import four_band_equalizer, random_task_graph
from repro.partition import PartitioningProblem, build_formulation, solve_milp
from repro.partition.milp import extract_mapping
from repro.platform import cool_board, minimal_board

MAX_MAPPINGS = 4096
PROPERTY = settings(max_examples=settings.default.max_examples,
                    deadline=None)

BOARDS = {"minimal": minimal_board, "cool": cool_board}

graphs = st.one_of(
    st.tuples(st.just("equalizer"), st.integers(1, 4),
              st.sampled_from((4, 8, 16))),
    st.tuples(st.just("random"), st.integers(1, 12),
              st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 2)),
)
#: ``None`` selects ``min_time``; a percentage selects ``min_area``
#: under that share of the all-software schedule's load bound.
deadlines = st.one_of(st.none(), st.integers(1, 120))


def _graph(spec):
    if spec[0] == "equalizer":
        _, bands, words = spec
        return four_band_equalizer(bands=bands, words=words)
    _, internal, seed, inputs, outputs = spec
    return random_task_graph(internal + inputs + outputs, seed=seed,
                             n_inputs=inputs, n_outputs=outputs)


def _score(problem, objective, deadline, maps):
    """``(feasible, objective value)`` of every row of ``maps``.

    ``maps[k, i]`` is the resource index of internal node ``i`` in
    mapping ``k``.
    """
    graph, arch, model = problem.graph, problem.arch, problem.model
    nodes = [n.name for n in graph.internal_nodes()]
    resources = list(arch.resource_names)
    on = maps[:, :, None] == np.arange(len(resources))

    latency = np.array([[model.latency(v, r) for r in resources]
                        for v in nodes], dtype=float)
    loads = np.einsum("knr,nr->kr", on, latency)

    position = {v: i for i, v in enumerate(nodes)}
    internal = [e for e in graph.edges
                if e.src in position and e.dst in position]
    ticks = np.array([model.transfer_ticks(e) for e in internal], dtype=float)
    cut = (maps[:, [position[e.src] for e in internal]]
           != maps[:, [position[e.dst] for e in internal]])
    io_ticks = sum(model.transfer_ticks(e) for e in graph.edges
                   if graph.node(e.src).is_io or graph.node(e.dst).is_io)
    bus = io_ticks + cut @ ticks

    feasible = np.ones(len(maps), dtype=bool)
    hw_area = np.zeros(len(maps))
    for fpga in arch.fpgas:
        area = np.array([model.area(v, fpga.name) for v in nodes],
                        dtype=float)
        used = on[:, :, resources.index(fpga.name)] @ area
        feasible &= used <= fpga.clb_capacity
        hw_area += used

    if objective == "min_time":
        return feasible, np.maximum(loads.max(axis=1), bus)
    feasible &= (loads <= deadline).all(axis=1) & (bus <= deadline)
    return feasible, hw_area + cut @ ticks


@PROPERTY
@given(spec=graphs, board=st.sampled_from(sorted(BOARDS)),
       deadline_pct=deadlines)
@example(spec=("equalizer", 4, 4), board="minimal", deadline_pct=None)
@example(spec=("equalizer", 4, 4), board="minimal", deadline_pct=1)
@example(spec=("random", 7, 3, 2, 2), board="cool", deadline_pct=60)
def test_highs_matches_enumeration(spec, board, deadline_pct):
    problem = PartitioningProblem(_graph(spec), BOARDS[board]())
    nodes = [n.name for n in problem.graph.internal_nodes()]
    resources = list(problem.arch.resource_names)
    assume(len(resources) ** len(nodes) <= MAX_MAPPINGS)
    maps = np.array(list(itertools.product(range(len(resources)),
                                           repeat=len(nodes))))

    objective, deadline = "min_time", None
    if deadline_pct is not None:
        # all-software is maps[0]; its min_time value is its load bound
        _, bound = _score(problem, "min_time", None, maps[:1])
        objective = "min_area"
        deadline = max(1, int(bound[0]) * deadline_pct // 100)
    feasible, value = _score(problem, objective, deadline, maps)

    form, indexing = build_formulation(problem, objective, deadline)
    x = solve_milp(form)
    event(f"{objective}, {'feasible' if feasible.any() else 'infeasible'}")
    if not feasible.any():
        assert x is None
        return
    assert x is not None
    optimum = value[feasible].min()
    assert float(np.dot(form.c, x)) == pytest.approx(optimum, abs=1e-6)
    for i, flag in enumerate(form.integrality):
        if flag:
            assert x[i] == pytest.approx(round(x[i]), abs=1e-6)

    mapping = extract_mapping(x, indexing)
    chosen = np.array([[resources.index(mapping[v]) for v in nodes]])
    ok, score = _score(problem, objective, deadline, chosen)
    assert ok[0] and score[0] == pytest.approx(optimum, abs=1e-6)
