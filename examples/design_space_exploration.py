#!/usr/bin/env python3
"""Design-space exploration: sweep partitioners x deadlines x boards.

Fans the full COOL flow over every combination with the
:class:`~repro.flow.batch.BatchRunner`, then prints the implementations
ranked on the classic co-design Pareto axes -- makespan, CLB area and
communication memory -- with the Pareto-optimal ones marked ``*``.
The best implementation's full flow report is printed at the end.
"""

from repro.apps import four_band_equalizer
from repro.flow import BatchRunner, CoolFlow, DesignSpaceExplorer
from repro.partition import GreedyPartitioner, MilpPartitioner
from repro.platform import cool_board, minimal_board


def main() -> None:
    graph = four_band_equalizer(words=16)

    # one quick unconstrained run to anchor realistic deadline choices
    free = CoolFlow(minimal_board(), partitioner=GreedyPartitioner()) \
        .run(graph)
    deadlines = [None, free.makespan * 2, free.makespan * 4]

    explorer = DesignSpaceExplorer(
        graph,
        architectures=[minimal_board(), cool_board()],
        partitioners=[GreedyPartitioner(), MilpPartitioner()],
        deadlines=deadlines,
        runner=BatchRunner(),
    )
    exploration = explorer.explore()

    print(f"explored {len(exploration.points)} implementations of "
          f"{graph.name!r} ({len(exploration.pareto())} Pareto-optimal):\n")
    print(exploration.table())

    best = exploration.ranked()[0]
    print(f"\nbest implementation: {best.label}")
    winner = next(o for o in exploration.outcomes
                  if o.ok and o.job.name == best.label)
    print(winner.result.report())


if __name__ == "__main__":
    main()
