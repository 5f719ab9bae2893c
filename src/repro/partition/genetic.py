"""Genetic-algorithm partitioning (the third engine COOL offers).

Chromosome: one gene per internal node holding a resource index.
Fitness: the makespan of the **real** list schedule, plus heavy
penalties for constraint violations (FPGA area, shared-memory footprint,
deadline).  Selection is tournament-based with elitism, crossover is
uniform, and mutation re-draws single genes.  All randomness flows from
one seed, so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .base import PartitioningProblem, Partitioner, evaluate_mapping

__all__ = ["GeneticPartitioner", "GaConfig"]


@dataclass(frozen=True)
class GaConfig:
    """Hyper-parameters of the genetic partitioner."""

    population: int = 30
    generations: int = 40
    tournament: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.08
    elite: int = 2
    seed: int = 0
    area_penalty: float = 50.0
    memory_penalty: float = 10.0
    deadline_penalty: float = 5.0

    def __post_init__(self) -> None:
        for name, low in (("population", 1), ("tournament", 1),
                          ("generations", 0), ("elite", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"GaConfig.{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"GaConfig.{name} must be in [0, 1], "
                                 f"got {getattr(self, name)}")


class GeneticPartitioner(Partitioner):
    """Evolve node -> resource mappings against the real scheduler."""

    name = "genetic"

    def __init__(self, config: GaConfig | None = None, **overrides) -> None:
        base = config if config is not None else GaConfig()
        if overrides:
            base = GaConfig(**{**base.__dict__, **overrides})
        self.config = base
        self._stats: dict = {}

    # ------------------------------------------------------------------
    def _fitness(self, problem: PartitioningProblem,
                 genome: tuple[int, ...], nodes: list[str],
                 resources: list[str]) -> float:
        mapping = {v: resources[g] for v, g in zip(nodes, genome)}
        _, schedule, report = evaluate_mapping(problem, mapping)
        cfg = self.config
        fitness = float(schedule.makespan)
        arch = problem.arch
        for fpga in arch.fpgas:
            over = report.area.get(fpga.name, 0) - fpga.clb_capacity
            if over > 0:
                fitness += cfg.area_penalty * over
        mem_over = report.memory_words - arch.memory.words
        if mem_over > 0:
            fitness += cfg.memory_penalty * mem_over
        if problem.deadline is not None \
                and schedule.makespan > problem.deadline:
            fitness += cfg.deadline_penalty \
                * (schedule.makespan - problem.deadline)
        return fitness

    def solve(self, problem: PartitioningProblem) -> dict[str, str]:
        cfg = self.config
        rng = random.Random(cfg.seed)
        nodes = [n.name for n in problem.graph.internal_nodes()]
        resources = list(problem.resources)
        n_res = len(resources)

        def random_genome() -> tuple[int, ...]:
            return tuple(rng.randrange(n_res) for _ in nodes)

        # seed the population with the two trivial corners plus randoms
        population: list[tuple[int, ...]] = []
        if problem.arch.processors:
            cpu_index = resources.index(problem.arch.processor_names[0])
            population.append(tuple([cpu_index] * len(nodes)))
        if problem.arch.fpgas:
            fpga_index = resources.index(problem.arch.fpga_names[0])
            population.append(tuple([fpga_index] * len(nodes)))
        while len(population) < cfg.population:
            population.append(random_genome())

        cache: dict[tuple[int, ...], float] = {}

        def fitness(genome: tuple[int, ...]) -> float:
            if genome not in cache:
                cache[genome] = self._fitness(problem, genome, nodes,
                                              resources)
            return cache[genome]

        def tournament() -> tuple[int, ...]:
            picks = [population[rng.randrange(len(population))]
                     for _ in range(cfg.tournament)]
            return min(picks, key=fitness)

        best = min(population, key=fitness)
        stagnant = 0
        generations_run = 0
        for generations_run in range(1, cfg.generations + 1):
            graded = sorted(population, key=fitness)
            next_pop = graded[: cfg.elite]
            while len(next_pop) < cfg.population:
                mother, father = tournament(), tournament()
                if rng.random() < cfg.crossover_rate:
                    child = tuple(m if rng.random() < 0.5 else f
                                  for m, f in zip(mother, father))
                else:
                    child = mother
                child = tuple(
                    rng.randrange(n_res) if rng.random() < cfg.mutation_rate
                    else gene for gene in child)
                next_pop.append(child)
            population = next_pop
            generation_best = min(population, key=fitness)
            if fitness(generation_best) < fitness(best):
                best = generation_best
                stagnant = 0
            else:
                stagnant += 1
            if stagnant >= 12:
                break  # converged

        self._stats = {
            "generations_run": generations_run,
            "fitness_evaluations": len(cache),
            "best_fitness": fitness(best),
        }
        return {v: resources[g] for v, g in zip(nodes, best)}

    def stats(self) -> dict:
        return dict(self._stats)
