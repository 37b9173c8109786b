"""Simulated annealing, tabu search, and a generational genetic algorithm
behind one problem abstraction.

Every run is a pure function of (problem, config, seed): a single explicit
`random.Random(seed)` drives all randomness, fitness is counted per call, and
the best-so-far trajectory plus a non-dominated archive of every evaluated
candidate are recorded.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .tctp import ParetoArchive, ParetoPoint, archive_insert

Candidate = tuple


@dataclass(frozen=True)
class SaConfig:
    initial_temperature: float | None = None  # auto-calibrated when unset
    cooling_factor: float = 0.95
    steps_per_temperature: int = 50
    max_evaluations: int = 20_000

    def __post_init__(self):
        if self.initial_temperature is not None and not 0 < self.initial_temperature < math.inf:
            raise ValueError("initial_temperature must be positive and finite")
        if not 0 < self.cooling_factor < 1:
            raise ValueError("cooling_factor must be in (0, 1)")
        if self.steps_per_temperature < 1 or self.max_evaluations < 1:
            raise ValueError("steps_per_temperature and max_evaluations must be positive")


@dataclass(frozen=True)
class TsConfig:
    tabu_tenure: int = 7
    neighborhood_sample: int | str = "full"
    max_evaluations: int = 20_000
    stagnation_limit: int = 30  # iterations without improvement before diversifying

    def __post_init__(self):
        if self.tabu_tenure < 1 or self.max_evaluations < 1:
            raise ValueError("tabu_tenure and max_evaluations must be positive")
        if self.neighborhood_sample != "full" and (
            not isinstance(self.neighborhood_sample, int) or self.neighborhood_sample < 1
        ):
            raise ValueError("neighborhood_sample must be 'full' or a positive integer")


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # defaults to 1/n per gene
    tournament_size: int = 2
    elitism_count: int = 1
    max_evaluations: int = 20_000

    def __post_init__(self):
        if self.population_size < 1 or self.max_evaluations < 1:
            raise ValueError("population_size and max_evaluations must be positive")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 2 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must be in [2, population_size]")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must be in [0, population_size)")


@dataclass(frozen=True)
class Move:
    """A tabu-search move: the candidate it leads to, the key checked against
    the tabu list, and the key stored when the move is applied."""

    tabu_key: tuple | frozenset
    store_key: tuple | frozenset
    candidate: Candidate


@dataclass(frozen=True)
class SearchProblem:
    """One optimization problem: representation, variation, and evaluation.

    `evaluate` returns (fitness, duration, cost), exact ints; fitness is
    minimized and duration/cost feed the visited-solution archive. `mutate`
    takes a per-gene rate; the GA defaults it to 1/len(candidate).
    """

    initial: Callable[[random.Random], Candidate]
    evaluate: Callable[[Candidate], tuple[int, int, int]]
    neighbor: Callable[[Candidate, random.Random], Candidate]
    neighborhood: Callable[[Candidate], list[Move]]
    crossover: Callable[[Candidate, Candidate, random.Random], Candidate]
    mutate: Callable[[Candidate, float, random.Random], Candidate]


@dataclass(frozen=True)
class RunResult:
    algorithm: str
    seed: int
    best: Candidate
    best_fitness: int
    best_duration: int
    best_cost: int  # direct cost for TCTP, 0 for RCPSP
    evaluations_used: int
    native_iterations: int
    trajectory: tuple[tuple[int, int], ...]  # (evaluation index, best-so-far)
    archive: ParetoArchive


class _Tracker:
    """Counts evaluations, tracks the best-ever candidate and trajectory, and
    archives every evaluated candidate's (duration, cost) point."""

    def __init__(self, problem: SearchProblem, max_evaluations: int):
        self.problem = problem
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self.best: Candidate | None = None
        self.best_fitness = math.inf
        self.best_duration = 0
        self.best_cost = 0
        self.trajectory: list[tuple[int, int]] = []
        self.archive = ParetoArchive()

    @property
    def remaining(self) -> int:
        return self.max_evaluations - self.evaluations

    def evaluate(self, candidate: Candidate) -> int:
        fitness, duration, cost = self.problem.evaluate(candidate)
        self.evaluations += 1
        if fitness < self.best_fitness:
            self.best = candidate
            self.best_fitness = fitness
            self.best_duration = duration
            self.best_cost = cost
            self.trajectory.append((self.evaluations, fitness))
        # Most visited solutions are already covered: skip allocating their point.
        if not self.archive.covers(duration, cost):
            self.archive = archive_insert(
                self.archive, ParetoPoint(duration=duration, cost=cost, modes=candidate)
            )
        return fitness

    def result(self, algorithm: str, seed: int, native_iterations: int) -> RunResult:
        return RunResult(
            algorithm=algorithm,
            seed=seed,
            best=self.best,
            best_fitness=self.best_fitness,
            best_duration=self.best_duration,
            best_cost=self.best_cost,
            evaluations_used=self.evaluations,
            native_iterations=native_iterations,
            trajectory=tuple(self.trajectory),
            archive=self.archive,
        )


def sa_accept_probability(delta: float, temperature: float) -> float:
    """Acceptance probability for a fitness change at a given temperature:
    1 for improving moves, exp(-delta/temperature) for worsening ones."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if delta <= 0:
        return 1.0
    return math.exp(-delta / temperature)


def run_sa(problem: SearchProblem, config: SaConfig, seed: int) -> RunResult:
    rng = random.Random(seed)
    tracker = _Tracker(problem, config.max_evaluations)
    current = problem.initial(rng)
    f_cur = tracker.evaluate(current)

    steps = 0
    try:  # an int fitness change past the float range cannot be weighed against a temperature
        temperature = config.initial_temperature
        if temperature is None:
            temperature = _calibrate_temperature(problem, tracker, current, f_cur, rng)
        while tracker.remaining > 0:
            candidate = problem.neighbor(current, rng)
            f_new = tracker.evaluate(candidate)
            if rng.random() < sa_accept_probability(f_new - f_cur, temperature):
                current, f_cur = candidate, f_new
            steps += 1
            if steps % config.steps_per_temperature == 0:
                temperature = max(temperature * config.cooling_factor, 1e-12)
    except OverflowError as exc:
        raise OverflowError("sa: a cost change is beyond the float range, so no temperature can divide it") from exc
    return tracker.result("sa", seed, native_iterations=steps)


def _calibrate_temperature(
    problem: SearchProblem, tracker: _Tracker, start: Candidate, f_start: int, rng: random.Random
) -> float:
    """Pick a starting temperature that would accept ~80% of the worsening
    moves among 100 sampled neighbours of the initial candidate."""
    worsening: list[int] = []
    for _ in range(min(100, tracker.remaining)):
        neighbor = problem.neighbor(start, rng)
        delta = tracker.evaluate(neighbor) - f_start
        if delta > 0:
            worsening.append(delta)
    if not worsening:
        return 1.0
    mean_delta = sum(worsening) / len(worsening)
    return max(mean_delta / -math.log(0.8), 1e-9)


def run_ts(problem: SearchProblem, config: TsConfig, seed: int) -> RunResult:
    rng = random.Random(seed)
    tracker = _Tracker(problem, config.max_evaluations)
    current = problem.initial(rng)
    tracker.evaluate(current)

    tabu_until: dict = {}
    frequency: Counter = Counter()
    iteration = 0
    last_improvement = 0
    while tracker.remaining > 0:
        iteration += 1
        best_before = tracker.best_fitness
        moves = problem.neighborhood(current)
        if not moves:
            break
        if config.neighborhood_sample != "full" and len(moves) > config.neighborhood_sample:
            moves = rng.sample(moves, config.neighborhood_sample)
        scored = [(tracker.evaluate(move.candidate), i, move) for i, move in enumerate(moves[: tracker.remaining])]
        scored.sort()  # the unique index breaks fitness ties by position, so moves are never compared
        chosen = scored[0][2]  # taken when every move is tabu and none aspires
        for fitness, _, move in scored:  # the best move that is not tabu or beats the best so far (aspiration)
            if tabu_until.get(move.tabu_key, 0) < iteration or fitness < best_before:
                chosen = move
                break
        current = chosen.candidate
        tabu_until[chosen.store_key] = iteration + config.tabu_tenure
        frequency[chosen.store_key] += 1

        if tracker.best_fitness < best_before:
            last_improvement = iteration
        elif iteration - last_improvement >= config.stagnation_limit:
            current = _diversify(problem, tracker, current, frequency)
            last_improvement = iteration
    return tracker.result("ts", seed, native_iterations=iteration)


def _diversify(problem: SearchProblem, tracker: _Tracker, current: Candidate, frequency: Counter) -> Candidate:
    """Frequency-based kick: three moves along the least-used move attributes
    push the trajectory into rarely visited territory."""
    for _ in range(3):
        moves = problem.neighborhood(current)
        if not moves:
            break
        least = min(range(len(moves)), key=lambda i: (frequency[moves[i].store_key], i))
        chosen = moves[least]
        frequency[chosen.store_key] += 1
        current = chosen.candidate
    if tracker.remaining > 0:
        tracker.evaluate(current)
    return current


def run_ga(problem: SearchProblem, config: GaConfig, seed: int) -> RunResult:
    rng = random.Random(seed)
    tracker = _Tracker(problem, config.max_evaluations)

    population: list[tuple[int, Candidate]] = []
    while len(population) < config.population_size and tracker.remaining > 0:
        candidate = problem.initial(rng)
        population.append((tracker.evaluate(candidate), candidate))
    rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / len(population[0][1])

    generations = 0
    while tracker.remaining > 0:
        generations += 1
        population.sort(key=lambda item: item[0])
        next_population = population[: config.elitism_count]
        offspring: list[tuple[int, Candidate]] = []
        while (
            len(next_population) + len(offspring) < config.population_size
            and tracker.remaining > 0
        ):
            parent1 = _tournament(population, config.tournament_size, rng)
            parent2 = _tournament(population, config.tournament_size, rng)
            if rng.random() < config.crossover_rate:
                child = problem.crossover(parent1, parent2, rng)
            else:
                child = parent1
            child = problem.mutate(child, rate, rng)
            offspring.append((tracker.evaluate(child), child))
        population = next_population + offspring
    return tracker.result("ga", seed, native_iterations=generations)


def _tournament(
    population: list[tuple[int, Candidate]], size: int, rng: random.Random
) -> Candidate:
    picks = [population[rng.randrange(len(population))] for _ in range(size)]
    return min(picks, key=lambda item: item[0])[1]
