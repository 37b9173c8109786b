import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.bench import ALGORITHMS
from metasched.model import Activity, ProjectNetwork
from metasched.problems import neighbor_mode_change, rcpsp_problem, tctp_problem
from metasched.rcpsp import neighbor_swap, order_crossover, repair_precedence
from metasched.search import (
    GaConfig,
    Move,
    SaConfig,
    SearchProblem,
    TsConfig,
    run_ga,
    run_sa,
    run_ts,
    sa_accept_probability,
)

from conftest import is_precedence_feasible


class TestAcceptProbability:
    def test_improving_always_accepted(self):
        assert sa_accept_probability(-3.0, 0.5) == 1.0
        assert sa_accept_probability(0.0, 0.5) == 1.0

    def test_delta_equal_to_temperature(self):
        assert sa_accept_probability(2.0, 2.0) == pytest.approx(math.exp(-1), abs=1e-9)

    def test_monotone_in_temperature(self):
        cold = sa_accept_probability(5.0, 0.1)
        hot = sa_accept_probability(5.0, 100.0)
        assert 0 <= cold < hot < 1

    def test_extreme_delta_underflows_to_zero(self):
        assert sa_accept_probability(1e9, 1.0) == 0.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            sa_accept_probability(1.0, 0.0)
        with pytest.raises(ValueError):
            sa_accept_probability(1.0, -2.0)


class TestOrderCrossover:
    def test_worked_example(self):
        assert order_crossover((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), 1, 3) == (5, 2, 3, 4, 1)

    def test_full_segment_copies_parent1(self):
        p1, p2 = (3, 1, 2), (2, 3, 1)
        assert order_crossover(p1, p2, 0, 3) == p1

    def test_empty_complement_of_segment(self):
        p1, p2 = (1, 2, 3), (3, 2, 1)
        assert order_crossover(p1, p2, 0, 1) == (1, 3, 2)

    def test_child_is_permutation(self):
        rng = random.Random(5)
        base = tuple(range(1, 11))
        for _ in range(100):
            p1 = tuple(rng.sample(base, len(base)))
            p2 = tuple(rng.sample(base, len(base)))
            cut1 = rng.randrange(len(base))
            cut2 = rng.randrange(cut1 + 1, len(base) + 1)
            child = order_crossover(p1, p2, cut1, cut2)
            assert sorted(child) == sorted(base)
            assert child[cut1:cut2] == p1[cut1:cut2]

    def test_invalid_cuts_rejected(self):
        with pytest.raises(ValueError, match="cuts"):
            order_crossover((1, 2, 3), (3, 2, 1), 2, 2)

    def test_non_permutation_parents_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            order_crossover((1, 2, 3), (1, 2, 4), 0, 1)
        with pytest.raises(ValueError, match="permutation"):
            order_crossover((1, 2, 3), (1, 2, 3, 3), 0, 1)


class TestRepairPrecedence:
    def test_feasible_order_unchanged(self, table1):
        order = tuple(table1.topological_order())
        assert repair_precedence(table1, order) == order

    def test_repaired_order_feasible(self, table1):
        rng = random.Random(2)
        ids = list(table1.ids)
        for _ in range(50):
            rng.shuffle(ids)
            repaired = repair_precedence(table1, tuple(ids))
            assert is_precedence_feasible(table1, repaired)
            assert sorted(repaired) == sorted(ids)

    def test_stability_prefers_earlier_positions(self, table1):
        # 17 listed first must still come after its predecessors 3, 8, 10,
        # but immediately after the last of them becomes schedulable.
        repaired = repair_precedence(table1, (4, 10, 17, 1, 8, 3, 7, 9, 16, 11, 5, 6, 14, 15, 2, 12, 13))
        assert repaired == (4, 10, 1, 8, 3, 17, 7, 9, 11, 5, 6, 2, 12, 14, 16, 13, 15)


class TestNeighborOperators:
    def test_swap_preserves_feasibility(self, table1):
        rng = random.Random(9)
        order = tuple(table1.topological_order())
        for _ in range(200):
            order = neighbor_swap(table1, order, rng)
            assert is_precedence_feasible(table1, order)

    def test_swap_changes_exactly_one_adjacent_pair(self, table1):
        rng = random.Random(1)
        order = tuple(table1.topological_order())
        moved = neighbor_swap(table1, order, rng)
        diff = [i for i in range(len(order)) if order[i] != moved[i]]
        assert len(diff) == 2 and diff[1] == diff[0] + 1

    def test_mode_change_single_position(self):
        rng = random.Random(4)
        counts = (5, 1, 3)
        modes = (2, 1, 3)
        for _ in range(50):
            changed = neighbor_mode_change(counts, modes, rng)
            diff = [i for i in range(3) if changed[i] != modes[i]]
            assert len(diff) == 1
            i = diff[0]
            assert i != 1  # the single-option activity is never touched
            assert 1 <= changed[i] <= counts[i]

    def test_mode_change_no_mutable_positions(self):
        rng = random.Random(0)
        assert neighbor_mode_change((1, 1), (1, 1), rng) == (1, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 2**64))
    def test_mode_change_draws_like_list_version(self, data, seed):
        counts = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=8)))
        modes = tuple(data.draw(st.integers(1, count)) for count in counts)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(20):
            changed = neighbor_mode_change(counts, modes, rng)
            assert changed == _list_mode_change(counts, modes, reference_rng)
            assert rng.getstate() == reference_rng.getstate()
            modes = changed


def _list_mode_change(option_counts, modes, rng):
    """Reference for `neighbor_mode_change`: pick the new index from the
    explicit list of the other valid indices."""
    mutable = [i for i, count in enumerate(option_counts) if count > 1]
    if not mutable:
        return modes
    i = mutable[rng.randrange(len(mutable))]
    alternatives = [idx for idx in range(1, option_counts[i] + 1) if idx != modes[i]]
    changed = list(modes)
    changed[i] = alternatives[rng.randrange(len(alternatives))]
    return tuple(changed)


@pytest.fixture(scope="module")
def rcpsp7(table1):
    return rcpsp_problem(table1, 7)


@pytest.fixture(scope="module")
def tctp230(table2):
    return tctp_problem(replace(table2, indirect_cost_per_day=230))


@pytest.mark.parametrize("algo", list(ALGORITHMS))
@pytest.mark.parametrize("problem_name", ["rcpsp7", "tctp230"])
class TestRunners:
    def _run(self, request, problem_name, algo, seed):
        problem = request.getfixturevalue(problem_name)
        config_cls, runner = ALGORITHMS[algo]
        return runner(problem, config_cls(max_evaluations=400), seed)

    def test_deterministic_per_seed(self, request, problem_name, algo):
        a = self._run(request, problem_name, algo, seed=42)
        b = self._run(request, problem_name, algo, seed=42)
        assert a.best == b.best
        assert a.best_fitness == b.best_fitness
        assert a.trajectory == b.trajectory
        assert a.evaluations_used == b.evaluations_used
        assert [p.objectives for p in a.archive.points] == [
            p.objectives for p in b.archive.points
        ]

    def test_budget_respected_and_counted(self, request, problem_name, algo):
        problem = request.getfixturevalue(problem_name)
        calls = 0
        inner = problem.evaluate

        def counting(candidate):
            nonlocal calls
            calls += 1
            return inner(candidate)

        wrapped = replace(problem, evaluate=counting)
        config_cls, runner = ALGORITHMS[algo]
        result = runner(wrapped, config_cls(max_evaluations=400), seed=3)
        assert result.evaluations_used == calls
        assert result.evaluations_used <= 400

    def test_trajectory_strictly_improving(self, request, problem_name, algo):
        result = self._run(request, problem_name, algo, seed=5)
        evals = [i for i, _ in result.trajectory]
        fits = [f for _, f in result.trajectory]
        assert evals == sorted(evals)
        assert all(b < a for a, b in zip(fits, fits[1:]))
        assert fits[-1] == result.best_fitness

    def test_best_is_feasible(self, request, problem_name, algo, table1, table2):
        option_counts = [len(table2.options[aid]) for aid in table2.network.ids]
        for seed in range(5):
            best = self._run(request, problem_name, algo, seed=seed).best
            if problem_name == "rcpsp7":
                assert is_precedence_feasible(table1, best)
            else:
                assert len(best) == len(option_counts)
                assert all(1 <= mode <= count for mode, count in zip(best, option_counts))

    def test_archive_covers_best(self, request, problem_name, algo):
        result = self._run(request, problem_name, algo, seed=8)
        assert any(
            p.duration <= result.best_duration and p.cost <= result.best_cost
            for p in result.archive.points
        )


def test_sa_explicit_temperature_skips_calibration(rcpsp7):
    result = run_sa(rcpsp7, SaConfig(initial_temperature=5.0, max_evaluations=150), seed=1)
    assert result.evaluations_used == 150
    assert result.native_iterations == 149  # one evaluation spent on the start


@pytest.mark.parametrize("seed", [2, 6])
@pytest.mark.parametrize("sample", ["full", 4])
@pytest.mark.parametrize("problem_name", ["rcpsp7", "tctp230"])
def test_ts_picks_by_tenure_and_aspiration(request, problem_name, sample, seed):
    """Replay a TS run from its `neighborhood` and `evaluate` calls: each
    iteration must move to the best-scored move that is not tabu or beats
    the best fitness so far, else to the best-scored move."""
    problem = request.getfixturevalue(problem_name)
    calls = []  # ("neighborhood", current, moves) and ("evaluate", candidate, fitness)

    def neighborhood(current):
        moves = problem.neighborhood(current)
        calls.append(("neighborhood", current, moves))
        return moves

    def evaluate(candidate):
        result = problem.evaluate(candidate)
        calls.append(("evaluate", candidate, result[0]))
        return result

    config = TsConfig(max_evaluations=3000, neighborhood_sample=sample, stagnation_limit=10**9)
    run_ts(replace(problem, neighborhood=neighborhood, evaluate=evaluate), config, seed)

    # Iteration k evaluates its sampled moves between the k-th and (k+1)-th
    # neighborhood call, and the (k+1)-th call receives the move it took.
    starts = [k for k, call in enumerate(calls) if call[0] == "neighborhood"]
    best = calls[0][2]  # the initial candidate's fitness
    tabu_until: dict = {}
    aspirations = fallbacks = 0
    for iteration, (start, end) in enumerate(zip(starts, starts[1:]), start=1):
        moves = {move.candidate: move for move in calls[start][2]}
        assert len(moves) == len(calls[start][2])
        evaluated = calls[start + 1:end]
        scored = sorted((fitness, i, moves[candidate]) for i, (_, candidate, fitness) in enumerate(evaluated))
        allowed = [
            (fitness, move) for fitness, _, move in scored
            if tabu_until.get(move.tabu_key, 0) < iteration or fitness < best
        ]
        if allowed:
            _, chosen = allowed[0]
            aspirations += tabu_until.get(chosen.tabu_key, 0) >= iteration
        else:
            chosen = scored[0][2]
            fallbacks += 1
        assert calls[end][1] == chosen.candidate, iteration
        tabu_until[chosen.store_key] = iteration + config.tabu_tenure
        best = min(best, scored[0][0])
    assert len(starts) > 10
    # A sampled neighbourhood exercises both exceptions to the tabu rule.
    if sample == 4 and problem_name == "tctp230":
        assert aspirations >= 1
    if sample == 4 and problem_name == "rcpsp7":
        assert fallbacks >= 1


def test_ts_stops_when_no_move_exists():
    """A chain has one activity list, so no adjacent swap keeps it feasible:
    TS evaluates its start and stops at the first empty neighbourhood."""
    chain = ProjectNetwork(
        activities=tuple(Activity(id=aid, duration=2, resource_demand=1) for aid in (1, 2, 3)),
        predecessors={1: frozenset(), 2: frozenset({1}), 3: frozenset({2})},
    )
    result = run_ts(rcpsp_problem(chain, 1), TsConfig(max_evaluations=100), seed=1)
    assert (result.native_iterations, result.evaluations_used) == (1, 1)


def test_ts_kick_stops_when_no_move_exists():
    """Candidates (0,), (1,), (2,) on a path, all of one fitness: the first
    move improves nothing, so the kick starts at (1,), takes the one move to
    (2,), finds no move there and evaluates (2,); the next iteration finds
    no move either and TS stops."""

    def neighborhood(candidate):
        return [Move(candidate, candidate, (candidate[0] + 1,))] if candidate[0] < 2 else []

    def unused(*args):
        raise AssertionError("TS draws only initial, evaluate and neighborhood")

    path = SearchProblem(
        initial=lambda rng: (0,), evaluate=lambda candidate: (5, 5, 0), neighbor=unused,
        neighborhood=neighborhood, crossover=unused, mutate=unused,
    )
    result = run_ts(path, TsConfig(stagnation_limit=1, max_evaluations=100), seed=1)
    assert (result.native_iterations, result.evaluations_used, result.best) == (2, 3, (0,))


def test_ga_elites_survive(tctp230):
    result = run_ga(
        tctp230, GaConfig(population_size=20, max_evaluations=600), seed=4
    )
    assert result.native_iterations >= 1
    assert result.best_fitness == min(f for _, f in result.trajectory)


@pytest.mark.parametrize(
    "config_cls, kwargs",
    [
        (SaConfig, {"initial_temperature": -1.0}),
        (SaConfig, {"cooling_factor": 1.5}),
        (SaConfig, {"steps_per_temperature": 0}),
        (TsConfig, {"tabu_tenure": 0}),
        (TsConfig, {"neighborhood_sample": 0}),
        (GaConfig, {"crossover_rate": 1.5}),
        (GaConfig, {"tournament_size": 1}),
        (GaConfig, {"elitism_count": 50}),
        (SaConfig, {"initial_temperature": math.nan}),
        (SaConfig, {"initial_temperature": math.inf}),
        (GaConfig, {"population_size": 4, "tournament_size": 5}),
        (GaConfig, {"population_size": 1, "elitism_count": 0}),
        (SaConfig, {"initial_temperature": 10**400}),
        (GaConfig, {"population_size": 0}),
        (GaConfig, {"mutation_rate": 2.0}),
    ],
)
def test_config_validation(config_cls, kwargs):
    with pytest.raises(ValueError):
        config_cls(**kwargs)
