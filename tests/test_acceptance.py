"""End-to-end acceptance criteria.

Each test prints one `ACCEPTANCE n: PASS` line (run pytest with -s to see
them). Tolerances: all schedule/cost checks are exact integer equality; the
single floating-point check (criterion 8) is pinned to 1e-9 absolute.
"""

import math
import random
from dataclasses import replace

from metasched.bench import ALGORITHMS
from metasched.cpm import compute_cpm
from metasched.model import TctpInstance, induced_subnetwork
from metasched.oracle import exhaustive_tctp, longest_path_makespan, oracle_serial_sgs
from metasched.problems import rcpsp_problem, tctp_problem
from metasched.rcpsp import check_schedule, random_activity_list, serial_sgs
from metasched.search import sa_accept_probability
from metasched.tctp import ParetoArchive, ParetoPoint, archive_insert

from conftest import random_dag
from test_cpm import TABLE1_ROWS

SEEDS = tuple(range(10))


def test_criterion_1_cpm_baseline(table1):
    result = compute_cpm(table1)
    assert result.makespan == 126
    assert result.critical == {4, 10, 17}
    for aid, (es, ef, ls, lf, tf) in TABLE1_ROWS.items():
        row = result.rows[aid]
        assert (row.early_start, row.early_finish, row.late_start, row.late_finish,
                row.total_float) == (es, ef, ls, lf, tf), f"activity {aid}"
    print("ACCEPTANCE 1: PASS")


def test_criterion_2_tctp_uniform_modes(table2):
    expected = {
        1: (100, 169820),
        2: (128, 136705),
        3: (159, 107650),
        4: (166, 101178),
        5: (169, 99740),
    }
    evaluate = tctp_problem(table2).evaluate
    for idx, (duration, direct) in expected.items():
        _, got_duration, got_direct = evaluate((idx,) * len(table2.network.ids))
        assert (got_duration, got_direct) == (duration, direct), f"option {idx}"
    # Cross-check the all-option-2 duration on an independent decoder.
    durations = {aid: table2.options[aid][1].duration for aid in table2.network.ids}
    assert longest_path_makespan(table2.network, durations) == 128
    assert sum(min(o.direct_cost for o in opts) for opts in table2.options.values()) == 99740
    print("ACCEPTANCE 2: PASS")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(2026)
    for _ in range(200):
        net = random_dag(rng)
        assert compute_cpm(net).makespan == longest_path_makespan(net)
    for _ in range(100):
        net = random_dag(rng, max_activities=10)
        capacity = rng.randint(3, 6)
        order = random_activity_list(net, rng)
        assert serial_sgs(net, capacity, order).start_times == oracle_serial_sgs(
            net, capacity, order
        )
    print("ACCEPTANCE 3: PASS")


def test_criterion_4_unconstrained_search_recovers_cpm(table1):
    problem = rcpsp_problem(table1, 17)  # capacity covers total demand
    for algo, (config_cls, runner) in ALGORITHMS.items():
        for seed in SEEDS:
            result = runner(problem, config_cls(max_evaluations=2000), seed)
            assert result.best_duration == 126, (algo, seed, result.best_duration)
    print("ACCEPTANCE 4: PASS")


def test_criterion_5_constrained_search(table1):
    problem = rcpsp_problem(table1, 7)
    lower_bound = compute_cpm(table1).makespan
    ga_best = math.inf
    for algo, (config_cls, runner) in ALGORITHMS.items():
        for seed in SEEDS:
            result = runner(problem, config_cls(max_evaluations=20_000), seed)
            schedule = serial_sgs(table1, 7, result.best)
            assert check_schedule(table1, schedule, 7) == [], (algo, seed)
            assert result.best_duration >= lower_bound
            if algo == "ga":
                ga_best = min(ga_best, result.best_duration)
    assert ga_best <= 142, ga_best
    print("ACCEPTANCE 5: PASS")


def test_criterion_6_tctp_extreme_indirect_costs(table2):
    cheap = tctp_problem(replace(table2, indirect_cost_per_day=0))
    fast = tctp_problem(replace(table2, indirect_cost_per_day=10**6))
    for algo, (config_cls, runner) in ALGORITHMS.items():
        for seed in SEEDS:
            result = runner(cheap, config_cls(max_evaluations=20_000), seed)
            assert result.best_cost == 99740, (algo, seed, result.best_cost)
            result = runner(fast, config_cls(max_evaluations=20_000), seed)
            assert result.best_duration == 100, (algo, seed, result.best_duration)
    print("ACCEPTANCE 6: PASS")


def test_criterion_7_reduced_front_recovered(table2_sub6):
    exact = exhaustive_tctp(table2_sub6).front
    assert len(exact) == 12
    # Vary the duration/cost weighting across seeds so search pressure sweeps
    # the whole trade-off curve; pool each algorithm's visited-solution archives.
    indirect_schedule = (0, 25, 50, 100, 200, 400, 800, 1600, 3200, 6400)
    for algo, (config_cls, runner) in ALGORITHMS.items():
        pooled = ParetoArchive()
        for seed, indirect in zip(SEEDS, indirect_schedule):
            problem = tctp_problem(replace(table2_sub6, indirect_cost_per_day=indirect))
            config = config_cls(max_evaluations=2000)
            if algo == "ts":
                config = replace(config, stagnation_limit=10)
            result = runner(problem, config, seed)
            for p in result.archive.points:
                pooled = archive_insert(
                    pooled, ParetoPoint(duration=p.duration, cost=p.cost, modes=p.modes)
                )
        found = tuple((p.duration, p.cost) for p in pooled.points)
        assert found == exact, (algo, found)
    print("ACCEPTANCE 7: PASS")


def test_criterion_8_search_invariants(table2):
    # Acceptance rule at the pinned reference point.
    assert abs(sa_accept_probability(1.0, 1.0) - math.exp(-1)) <= 1e-9
    assert sa_accept_probability(-5.0, 2.0) == 1.0

    # Archive stays pairwise non-dominated under random insertion: no point
    # is no worse than another in both objectives.
    rng = random.Random(8)
    archive = ParetoArchive()
    for _ in range(300):
        archive = archive_insert(
            archive,
            ParetoPoint(duration=rng.randint(1, 40), cost=rng.randint(1, 40), modes=()),
        )
    for p in archive.points:
        for q in archive.points:
            assert p is q or not (p.duration <= q.duration and p.cost <= q.cost)

    # Seeded runs are reproducible and never exceed their budget.
    problem = tctp_problem(replace(table2, indirect_cost_per_day=230))
    for algo, (config_cls, runner) in ALGORITHMS.items():
        first = runner(problem, config_cls(max_evaluations=500), 99)
        second = runner(problem, config_cls(max_evaluations=500), 99)
        assert first.best == second.best and first.trajectory == second.trajectory
        assert first.evaluations_used <= 500
    print("ACCEPTANCE 8: PASS")
