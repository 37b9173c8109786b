import json
from dataclasses import replace

import pytest

from metasched.cpm import compute_cpm
from metasched.instances import load_network, load_tctp, read_bundled
from metasched.model import Activity, ProjectNetwork
from metasched.problems import rcpsp_problem, tctp_problem
from metasched.search import SaConfig, run_sa
from metasched.tctp import ParetoArchive, ParetoPoint
from perfbench import checks

BUDGET = 300


@pytest.fixture(scope="module")
def table1():
    return checks.aoa_network(json.loads(read_bundled("table1")))


@pytest.fixture(scope="module")
def table2():
    return checks.TctpData.from_document(json.loads(read_bundled("table2")))


@pytest.fixture(scope="module")
def rcpsp_run():
    return run_sa(rcpsp_problem(load_network("table1"), 7), SaConfig(max_evaluations=BUDGET), seed=1)


@pytest.fixture(scope="module")
def tctp_run():
    problem = tctp_problem(load_tctp("table2", indirect_cost=230))
    return run_sa(problem, SaConfig(max_evaluations=BUDGET), seed=1)


def test_rcpsp_run_passes(table1, rcpsp_run):
    assert checks.check_rcpsp_run(table1, 7, rcpsp_run, BUDGET) == []


def test_rcpsp_wrong_makespan_flagged(table1, rcpsp_run):
    bad = replace(rcpsp_run, best_duration=rcpsp_run.best_duration - 1)
    assert any("makespan" in p for p in checks.check_rcpsp_run(table1, 7, bad, BUDGET))


def test_rcpsp_infeasible_list_flagged(table1, rcpsp_run):
    bad = replace(rcpsp_run, best=tuple(reversed(rcpsp_run.best)))
    assert any("precedence" in p for p in checks.check_rcpsp_run(table1, 7, bad, BUDGET))


def test_budget_flagged(table1, rcpsp_run):
    assert checks.check_rcpsp_run(table1, 7, rcpsp_run, BUDGET + 1) != []


def test_over_capacity_start_flagged():
    net = ProjectNetwork(
        activities=(Activity(1, 4, 2), Activity(2, 3, 2), Activity(3, 2, 1)),
        predecessors={1: frozenset(), 2: frozenset(), 3: frozenset({1})},
    )
    assert checks.check_schedule(net, 3, {1: 0, 2: 4, 3: 4}, 7) == []
    assert any("exceeds capacity" in p for p in checks.check_schedule(net, 3, {1: 0, 2: 2, 3: 5}, 7))
    assert any("before 1 finishes" in p for p in checks.check_schedule(net, 3, {1: 0, 2: 4, 3: 3}, 7))
    assert any("makespan" in p for p in checks.check_schedule(net, 3, {1: 0, 2: 4, 3: 4}, 8))


def test_tctp_run_passes(table2, tctp_run):
    assert checks.check_tctp_run(table2, 230, tctp_run, BUDGET) == []


def test_tctp_wrong_cost_flagged(table2, tctp_run):
    bad = replace(tctp_run, best_cost=tctp_run.best_cost + 1)
    assert checks.check_tctp_run(table2, 230, bad, BUDGET) != []


@pytest.mark.parametrize("mode", [0, 99])
def test_out_of_range_mode_flagged(table2, tctp_run, mode):
    bad_best = replace(tctp_run, best=(mode,) + tuple(tctp_run.best[1:]))
    assert any("outside" in p for p in checks.check_tctp_run(table2, 230, bad_best, BUDGET))
    p = tctp_run.archive.points[0]
    moved = replace(p, modes=(mode,) + tuple(p.modes[1:]))
    bad_archive = replace(tctp_run, archive=ParetoArchive(points=(moved,) + tctp_run.archive.points[1:]))
    assert any("outside" in m for m in checks.check_tctp_run(table2, 230, bad_archive, BUDGET))


def test_dominated_archive_point_flagged(table2, tctp_run):
    worst = max(tctp_run.archive.points, key=lambda p: p.cost)
    dominated = ParetoPoint(duration=worst.duration + 1, cost=worst.cost + 1, modes=worst.modes)
    bad = replace(tctp_run, archive=ParetoArchive(points=tctp_run.archive.points + (dominated,)))
    assert any("dominates" in p for p in checks.check_archive(bad))
    assert checks.check_archive(tctp_run) == []


def test_archive_point_not_matching_modes_flagged(table2, tctp_run):
    p = tctp_run.archive.points[0]
    moved = replace(p, duration=p.duration - 1)
    bad = replace(tctp_run, archive=ParetoArchive(points=(moved,) + tctp_run.archive.points[1:]))
    assert any("does not match" in m for m in checks.check_tctp_run(table2, 230, bad, BUDGET))


def test_cpm_checks(table1):
    result = compute_cpm(load_network("table1"))
    assert checks.check_cpm(table1, result) == []
    assert checks.check_cpm(table1, replace(result, makespan=result.makespan + 1)) != []
    rows = dict(result.rows)
    row = rows[1]
    rows[1] = replace(row, late_start=row.early_start - 1, late_finish=row.early_finish - 1, total_float=-1)
    assert any("bad float" in p for p in checks.check_cpm(table1, replace(result, rows=rows)))


def test_lower_bounds(table1, table2):
    work = sum(a.duration * a.resource_demand for a in table1.activities)
    assert checks.rcpsp_lower_bound(table1, 7) == max(126, -(-work // 7))
    assert checks.rcpsp_lower_bound(table1, 10**6) == 126
    assert checks.tctp_lower_bound(table2, 0) == 99740
