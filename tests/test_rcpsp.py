import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.cpm import compute_cpm
from metasched.model import Activity, InstanceError, ProjectNetwork
from metasched.problems import rcpsp_problem
from metasched.rcpsp import (
    Schedule,
    SchedulingError,
    check_schedule,
    constrained_critical,
    is_precedence_feasible,
    neighbor_swap,
    random_activity_list,
    repair_precedence,
    resource_profile,
    serial_sgs,
    swappable,
)

from conftest import dags, random_dag

# Ids sorted by ascending total float on the bundled network, then repaired
# into a precedence-feasible list (the raw float ordering puts 17 before 3).
TF_SORTED = (4, 10, 17, 1, 8, 3, 7, 9, 16, 11, 5, 6, 14, 15, 2, 12, 13)
TF_REPAIRED = (4, 10, 1, 8, 3, 17, 7, 9, 11, 5, 6, 2, 12, 14, 16, 13, 15)


def test_float_sorted_list_needs_repair(table1):
    assert not is_precedence_feasible(table1, TF_SORTED)
    assert repair_precedence(table1, TF_SORTED) == TF_REPAIRED
    assert is_precedence_feasible(table1, TF_REPAIRED)


def test_serial_sgs_capacity7_trace(table1):
    schedule = serial_sgs(table1, 7, TF_REPAIRED)
    assert schedule.makespan == 151
    first_five = [(aid, schedule.start_times[aid]) for aid in TF_REPAIRED[:5]]
    assert first_five == [(4, 0), (10, 40), (1, 0), (8, 20), (3, 0)]
    assert check_schedule(table1, schedule, 7) == []


def test_unconstrained_decode_matches_cpm(table1):
    # Capacity covering total demand makes the decoder an earliest-start CPM.
    schedule = serial_sgs(table1, 17, tuple(table1.topological_order()))
    cpm = compute_cpm(table1)
    assert schedule.makespan == cpm.makespan == 126
    for aid, row in cpm.rows.items():
        assert schedule.start_times[aid] == row.early_start


def test_early_start_schedule_violates_capacity7(table1):
    schedule = serial_sgs(table1, 17, tuple(table1.topological_order()))
    profile = resource_profile(table1, schedule)
    assert profile.peak == 10
    assert any("capacity exceeded" in v for v in check_schedule(table1, schedule, 7))


def test_infeasible_list_rejected(table1):
    order = tuple(reversed(table1.topological_order()))
    with pytest.raises(SchedulingError, match="precedence"):
        serial_sgs(table1, 7, order)


def test_capacity_below_demand_rejected(table1):
    with pytest.raises(SchedulingError, match="capacity 0"):
        serial_sgs(table1, 0, tuple(table1.topological_order()))


def test_wrong_length_list_rejected(table1):
    with pytest.raises(SchedulingError):
        serial_sgs(table1, 7, (1, 2, 3))


def test_random_lists_always_feasible(table1):
    rng = random.Random(3)
    for _ in range(50):
        order = random_activity_list(table1, rng)
        assert is_precedence_feasible(table1, order)
        schedule = serial_sgs(table1, 7, order)
        assert check_schedule(table1, schedule, 7) == []
        assert schedule.makespan >= 126  # resource constraints never help


def test_cyclic_network_rejected_by_name():
    net = ProjectNetwork(
        activities=(Activity(1, 2), Activity(2, 3), Activity(3, 1), Activity(4, 5)),
        predecessors={1: frozenset({3}), 2: frozenset({1}), 3: frozenset({2}), 4: frozenset()},
    )
    with pytest.raises(InstanceError, match=r"cycle among activities \[1, 2, 3\]"):
        random_activity_list(net, random.Random(0))
    with pytest.raises(InstanceError, match=r"cycle among activities \[1, 2, 3\]"):
        rcpsp_problem(net, capacity=5)


def test_random_networks_schedules_audit_clean():
    rng = random.Random(11)
    for _ in range(25):
        net = random_dag(rng)
        capacity = rng.randint(3, 6)
        order = random_activity_list(net, rng)
        schedule = serial_sgs(net, capacity, order)
        assert check_schedule(net, schedule, capacity) == []


def test_check_schedule_reports_all_violation_kinds(table1):
    good = serial_sgs(table1, 7, TF_REPAIRED)
    starts = dict(good.start_times)
    starts[17] = 0  # before its predecessors finish
    bad = Schedule(start_times=starts, makespan=good.makespan)
    report = check_schedule(table1, bad, 7)
    assert any("predecessor" in v for v in report)
    missing = Schedule(start_times={1: 0}, makespan=20)
    assert any("unscheduled" in v for v in check_schedule(table1, missing, 7))


@settings(max_examples=300, deadline=None)
@given(net=dags())
def test_constrained_critical_unconstrained_matches_cpm(net):
    capacity = sum(a.resource_demand for a in net.activities)
    cpm = compute_cpm(net)
    assert constrained_critical(net, capacity, net.topological_order()) == cpm.critical
    # A unit lengthening moves the project end by one day exactly on the
    # zero-float activities, and not at all elsewhere.
    for a in net.activities:
        longer = tuple(replace(b, duration=b.duration + 1) if b is a else b for b in net.activities)
        moved = compute_cpm(replace(net, activities=longer)).makespan - cpm.makespan
        assert moved == (1 if a.id in cpm.critical else 0), a.id


def test_constrained_critical_nonempty_under_capacity(table1):
    critical = constrained_critical(table1, 7, TF_REPAIRED)
    assert critical
    # Lengthening the last-finishing activity always moves the makespan.
    schedule = serial_sgs(table1, 7, TF_REPAIRED)
    durations = {a.id: a.duration for a in table1.activities}
    last = max(table1.ids, key=lambda aid: schedule.start_times[aid] + durations[aid])
    assert last in critical


def test_negative_start_is_not_wrapped():
    # [-2, 1) at demand 2 and [0, 4) at demand 2 overlap only on [0, 1).
    net = ProjectNetwork(activities=(Activity(1, 3, 2), Activity(2, 4, 2)), predecessors={})
    schedule = Schedule(start_times={1: -2, 2: 0}, makespan=4)
    assert check_schedule(net, schedule, 3) == ["capacity exceeded over [0, 1): usage 4 > 3"]
    assert resource_profile(net, schedule).peak == 4


@settings(max_examples=300, deadline=None)
@given(net=dags(), data=st.data())
def test_profile_matches_per_unit_reference(net, data):
    starts = {aid: data.draw(st.integers(-30, 60)) for aid in net.ids}
    capacity = data.draw(st.integers(0, 6))
    durations = {a.id: a.duration for a in net.activities}
    usage = Counter()
    for a in net.activities:
        for t in range(starts[a.id], starts[a.id] + durations[a.id]):
            usage[t] += a.resource_demand
    makespan = max((starts[aid] + durations[aid] for aid in net.ids), default=0)
    schedule = Schedule(start_times=starts, makespan=makespan)
    assert resource_profile(net, schedule).peak == max(usage.values(), default=0)

    reported = []
    for line in check_schedule(net, schedule, capacity):
        match = re.fullmatch(r"capacity exceeded over \[(-?\d+), (-?\d+)\): usage \d+ > \d+", line)
        if match:
            reported.extend(range(int(match[1]), int(match[2])))
    assert len(reported) == len(set(reported))  # each unit in one reported piece
    assert set(reported) == {t for t, used in usage.items() if used > capacity}


@settings(max_examples=300, deadline=None)
@given(net=dags(), seed=st.integers(0, 2**32 - 1))
def test_swap_operators_keep_lists_feasible(net, seed):
    rng = random.Random(seed)
    order = random_activity_list(net, rng)
    positions = range(len(order) - 1)
    # The predicate is exact: an adjacent swap of a feasible list stays
    # feasible if and only if it holds.
    for i in positions:
        swapped = (*order[:i], order[i + 1], order[i], *order[i + 2:])
        assert swappable(net, order, i) == is_precedence_feasible(net, swapped)

    problem = rcpsp_problem(net, capacity=sum(a.resource_demand for a in net.activities))
    moves = problem.neighborhood(order)
    moved = [next(i for i in positions if m.candidate[i] != order[i]) for m in moves]
    assert moved == [i for i in positions if swappable(net, order, i)]
    for m in moves:
        assert is_precedence_feasible(net, m.candidate)
    assert is_precedence_feasible(net, neighbor_swap(net, order, rng))
    assert is_precedence_feasible(net, problem.mutate(order, 1.0, rng))
