"""The breakpoint-profile serial SGS against an independent decoder.

`oracle.oracle_serial_sgs` scans candidate starts one time unit at a time and
shares no code with `serial_sgs`. Both read durations from the network, so
every decode the library makes can be checked against it.
"""

import copy
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.model import Activity, ProjectNetwork
from metasched.oracle import oracle_serial_sgs
from metasched.rcpsp import (
    Schedule,
    SchedulingError,
    check_schedule,
    random_activity_list,
    resource_profile,
    serial_sgs,
)

from conftest import dags, is_precedence_feasible

PROPERTY = settings(max_examples=300, deadline=None)


@st.composite
def decode_cases(draw):
    """A network, a capacity from its largest demand to above its total
    demand (so both the binding and the non-binding path run), and a
    random precedence-feasible activity list."""
    net = draw(dags())
    demands = [a.resource_demand for a in net.activities]
    low, total = max(demands), sum(demands)
    capacity = draw(st.integers(low, low + 4) | st.integers(max(low, total - 1), total + 1))
    order = random_activity_list(net, random.Random(draw(st.integers(0, 2**32 - 1))))
    return net, capacity, order


@PROPERTY
@given(decode_cases())
def test_start_times_match_oracle(case):
    net, capacity, order = case
    schedule = serial_sgs(net, capacity, order)
    assert schedule.start_times == oracle_serial_sgs(net, capacity, order)
    assert check_schedule(net, schedule, capacity) == []


@PROPERTY
@given(decode_cases())
def test_decoded_schedule_equals_an_eager_one(case):
    """`serial_sgs` builds `start_times` on first read. Read through any
    door, an unread decoded schedule is the `Schedule` built eagerly from
    the oracle's starts in list order."""
    net, capacity, order = case
    starts = oracle_serial_sgs(net, capacity, order)
    durations = {a.id: a.duration for a in net.activities}
    eager = Schedule(
        start_times={aid: starts[aid] for aid in order},
        makespan=max(starts[aid] + durations[aid] for aid in order),
    )
    doors = {
        "itself": lambda s: s,
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda s: pickle.loads(pickle.dumps(s)),
        "replace": replace,
    }
    for name, door in doors.items():
        assert door(serial_sgs(net, capacity, order)) == eager, name
        assert repr(door(serial_sgs(net, capacity, order))) == repr(eager), name
        assert list(door(serial_sgs(net, capacity, order)).start_times) == list(order), name
    assert replace(serial_sgs(net, capacity, order), makespan=-1) == replace(eager, makespan=-1)
    assert check_schedule(net, serial_sgs(net, capacity, order), capacity) == []
    assert resource_profile(net, serial_sgs(net, capacity, order)) == resource_profile(net, eager)

    # A list changed after the decode does not change the schedule.
    edited = list(order)
    schedule = serial_sgs(net, capacity, edited)
    edited.reverse()
    assert schedule.start_times == eager.start_times

    schedule = serial_sgs(net, capacity, order)
    assert schedule.makespan == eager.makespan
    assert "start_times" not in vars(schedule)
    assert schedule.start_times == eager.start_times
    assert sorted(vars(schedule)) == ["makespan", "start_times"]


@st.composite
def activity_lists(draw):
    """A network, a capacity that covers every demand, and a list that is
    a feasible order or a shuffle of the ids, then edited up to three times
    to repeat an id, add an unknown one, drop or append an entry, or swap
    two entries."""
    net = draw(dags())
    if draw(st.booleans()):
        order = list(random_activity_list(net, random.Random(draw(st.integers(0, 2**32 - 1)))))
    else:
        order = list(draw(st.permutations(net.ids)))
    ids = st.sampled_from(net.ids)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["repeat", "unknown", "drop", "append", "swap"]))
        at = draw(st.integers(0, max(len(order) - 1, 0)))
        if edit == "repeat" and order:
            order[at] = draw(ids)
        elif edit == "unknown" and order:
            order[at] = draw(st.integers(-2, 10_002))  # ids are drawn from 1..10,000
        elif edit == "drop" and order:
            del order[at]
        elif edit == "append":
            order.insert(at, draw(ids | st.integers(-2, 10_002)))
        elif edit == "swap" and order:
            other = draw(st.integers(0, len(order) - 1))
            order[at], order[other] = order[other], order[at]
    demands = [a.resource_demand for a in net.activities]
    capacity = draw(st.integers(max(demands), sum(demands) + 1))
    return net, capacity, tuple(order)


@PROPERTY
@given(activity_lists())
def test_malformed_lists_raise_scheduling_error(case):
    """A feasible list decodes to the oracle's starts; any other list raises
    `SchedulingError`, never a `KeyError`, `IndexError` or `TypeError`."""
    net, capacity, order = case
    if is_precedence_feasible(net, order):
        assert serial_sgs(net, capacity, order).start_times == oracle_serial_sgs(net, capacity, order)
    else:
        with pytest.raises(SchedulingError):
            serial_sgs(net, capacity, order)


# 1 -> 2 -> 3, with activity 2 the largest demand.
CHAIN = ProjectNetwork(
    activities=(Activity(1, 2, 1), Activity(2, 3, 2), Activity(3, 1, 1)),
    predecessors={2: frozenset({1}), 3: frozenset({2})},
)


@pytest.mark.parametrize(
    "capacity, order, message",
    [
        (1, (1, 2, 3), "capacity 1 below maximum activity demand 2"),
        (2, (1, 2), "activity list is not a permutation of the network: (1, 2)"),
        (2, (2, 1, 3), "activity list is not precedence-feasible: (2, 1, 3) (at 1)"),
        (2, (1, 9, 2), "activity list is not precedence-feasible: (1, 9, 2) (at 9)"),
        (2, (1, 1, 2), "activity list repeats ids: (1, 1, 2)"),
        # The unscheduled predecessor of 3 comes before the unknown id 9.
        (2, (1, 3, 9), "activity list is not precedence-feasible: (1, 3, 9) (at 2)"),
    ],
    ids=["capacity", "length", "unscheduled-predecessor", "unknown-id", "repeat", "first-fault-named"],
)
def test_rejection_messages(capacity, order, message):
    with pytest.raises(SchedulingError) as info:
        serial_sgs(CHAIN, capacity, order)
    assert str(info.value) == message
