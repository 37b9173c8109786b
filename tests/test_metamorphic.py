"""Metamorphic relations: changes to a network that must leave its makespans
as they were, or change them in a stated way.

Each relation is checked on the production CPM and serial SGS and on the
oracle's longest path, over random networks whose ids are neither contiguous
nor listed in topological order.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.cpm import compute_cpm
from metasched.model import Activity, ProjectNetwork
from metasched.oracle import longest_path_makespan
from metasched.rcpsp import serial_sgs

from conftest import dags
from test_serial_sgs import decode_cases

PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(decode_cases(), st.integers(0, 2**32 - 1))
def test_relabelling_ids_moves_no_start(case, seed):
    """A random bijection of the ids, with the activities listed in a new
    order: the same makespans, and the same start for each relabelled id."""
    net, capacity, order = case
    rng = random.Random(seed)
    label = dict(zip(net.ids, rng.sample(range(1, 100_000), len(net.ids))))
    activities = [replace(a, id=label[a.id]) for a in net.activities]
    rng.shuffle(activities)
    relabelled = ProjectNetwork(
        activities=tuple(activities),
        predecessors={label[aid]: frozenset(map(label.get, ps)) for aid, ps in net.predecessors.items()},
    )
    assert compute_cpm(relabelled).makespan == compute_cpm(net).makespan
    assert longest_path_makespan(relabelled) == longest_path_makespan(net)
    schedule = serial_sgs(net, capacity, order)
    moved = serial_sgs(relabelled, capacity, tuple(map(label.get, order)))
    assert moved.start_times == {label[aid]: start for aid, start in schedule.start_times.items()}
    assert moved.makespan == schedule.makespan


@PROPERTY
@given(dags(), st.sampled_from([2, 3]))
def test_scaling_durations_scales_the_cpm_makespan(net, k):
    scaled = replace(net, activities=tuple(replace(a, duration=k * a.duration) for a in net.activities))
    before, after = compute_cpm(net), compute_cpm(scaled)
    assert after.makespan == k * before.makespan
    assert after.critical == before.critical
    assert longest_path_makespan(scaled) == k * longest_path_makespan(net)


@PROPERTY
@given(decode_cases(), st.data())
def test_isolated_empty_activity_changes_no_makespan(case, data):
    """An activity with no arcs, no duration and no demand, at any position
    of the activity list, moves no other activity's start."""
    net, capacity, order = case
    extra = max(net.ids) + 1
    padded = ProjectNetwork(
        activities=(*net.activities, Activity(extra, 0, 0)),
        predecessors={**net.predecessors, extra: frozenset()},
    )
    assert compute_cpm(padded).makespan == compute_cpm(net).makespan
    assert longest_path_makespan(padded) == longest_path_makespan(net)
    at = data.draw(st.integers(0, len(order)))
    schedule = serial_sgs(net, capacity, order)
    padded_schedule = serial_sgs(padded, capacity, (*order[:at], extra, *order[at:]))
    assert padded_schedule.start_times == {**schedule.start_times, extra: 0}
    assert padded_schedule.makespan == schedule.makespan
