"""Metamorphic relations: changes to a network that must leave its makespans
as they were, or change them in a stated way.

Each relation is checked on the production CPM and serial SGS and on the
oracle's longest path, over random networks whose ids are neither contiguous
nor listed in topological order; the id relabelling also on the oracle's
exhaustive time-cost front.
"""

import json
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.cpm import compute_cpm
from metasched.model import (
    AOA_FORMAT,
    Activity,
    ActivityOption,
    ProjectNetwork,
    TctpInstance,
    derive_precedence_from_nodes,
    parse_aoa_instance,
)
from metasched.oracle import exhaustive_tctp, longest_path_makespan
from metasched.rcpsp import serial_sgs

from conftest import dags, is_precedence_feasible
from test_serial_sgs import decode_cases

PROPERTY = settings(max_examples=150, deadline=None)


def _relabel(net: ProjectNetwork, seed: int) -> tuple[ProjectNetwork, dict[int, int]]:
    """`net` under a random bijection of its ids, with the activities listed
    in a new order; and the bijection."""
    rng = random.Random(seed)
    label = dict(zip(net.ids, rng.sample(range(1, 100_000), len(net.ids))))
    activities = [replace(a, id=label[a.id]) for a in net.activities]
    rng.shuffle(activities)
    relabelled = ProjectNetwork(
        activities=tuple(activities),
        predecessors={label[aid]: frozenset(map(label.get, ps)) for aid, ps in net.predecessors.items()},
    )
    return relabelled, label


@PROPERTY
@given(decode_cases(), st.integers(0, 2**32 - 1))
def test_relabelling_ids_moves_no_start(case, seed):
    """A random bijection of the ids, with the activities listed in a new
    order: the same makespans, and the same start for each relabelled id."""
    net, capacity, order = case
    relabelled, label = _relabel(net, seed)
    assert compute_cpm(relabelled).makespan == compute_cpm(net).makespan
    assert longest_path_makespan(relabelled) == longest_path_makespan(net)
    schedule = serial_sgs(net, capacity, order)
    moved = serial_sgs(relabelled, capacity, tuple(map(label.get, order)))
    assert moved.start_times == {label[aid]: start for aid, start in schedule.start_times.items()}
    assert moved.makespan == schedule.makespan


@st.composite
def tctp_instances(draw, max_activities=6):
    """Time-cost instances over `dags`: one to three options per activity,
    so that the oracle enumerates at most 3**6 combinations."""
    net = draw(dags(max_activities=max_activities))
    option = st.builds(ActivityOption, st.integers(1, 20), st.integers(0, 100))
    options = {aid: tuple(draw(st.lists(option, min_size=1, max_size=3))) for aid in net.ids}
    return TctpInstance(network=net, options=options, indirect_cost_per_day=draw(st.integers(0, 50)))


@PROPERTY
@given(tctp_instances(), st.integers(0, 2**32 - 1))
def test_relabelling_ids_keeps_the_exhaustive_tctp_front(instance, seed):
    """A random bijection of the ids, with the activities listed in a new
    order: the same (duration, direct cost) front and minimum total cost."""
    net, label = _relabel(instance.network, seed)
    relabelled = replace(
        instance, network=net, options={label[aid]: opts for aid, opts in instance.options.items()}
    )
    before, after = exhaustive_tctp(instance), exhaustive_tctp(relabelled)
    assert after.front == before.front
    assert after.min_total_cost == before.min_total_cost

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


@st.composite
def aoa_documents(draw, max_arcs=40):
    """Acyclic aoa-v1 documents: every arc runs from a lower to a higher
    event node. Ids are unique and non-contiguous; durations may be 0."""
    n = draw(st.integers(1, max_arcs))
    nodes = draw(st.integers(2, max(2, n)))
    ids = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arcs = []
    for aid in ids:
        start = rng.randrange(nodes - 1)
        arcs.append(
            {"id": aid, "start": start, "end": rng.randrange(start + 1, nodes),
             "duration": rng.randint(0, 20), "demand": rng.randint(0, 3)}
        )
    return {"format": AOA_FORMAT, "arcs": arcs}


def _analysis(document: dict):
    """The CPM rows, makespan, critical set and oracle longest path of the
    loaded `document`, whose topological order must be a witness."""
    net = derive_precedence_from_nodes(parse_aoa_instance(json.dumps(document)))
    assert is_precedence_feasible(net, net.topological_order())
    result = compute_cpm(net)
    return result.rows, result.makespan, result.critical, longest_path_makespan(net)


@PROPERTY
@given(aoa_documents(), st.integers(0, 2**32 - 1))
def test_arc_order_changes_no_analysis(document, seed):
    """The arcs listed in another order: the same CPM rows, makespan,
    critical set and oracle longest path, and a topological order that is a
    witness on either side. The order itself may differ."""
    arcs = list(document["arcs"])
    random.Random(seed).shuffle(arcs)
    assert _analysis({**document, "arcs": arcs}) == _analysis(document)
