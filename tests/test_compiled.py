"""The compiled network view against independent references.

The view's topological order is checked as a witness: a permutation of the
ids with every activity after its predecessors, the same on every build of
one input. The references below are copies of the set-scanning
implementations that the compiled view replaced: a level-by-level
topological sort, whose leftover ids name a cycle, a random activity list
that rescans every remaining activity per pick, a precedence repair over
id-keyed dictionaries, and an order crossover that fills one position at a
time. Seeded runs must not move, so the view has to reproduce the last three
exactly, including every `rng` draw.
"""

import heapq
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.cpm import backward_pass, compute_cpm, forward_pass
from metasched.model import (
    Activity,
    ActivityOption,
    InstanceError,
    ProjectNetwork,
    TctpInstance,
    derive_precedence_from_nodes,
    parse_aoa_instance,
    validate_network,
)
from metasched.oracle import longest_path_makespan
from metasched.problems import rcpsp_problem, tctp_problem
from metasched.rcpsp import order_crossover, random_activity_list, repair_precedence

from conftest import dags, is_precedence_feasible
from test_metamorphic import aoa_documents


def reference_levels(net):
    """Level-order topological sort with ties broken by id; returns the
    order and the ids left over when no remaining activity is ready."""
    remaining = {a.id: set(net.predecessors.get(a.id, ())) for a in net.activities}
    order = []
    while remaining:
        ready = sorted(aid for aid, preds in remaining.items() if not preds)
        if not ready:
            return tuple(order), sorted(remaining)
        for aid in ready:
            del remaining[aid]
            order.append(aid)
        for preds in remaining.values():
            preds.difference_update(ready)
    return tuple(order), []


def reference_random_activity_list(net, rng):
    remaining = {aid: set(net.predecessors.get(aid, ())) for aid in net.ids}
    order = []
    while remaining:
        ready = sorted(aid for aid, preds in remaining.items() if not preds)
        pick = rng.choice(ready)
        del remaining[pick]
        order.append(pick)
        for preds in remaining.values():
            preds.discard(pick)
    return tuple(order)


def reference_repair_precedence(net, order):
    position = {aid: i for i, aid in enumerate(order)}
    indegree = {aid: len(net.predecessors.get(aid, ())) for aid in order}
    followers = {aid: [] for aid in order}
    for aid in order:
        for p in net.predecessors.get(aid, ()):
            followers[p].append(aid)
    ready = [position[aid] for aid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    repaired = []
    while ready:
        pick = order[heapq.heappop(ready)]
        repaired.append(pick)
        for follower in followers[pick]:
            indegree[follower] -= 1
            if indegree[follower] == 0:
                heapq.heappush(ready, position[follower])
    return tuple(repaired)


def reference_order_crossover(parent1, parent2, cut1, cut2):
    segment = set(parent1[cut1:cut2])
    filler = iter(x for x in parent2 if x not in segment)
    return tuple(parent1[i] if cut1 <= i < cut2 else next(filler) for i in range(len(parent1)))


PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(dags())
def test_topological_order_is_a_witness(net):
    order = net.topological_order()
    assert is_precedence_feasible(net, order)
    assert ProjectNetwork(net.activities, net.predecessors).topological_order() == order
    assert validate_network(net) == []


@PROPERTY
@given(aoa_documents())
def test_loaded_topological_order_is_a_witness(document):
    """On a network loaded from columns, checked against the arcs' event
    nodes: an arc comes after every arc that ends where it starts."""
    text = json.dumps(document)
    order = derive_precedence_from_nodes(parse_aoa_instance(text)).topological_order()
    arcs = document["arcs"]
    assert sorted(order) == sorted(arc["id"] for arc in arcs)
    position = {aid: k for k, aid in enumerate(order)}
    assert all(position[a["id"]] < position[b["id"]] for a in arcs for b in arcs if a["end"] == b["start"])
    assert derive_precedence_from_nodes(parse_aoa_instance(text)).topological_order() == order


@PROPERTY
@given(dags())
def test_cpm_makespan_matches_oracle(net):
    result = compute_cpm(net)
    assert result.makespan == longest_path_makespan(net)
    assert all(row.total_float >= 0 for row in result.rows.values())


@PROPERTY
@given(dags(), st.data())
def test_passes_on_durations_other_than_the_networks(net, data):
    """TCTP evaluation runs the forward pass on the chosen options'
    durations, not the activities' own: the passes must read only the list
    they are given."""
    view = net.compiled
    n = len(view.ids)
    durations = data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
    finish = forward_pass(view, durations)
    makespan = max(finish, default=0)
    assert makespan == longest_path_makespan(net, dict(zip(view.ids, durations)))
    for i, ps in enumerate(view.preds):
        assert finish[i] == durations[i] + max((finish[p] for p in ps), default=0)

    latest = backward_pass(view, durations, makespan)
    for k in (1, data.draw(st.integers(2, 10**6))):
        assert backward_pass(view, durations, makespan + k) == [s + k for s in latest]
    with pytest.raises(InstanceError, match="below forward-pass makespan"):
        backward_pass(view, durations, makespan - 1)


@PROPERTY
@given(dags(), st.integers(0, 2**32 - 1))
def test_random_activity_list_matches_reference(net, seed):
    assert random_activity_list(net, random.Random(seed)) == reference_random_activity_list(
        net, random.Random(seed)
    )


@PROPERTY
@given(dags(), st.integers(0, 2**32 - 1))
def test_repair_precedence_matches_reference(net, seed):
    order = list(net.ids)
    random.Random(seed).shuffle(order)
    order = tuple(order)
    assert repair_precedence(net, order) == reference_repair_precedence(net, order)


@PROPERTY
@given(dags(), st.integers(0, 2**32 - 1))
def test_repair_precedence_on_search_lists(net, seed):
    """A feasible list comes back unchanged, and a crossover child of two
    such lists, mostly feasible already, is repaired as the reference does."""
    rng = random.Random(seed)
    order = random_activity_list(net, rng)
    assert repair_precedence(net, order) == order
    cut1 = rng.randrange(len(order))
    child = order_crossover(order, random_activity_list(net, rng), cut1, rng.randrange(cut1 + 1, len(order) + 1))
    assert repair_precedence(net, child) == reference_repair_precedence(net, child)


@PROPERTY
@given(st.lists(st.integers(), min_size=1, max_size=40, unique=True), st.data())
def test_order_crossover_matches_reference_at_every_cut(ids, data):
    parent1 = tuple(data.draw(st.permutations(ids)))
    parent2 = tuple(data.draw(st.permutations(ids)))
    for cut1 in range(len(ids)):
        for cut2 in range(cut1 + 1, len(ids) + 1):
            expected = reference_order_crossover(parent1, parent2, cut1, cut2)
            assert order_crossover(parent1, parent2, cut1, cut2) == expected, (cut1, cut2)


def _with_back_edge(net, rng):
    """Close a cycle: make one arc's predecessor also depend on its successor."""
    arcs = sorted((p, aid) for aid, preds in net.predecessors.items() for p in preds)
    p, aid = rng.choice(arcs)
    predecessors = dict(net.predecessors)
    predecessors[p] = predecessors[p] | {aid}
    return ProjectNetwork(activities=net.activities, predecessors=predecessors)


def _consumers(net):
    options = {aid: (ActivityOption(1, 1), ActivityOption(2, 0)) for aid in net.ids}
    instance = TctpInstance(network=net, options=options, indirect_cost_per_day=0)
    return {
        "topological_order": lambda: net.topological_order(),
        "forward_pass": lambda: forward_pass(net.compiled, net.compiled.durations),
        "backward_pass": lambda: backward_pass(net.compiled, net.compiled.durations, 10**9),
        "compute_cpm": lambda: compute_cpm(net),
        "random_activity_list": lambda: random_activity_list(net, random.Random(0)),
        "repair_precedence": lambda: repair_precedence(net, net.ids),
        "rcpsp_problem": lambda: rcpsp_problem(net, capacity=10),
        "tctp_problem": lambda: tctp_problem(instance),
    }


@PROPERTY
@given(dags().filter(lambda net: any(net.predecessors.values())), st.integers(0, 2**32 - 1))
def test_back_edge_makes_every_consumer_raise(net, seed):
    cyclic = _with_back_edge(net, random.Random(seed))
    _, stuck = reference_levels(cyclic)
    message = f"cycle among activities {stuck}"
    for name, call in _consumers(cyclic).items():
        with pytest.raises(InstanceError) as info:
            call()
        assert str(info.value) == message, name
    assert validate_network(cyclic) == [message]


def test_view_indexes_activities_in_network_order():
    net = ProjectNetwork(
        activities=(Activity(30, 2, 5), Activity(10, 3, 0), Activity(20, 4)),
        predecessors={30: frozenset({10, 20}), 10: frozenset(), 20: frozenset({10})},
    )
    view = net.compiled
    assert view.ids == (30, 10, 20)
    assert view.index == {30: 0, 10: 1, 20: 2}
    assert view.order == (1, 2, 0)
    assert view.preds == ((1, 2), (), (1,))
    assert view.succs == ((), (0, 2), (0,))
    assert view.durations == (2, 3, 4)
    assert view.demands == (5, 0, 1)
    assert net.compiled is view


def test_view_rejects_dangling_reference_and_duplicate_id():
    dangling = ProjectNetwork(activities=(Activity(1, 2),), predecessors={1: frozenset({99})})
    with pytest.raises(InstanceError, match="activity 1 depends on nonexistent activity 99"):
        dangling.compiled
    duplicate = ProjectNetwork(
        activities=(Activity(1, 2), Activity(1, 3)), predecessors={1: frozenset()}
    )
    with pytest.raises(InstanceError, match="duplicate activity id 1"):
        duplicate.topological_order()
