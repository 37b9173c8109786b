import random

import pytest
from hypothesis import strategies as st

from metasched.instances import load_network, load_tctp
from metasched.model import Activity, ProjectNetwork, TctpInstance, induced_subnetwork


def is_precedence_feasible(net: ProjectNetwork, order: tuple[int, ...]) -> bool:
    """True iff `order` holds each of the network's ids once, every activity
    after all of its predecessors."""
    if sorted(order) != sorted(net.ids):
        return False
    position = {aid: i for i, aid in enumerate(order)}
    return all(position[p] < position[aid] for aid in order for p in net.predecessors.get(aid, ()))


@pytest.fixture(scope="session")
def table1():
    return load_network("table1")


@pytest.fixture(scope="session")
def table2():
    """Bundled TCTP instance with zero indirect cost (duration carries no cost)."""
    return load_tctp("table2", indirect_cost=0)


@pytest.fixture(scope="session")
def table2_sub6(table2):
    """Activities 1-6 of the TCTP instance: small enough for full enumeration."""
    net = induced_subnetwork(table2.network, set(range(1, 7)))
    return TctpInstance(
        network=net,
        options={aid: table2.options[aid] for aid in net.ids},
        indirect_cost_per_day=0,
    )


@pytest.fixture(scope="session")
def table1_sub8(table1):
    return induced_subnetwork(table1, set(range(1, 9)))


def random_dag(rng: random.Random, max_activities: int = 12, max_duration: int = 50) -> ProjectNetwork:
    """Random acyclic network: each activity may depend on any earlier id."""
    n = rng.randint(2, max_activities)
    activities = []
    predecessors = {}
    for i in range(1, n + 1):
        activities.append(
            Activity(id=i, duration=rng.randint(1, max_duration), resource_demand=rng.randint(1, 3))
        )
        predecessors[i] = frozenset(p for p in range(1, i) if rng.random() < 0.3)
    return ProjectNetwork(activities=tuple(activities), predecessors=predecessors)


@st.composite
def dags(draw, max_activities=40):
    """Acyclic networks with unique, non-contiguous ids listed in shuffled
    order, so neither the activity order nor id order is topological."""
    n = draw(st.integers(1, max_activities))
    ids = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 0.8]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # `ids` is the hidden topological order: arcs only go forward in it.
    predecessors = {
        aid: frozenset(p for p in ids[:k] if rng.random() < density) for k, aid in enumerate(ids)
    }
    activities = [Activity(aid, rng.randint(0, 20), rng.randint(0, 3)) for aid in ids]
    rng.shuffle(activities)
    return ProjectNetwork(activities=tuple(activities), predecessors=predecessors)
