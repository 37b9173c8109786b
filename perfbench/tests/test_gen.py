import json

import pytest

from metasched.model import derive_precedence_from_nodes, parse_aoa_instance, validate_network
from perfbench.checks import aoa_network
from perfbench.gen import generate_aoa


def test_same_seed_same_document():
    assert generate_aoa(60, seed=3) == generate_aoa(60, seed=3)
    assert generate_aoa(60, seed=3) != generate_aoa(60, seed=4)


@pytest.mark.parametrize("n, seed, window", [(1, 0, 8), (2, 1, 8), (60, 1, 8), (60, 7, 1), (300, 2, 64)])
def test_generated_networks_are_valid(n, seed, window):
    document = generate_aoa(n, seed=seed, window=window, resource_factor=0.5, resource_strength=0.3)
    arcs = document["arcs"]
    assert len(arcs) == n
    assert sorted(a["id"] for a in arcs) == list(range(1, n + 1))
    assert all(1 <= a["duration"] <= 10 and 0 <= a["demand"] <= 10 for a in arcs)
    assert all(a["start"] < a["end"] for a in arcs)
    assert max(a["demand"] for a in arcs) <= document["capacity"]

    net = derive_precedence_from_nodes(parse_aoa_instance(json.dumps(document)))
    assert validate_network(net) == []
    assert net.predecessors == aoa_network(document).predecessors


def test_resource_strength_spans_demand_to_peak():
    low = generate_aoa(60, seed=5, resource_strength=0.0)
    high = generate_aoa(60, seed=5, resource_strength=1.0)
    assert low["capacity"] == max(a["demand"] for a in low["arcs"])
    assert high["capacity"] >= low["capacity"]
    assert high["capacity"] <= sum(a["demand"] for a in high["arcs"])


@pytest.mark.parametrize(
    "kwargs",
    [{"n": 0}, {"durations": (0, 5)}, {"durations": (6, 5)}, {"complexity": 0.5}, {"resource_factor": 1.5}],
)
def test_rejects_bad_parameters(kwargs):
    arguments = {"n": 10, "seed": 1, **kwargs}
    with pytest.raises(ValueError):
        generate_aoa(**arguments)
