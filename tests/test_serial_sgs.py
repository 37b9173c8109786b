"""The breakpoint-profile serial SGS against independent decoders.

`oracle.oracle_serial_sgs` scans candidate starts one time unit at a time and
shares no code with `serial_sgs`. It takes no duration override, so decodes
with `durations=` are checked against a frozen copy of the per-time-unit
decoder that the breakpoint profile replaced.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.oracle import oracle_serial_sgs
from metasched.rcpsp import check_schedule, random_activity_list, serial_sgs

from conftest import dags

PROPERTY = settings(max_examples=300, deadline=None)


def reference_serial_sgs(net, capacity, order, durations):
    """Per-time-unit decoder: advance past each time unit where the demand
    does not fit, over a usage array as long as the summed durations."""
    demand = {a.id: a.resource_demand for a in net.activities}
    binding = capacity < sum(demand.values())
    usage = [0] * (sum(durations.values()) + 1)
    finish = {}
    start_times = {}
    for aid in order:
        d, dem = durations[aid], demand[aid]
        t = max((finish[p] for p in net.predecessors.get(aid, ())), default=0)
        if binding and d > 0 and dem > 0:
            u, end = t, t + d
            while u < end:
                if usage[u] + dem > capacity:
                    t, end = u + 1, u + 1 + d
                u += 1
            for u in range(t, t + d):
                usage[u] += dem
        start_times[aid] = t
        finish[aid] = t + d
    return start_times, max(finish.values(), default=0)


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
@given(decode_cases(), st.data())
def test_duration_override_matches_per_unit_decoder(case, data):
    net, capacity, order = case
    durations = {aid: data.draw(st.integers(0, 25)) for aid in net.ids}
    schedule = serial_sgs(net, capacity, order, durations)
    assert (schedule.start_times, schedule.makespan) == reference_serial_sgs(
        net, capacity, order, durations
    )
    assert check_schedule(net, schedule, capacity, durations) == []
