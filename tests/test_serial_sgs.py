"""The breakpoint-profile serial SGS against an independent decoder.

`oracle.oracle_serial_sgs` scans candidate starts one time unit at a time and
shares no code with `serial_sgs`. Both read durations from the network, so
every decode the library makes can be checked against it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.oracle import oracle_serial_sgs
from metasched.rcpsp import check_schedule, random_activity_list, serial_sgs

from conftest import dags

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
