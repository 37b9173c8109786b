import random

import pytest
from hypothesis import given, settings

from metasched.cpm import backward_pass, compute_cpm, forward_pass
from metasched.model import Activity, InstanceError, ProjectNetwork

from conftest import dags, random_dag

# (es, ef, ls, lf, tf) per activity for the bundled 17-activity network.
TABLE1_ROWS = {
    1: (0, 20, 15, 35, 15),
    2: (0, 33, 45, 78, 45),
    3: (0, 70, 24, 94, 24),
    4: (0, 40, 0, 40, 0),
    5: (0, 37, 41, 78, 41),
    6: (0, 56, 41, 97, 41),
    7: (20, 87, 48, 115, 28),
    8: (20, 79, 35, 94, 15),
    9: (20, 98, 48, 126, 28),
    10: (40, 94, 40, 94, 0),
    11: (40, 94, 72, 126, 32),
    12: (0, 29, 49, 78, 49),
    13: (0, 43, 54, 97, 54),
    14: (37, 74, 78, 115, 41),
    15: (56, 85, 97, 126, 41),
    16: (87, 98, 115, 126, 28),
    17: (94, 126, 94, 126, 0),
}


def test_table1_full_analysis(table1):
    result = compute_cpm(table1)
    assert result.makespan == 126
    assert result.critical == {4, 10, 17}
    for aid, expected in TABLE1_ROWS.items():
        row = result.rows[aid]
        assert (
            row.early_start,
            row.early_finish,
            row.late_start,
            row.late_finish,
            row.total_float,
        ) == expected, f"activity {aid}"


def test_single_activity():
    net = ProjectNetwork(activities=(Activity(1, 7),), predecessors={1: frozenset()})
    result = compute_cpm(net)
    assert result.makespan == 7
    assert result.rows[1].total_float == 0
    assert result.critical == {1}


def test_chain_makespan():
    net = ProjectNetwork(
        activities=(Activity(1, 3), Activity(2, 4), Activity(3, 5)),
        predecessors={1: frozenset(), 2: frozenset({1}), 3: frozenset({2})},
    )
    result = compute_cpm(net)
    assert result.makespan == 12
    assert result.critical == {1, 2, 3}


def test_backward_pass_with_slack_deadline(table1):
    view = table1.compiled
    latest = backward_pass(view, view.durations, makespan=130)
    # Shifting the deadline by +4 shifts every late start by the same amount.
    assert latest[view.index[17]] == 98
    assert latest[view.index[4]] == 4


def test_backward_pass_rejects_too_small_makespan(table1):
    view = table1.compiled
    with pytest.raises(InstanceError, match="below"):
        backward_pass(view, view.durations, makespan=100)


def test_total_float_nonnegative_random_networks():
    rng = random.Random(7)
    for _ in range(25):
        net = random_dag(rng)
        result = compute_cpm(net)
        for aid, row in result.rows.items():
            assert row.total_float >= 0
            assert row.early_finish - row.early_start == row.late_finish - row.late_start
        assert result.critical, "at least one critical activity must exist"


@settings(max_examples=200, deadline=None)
@given(dags())
def test_rows_follow_the_pass_columns(net):
    """Rows are keyed in `view.ids` order, each row's fields are the five
    values in declaration order (the benchmark digests `vars(row)`), and
    the critical set is the rows with zero float."""
    view = net.compiled
    finish = forward_pass(view, view.durations)
    start = backward_pass(view, view.durations, max(finish))
    result = compute_cpm(net)
    assert list(result.rows) == list(view.ids)
    for aid, d, ef, ls in zip(view.ids, view.durations, finish, start):
        expected = {
            "early_start": ef - d,
            "early_finish": ef,
            "late_start": ls,
            "late_finish": ls + d,
            "total_float": ls - (ef - d),
        }
        assert list(vars(result.rows[aid]).items()) == list(expected.items()), f"activity {aid}"
    assert result.makespan == max(finish)
    assert result.critical == {aid for aid, row in result.rows.items() if row.total_float == 0}
