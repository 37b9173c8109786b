import random
import tracemalloc
from dataclasses import replace

import pytest

from metasched.cpm import compute_cpm
from metasched.model import Activity, ProjectNetwork
from metasched.oracle import (
    OracleGuard,
    OracleLimitError,
    exhaustive_rcpsp,
    exhaustive_tctp,
    longest_path_makespan,
    oracle_serial_sgs,
)
from metasched.rcpsp import random_activity_list, serial_sgs

from conftest import random_dag


class TestLongestPath:
    def test_table1(self, table1):
        assert longest_path_makespan(table1) == 126

    def test_agrees_with_cpm_on_random_networks(self, table1):
        rng = random.Random(13)
        for _ in range(50):
            net = random_dag(rng)
            assert longest_path_makespan(net) == compute_cpm(net).makespan

    def test_cycle_detected(self):
        net = ProjectNetwork(
            activities=(Activity(1, 2), Activity(2, 3)),
            predecessors={1: frozenset({2}), 2: frozenset({1})},
        )
        with pytest.raises(OracleLimitError, match="cycle"):
            longest_path_makespan(net)


class TestExhaustiveTctp:
    def test_reduced_instance_front(self, table2_sub6):
        result = exhaustive_tctp(table2_sub6)
        assert len(result.front) == 12
        assert result.front[0] == (36, 88600)
        assert result.front[-1] == (54, 63400)

    def test_front_is_non_dominated_and_sorted(self, table2_sub6):
        front = exhaustive_tctp(table2_sub6).front
        assert list(front) == sorted(front)
        costs = [c for _, c in front]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)

    def test_min_total_cost_at_zero_indirect(self, table2_sub6):
        result = exhaustive_tctp(replace(table2_sub6, indirect_cost_per_day=0))
        assert result.min_total_cost == 63400
        assert set(result.best_choices) == set(table2_sub6.network.ids)

    def test_min_total_cost_tracks_indirect_cost(self, table2_sub6):
        # With a huge daily cost the optimum must sit at the fastest duration.
        result = exhaustive_tctp(replace(table2_sub6, indirect_cost_per_day=10**6))
        assert result.min_total_cost == 36 * 10**6 + 88600

    def test_guard_on_activity_count(self, table2):
        with pytest.raises(OracleLimitError, match="exceeds"):
            exhaustive_tctp(table2)

    def test_state_budget_enforced(self, table2_sub6):
        combos = 1
        for opts in table2_sub6.options.values():
            combos *= len(opts)
        with pytest.raises(OracleLimitError) as exc:
            exhaustive_tctp(table2_sub6, OracleGuard(max_states=10))
        assert str(exc.value) == f"{combos} combinations exceed state budget 10"


class TestExhaustiveRcpsp:
    def test_reduced_instance_capacity3(self, table1_sub8):
        assert exhaustive_rcpsp(table1_sub8, 3) == 129

    def test_generous_capacity_matches_cpm(self, table1_sub8):
        assert exhaustive_rcpsp(table1_sub8, 8) == compute_cpm(table1_sub8).makespan

    def test_optimum_never_beaten_by_random_lists(self, table1_sub8):
        best = exhaustive_rcpsp(table1_sub8, 3)
        rng = random.Random(17)
        for _ in range(30):
            order = random_activity_list(table1_sub8, rng)
            assert serial_sgs(table1_sub8, 3, order).makespan >= best

    def test_state_budget_enforced(self, table1_sub8):
        with pytest.raises(OracleLimitError, match="budget"):
            exhaustive_rcpsp(table1_sub8, 3, OracleGuard(max_activities=8, max_states=10))

    def test_guard_on_activity_count(self, table1):
        with pytest.raises(OracleLimitError, match="exceeds"):
            exhaustive_rcpsp(table1, 7)

    def test_state_budget_enforced_within_the_horizon(self, table1_sub8):
        horizon = sum(a.duration for a in table1_sub8.activities)
        with pytest.raises(OracleLimitError) as exc:
            exhaustive_rcpsp(table1_sub8, 3, OracleGuard(max_activities=8, max_states=horizon))
        assert str(exc.value) == f"state budget {horizon} exceeded"

    def test_cyclic_network_has_no_order(self):
        net = ProjectNetwork(
            activities=(Activity(1, 2), Activity(2, 3)),
            predecessors={1: frozenset({2}), 2: frozenset({1})},
        )
        with pytest.raises(OracleLimitError, match="no feasible topological order"):
            exhaustive_rcpsp(net, 1)

    def test_memory_does_not_grow_with_the_leaves(self):
        # 720 activity lists of six independent activities decode to as many
        # distinct schedules; the search keeps none of them.
        net = ProjectNetwork(activities=tuple(Activity(aid, 1) for aid in range(1, 7)), predecessors={})
        tracemalloc.start()
        try:
            assert exhaustive_rcpsp(net, 1) == 6
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_decode_work_is_charged(self, table1_sub8):
        # The order tree of activities 1-8 has far fewer than a million nodes,
        # but each of its 13,440 leaves decodes over a 382-unit horizon.
        with pytest.raises(OracleLimitError) as exc:
            exhaustive_rcpsp(table1_sub8, 3, OracleGuard(max_activities=8, max_states=1_000_000))
        assert str(exc.value) == "state budget 1000000 exceeded"

    @pytest.mark.parametrize("horizon", [100, 101])
    def test_horizon_within_state_budget(self, horizon):
        # The decoder keeps one usage entry per time unit up to the horizon,
        # the sum of all durations, and each decode is charged the horizon.
        net = ProjectNetwork(
            activities=(Activity(1, 60), Activity(2, horizon - 60)),
            predecessors={1: frozenset(), 2: frozenset()},
        )
        guard = OracleGuard(max_states=100)
        if horizon <= guard.max_states:
            # 5 nodes, 2 of them leaves, each decoding over the horizon.
            assert exhaustive_rcpsp(net, 1, OracleGuard(max_states=5 + 2 * horizon)) == horizon
            with pytest.raises(OracleLimitError) as exc:
                exhaustive_rcpsp(net, 1, OracleGuard(max_states=4 + 2 * horizon))
            assert str(exc.value) == f"state budget {4 + 2 * horizon} exceeded"
        else:
            with pytest.raises(OracleLimitError) as exc:
                exhaustive_rcpsp(net, 1, guard)
            assert str(exc.value) == "horizon 101 exceeds state budget 100"


def test_oracle_sgs_agrees_with_production_decoder(table1):
    rng = random.Random(19)
    for _ in range(30):
        net = random_dag(rng, max_activities=10)
        capacity = rng.randint(3, 6)
        order = random_activity_list(net, rng)
        reference = oracle_serial_sgs(net, capacity, order)
        assert serial_sgs(net, capacity, order).start_times == reference
