"""Independent exact references for testing: longest-path makespan, exhaustive
time-cost enumeration, and exhaustive resource-constrained scheduling.

Deliberately shares no code with the production cpm/rcpsp/search modules so
that agreement tests are meaningful cross-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import ProjectNetwork, TctpInstance


class OracleLimitError(RuntimeError):
    """Raised when an input exceeds the oracle's size guards."""


@dataclass(frozen=True)
class OracleGuard:
    max_activities: int = 10
    max_states: int = 10_000_000


@dataclass(frozen=True)
class ExhaustiveTctpResult:
    front: tuple[tuple[int, int], ...]  # (duration, direct cost), duration ascending
    min_total_cost: int | None
    best_choices: dict[int, int] | None  # 1-based option per activity, Eq-minimal


def longest_path_makespan(net: ProjectNetwork, durations: dict[int, int] | None = None) -> int:
    """Longest duration-weighted chain via Kahn-style dynamic programming."""
    if durations is None:
        durations = {a.id: a.duration for a in net.activities}
    indegree = {a.id: 0 for a in net.activities}
    succ: dict[int, list[int]] = {a.id: [] for a in net.activities}
    for aid, preds in net.predecessors.items():
        for p in preds:
            succ[p].append(aid)
            indegree[aid] += 1
    dist = {aid: 0 for aid in indegree}  # longest finish time of a chain ending at aid
    queue = [aid for aid, deg in indegree.items() if deg == 0]
    processed = 0
    while queue:
        aid = queue.pop()
        processed += 1
        finish = dist[aid] + durations[aid]
        dist[aid] = finish
        for s in succ[aid]:
            if dist[s] < finish:
                dist[s] = finish
            indegree[s] -= 1
            if indegree[s] == 0:
                queue.append(s)
    if processed != len(indegree):
        raise OracleLimitError("cycle detected in network")
    return max(dist.values(), default=0)


def exhaustive_tctp(instance: TctpInstance, guard: OracleGuard = OracleGuard()) -> ExhaustiveTctpResult:
    """Enumerate every option combination.

    Returns the exact non-dominated (duration, direct cost) set and, for the
    instance's daily indirect cost I, the exact minimum of duration * I +
    direct cost together with an attaining choice vector.
    """
    ids = [a.id for a in instance.network.activities]
    if len(ids) > guard.max_activities:
        raise OracleLimitError(
            f"{len(ids)} activities exceeds oracle guard {guard.max_activities}"
        )
    combos = 1
    for aid in ids:
        combos *= len(instance.options[aid])
    if combos > guard.max_states:
        raise OracleLimitError(f"{combos} combinations exceed state budget {guard.max_states}")

    option_lists = [instance.options[aid] for aid in ids]
    points: set[tuple[int, int]] = set()
    best_total: int | None = None
    best_choices: dict[int, int] | None = None
    for combo in itertools.product(*[range(len(opts)) for opts in option_lists]):
        durations = {
            aid: option_lists[i][combo[i]].duration for i, aid in enumerate(ids)
        }
        duration = longest_path_makespan(instance.network, durations)
        direct = sum(option_lists[i][combo[i]].direct_cost for i in range(len(ids)))
        points.add((duration, direct))
        total = duration * instance.indirect_cost_per_day + direct
        if best_total is None or total < best_total:
            best_total = total
            best_choices = {aid: combo[i] + 1 for i, aid in enumerate(ids)}
    front = _non_dominated(points)
    return ExhaustiveTctpResult(front=front, min_total_cost=best_total, best_choices=best_choices)


def oracle_serial_sgs(
    net: ProjectNetwork, capacity: int, order: tuple[int, ...]
) -> dict[int, int]:
    """Reference serial decoder: earliest precedence- and capacity-feasible
    start per activity, scanning candidate starts one time unit at a time."""
    durations = {a.id: a.duration for a in net.activities}
    demand = {a.id: a.resource_demand for a in net.activities}
    largest = max(demand.values(), default=0)
    if capacity < largest:
        raise ValueError(f"capacity {capacity} is below the largest activity demand {largest}")
    used = [0] * (sum(durations.values()) + 1)
    finish: dict[int, int] = {}
    starts: dict[int, int] = {}
    for aid in order:
        t = 0
        for p in net.predecessors.get(aid, ()):
            t = max(t, finish[p])
        d, dem = durations[aid], demand[aid]
        while any(used[u] + dem > capacity for u in range(t, t + d)):
            t += 1
        starts[aid] = t
        finish[aid] = t + d
        for u in range(t, t + d):
            used[u] += dem
    return starts


def exhaustive_rcpsp(
    net: ProjectNetwork, capacity: int, guard: OracleGuard = OracleGuard()
) -> int:
    """Optimal serial-SGS makespan by enumerating all topological orders."""
    ids = [a.id for a in net.activities]
    if len(ids) > guard.max_activities:
        raise OracleLimitError(
            f"{len(ids)} activities exceeds oracle guard {guard.max_activities}"
        )
    horizon = sum(a.duration for a in net.activities)  # the decoder keeps one usage entry per time unit
    if horizon > guard.max_states:
        raise OracleLimitError(f"horizon {horizon} exceeds state budget {guard.max_states}")
    best: int | None = None
    states = 0
    preds = {aid: set(net.predecessors.get(aid, ())) for aid in ids}
    durations = {a.id: a.duration for a in net.activities}

    def recurse(order: list[int], done: set[int]) -> None:
        nonlocal best, states
        leaf = len(order) == len(ids)
        states += 1 + leaf * horizon  # a node, and a leaf's decode: one usage entry per time unit
        if states > guard.max_states:
            raise OracleLimitError(f"state budget {guard.max_states} exceeded")
        if leaf:
            starts = oracle_serial_sgs(net, capacity, tuple(order))
            makespan = max(starts[aid] + durations[aid] for aid in ids)
            if best is None or makespan < best:
                best = makespan
            return
        for aid in ids:
            if aid not in done and preds[aid] <= done:
                order.append(aid)
                done.add(aid)
                recurse(order, done)
                order.pop()
                done.remove(aid)

    recurse([], set())
    if best is None:
        raise OracleLimitError("no feasible topological order (cycle?)")
    return best


def _non_dominated(points: set[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    # Sweep in (duration, cost) order: a point survives iff it strictly beats
    # the best cost seen among all points with smaller-or-equal duration.
    front = []
    best_cost: int | None = None
    for p in sorted(points):
        if best_cost is None or p[1] < best_cost:
            front.append(p)
            best_cost = p[1]
    return tuple(front)
