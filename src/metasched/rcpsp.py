"""Resource-constrained scheduling: the activity-list representation and its
operators, the serial schedule-generation scheme, resource profiles, and
feasibility audits under a single renewable capacity."""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
from math import inf

from .model import ProjectNetwork


class SchedulingError(ValueError):
    """Raised when a schedule cannot be decoded (bad list or capacity)."""


@dataclass(frozen=True)
class Schedule:
    start_times: dict[int, int]
    makespan: int


@dataclass(frozen=True)
class ResourceProfile:
    """Piecewise-constant resource usage: `loads[k]` holds over
    [times[k], times[k + 1]). Usage is 0 before the first breakpoint, and the
    last load, from the last breakpoint on, is 0."""

    times: tuple[int, ...]
    loads: tuple[int, ...]

    @property
    def peak(self) -> int:
        return max(self.loads, default=0)


def random_activity_list(net: ProjectNetwork, rng: random.Random) -> tuple[int, ...]:
    """Uniformly random-ish precedence-feasible permutation (random eligible pick)."""
    view = net.compiled
    ids, index, succs = view.ids, view.index, view.succs
    indegree = [len(ps) for ps in view.preds]
    ready = sorted(ids[i] for i, deg in enumerate(indegree) if deg == 0)
    order: list[int] = []
    while ready:
        pick = rng.choice(ready)
        del ready[bisect_left(ready, pick)]
        order.append(pick)
        for s in succs[index[pick]]:
            indegree[s] -= 1
            if indegree[s] == 0:
                insort(ready, ids[s])
    return tuple(order)


def order_crossover(parent1: tuple, parent2: tuple, cut1: int, cut2: int) -> tuple:
    """Order crossover (OX) without feasibility repair.

    The child keeps parent1's segment [cut1, cut2); the remaining positions,
    taken in index order, receive the absent ids in the order they appear in
    parent2. Precedence repair is the caller's job.
    """
    n = len(parent1)
    if not 0 <= cut1 < cut2 <= n:
        raise ValueError(f"invalid cuts ({cut1}, {cut2}) for length {n}")
    if set(parent1) != set(parent2) or len(set(parent1)) != n:
        raise ValueError("parents must be permutations of the same id set")
    segment = set(parent1[cut1:cut2])
    filler = iter(x for x in parent2 if x not in segment)
    return tuple(parent1[i] if cut1 <= i < cut2 else next(filler) for i in range(n))


def repair_precedence(net: ProjectNetwork, order: tuple) -> tuple:
    """Stable topological reinsertion of a permutation of the network's ids:
    among ready activities, always emit the one appearing earliest in `order`."""
    view = net.compiled
    dense = [view.index[aid] for aid in order]
    position = [0] * len(dense)
    for pos, i in enumerate(dense):
        position[i] = pos
    indegree = [len(ps) for ps in view.preds]
    ready = [pos for pos, i in enumerate(dense) if indegree[i] == 0]  # ascending: a heap
    succs = view.succs
    repaired: list = []
    while ready:
        pos = heapq.heappop(ready)
        repaired.append(order[pos])
        for s in succs[dense[pos]]:
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(ready, position[s])
    return tuple(repaired)


def swappable(net: ProjectNetwork, order: tuple | list, i: int) -> bool:
    """Whether swapping positions i and i + 1 keeps a precedence-feasible
    list feasible: the first is not a direct predecessor of the second."""
    return order[i] not in net.predecessors.get(order[i + 1], ())


def neighbor_swap(
    net: ProjectNetwork, order: tuple, rng: random.Random, max_tries: int = 32
) -> tuple:
    """Swap a uniformly chosen adjacent pair whose swap keeps the list
    precedence-feasible; unchanged if no such pair is found within the bound."""
    n = len(order)
    if n < 2:
        return order
    for _ in range(max_tries):
        i = rng.randrange(n - 1)
        if swappable(net, order, i):
            swapped = list(order)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            return tuple(swapped)
    return order


def serial_sgs(net: ProjectNetwork, capacity: int, order: tuple[int, ...]) -> Schedule:
    """Decode an activity list into a schedule.

    Activities are placed in list order at the earliest integer start that
    respects predecessor finishes and keeps usage within capacity for the
    activity's whole (non-preemptive) duration.

    When capacity binds (it is below the total demand), usage is kept as a
    piecewise-constant profile: sorted breakpoint `times` and the `loads`
    that hold from each breakpoint to the next, ending in a load-0 piece up
    to an infinite sentinel. An activity starts at its precedence-earliest
    time t and walks the pieces overlapping [t, t + d); on the first piece
    whose load leaves no room for its demand, every start before that
    piece's end overlaps it, so t jumps to that end and the walk goes on.
    Placing the activity splits the profile at t and t + d and adds its
    demand to the pieces in between, so the work per activity grows with
    the number of pieces, not with its duration.
    """
    activities = net.activities
    durations = net._duration_map
    demand = net._demand_map
    max_demand = max(demand.values(), default=0)
    if capacity < max_demand:
        raise SchedulingError(
            f"capacity {capacity} below maximum activity demand {max_demand}"
        )
    if len(order) != len(activities):
        raise SchedulingError(f"activity list is not a permutation of the network: {order}")

    # Predecessor lookups double as the feasibility check: an unscheduled
    # predecessor (or an unknown/duplicated id) surfaces as a KeyError.
    preds = net.predecessors
    binding = capacity < sum(demand.values())
    times: list[float] = [0, inf]
    loads = [0, 0]
    finish: dict[int, int] = {}
    start_times: dict[int, int] = {}
    try:
        for aid in order:
            d = durations[aid]
            dem = demand[aid]
            t = 0
            for p in preds.get(aid, ()):
                f = finish[p]
                if f > t:
                    t = f
            if binding and d > 0 and dem > 0:
                # The load-0 piece before the sentinel always fits, because
                # capacity covers every single demand.
                room = capacity - dem
                k = bisect_right(times, t) - 1  # the piece holding t
                j, end = k, t + d
                while times[j] < end:
                    j += 1
                    if loads[j - 1] > room:
                        t, k, end = times[j], j, times[j] + d
                # Pieces k..j-1 overlap [t, end); split at t and at end.
                if times[k] < t:
                    k += 1
                    j += 1
                    times.insert(k, t)
                    loads.insert(k, loads[k - 1])
                if times[j] > end:
                    times.insert(j, end)
                    loads.insert(j, loads[j - 1])
                for i in range(k, j):
                    loads[i] += dem
            start_times[aid] = t
            finish[aid] = t + d
    except KeyError as exc:
        raise SchedulingError(
            f"activity list is not precedence-feasible: {order} (at {exc})"
        ) from exc
    if len(start_times) != len(activities):
        raise SchedulingError(f"activity list repeats ids: {order}")
    makespan = max(finish.values(), default=0)
    return Schedule(start_times=start_times, makespan=makespan)


def resource_profile(net: ProjectNetwork, schedule: Schedule) -> ResourceProfile:
    """Usage of the schedule's start times, by one sorted sweep over the
    start and finish events; its size grows with the number of activities,
    not with their durations."""
    change: Counter = Counter()
    for a in net.activities:
        start = schedule.start_times[a.id]
        change[start] += a.resource_demand
        change[start + a.duration] -= a.resource_demand
    times = tuple(t for t in sorted(change) if change[t])
    return ResourceProfile(times=times, loads=tuple(accumulate(change[t] for t in times)))


def check_schedule(net: ProjectNetwork, schedule: Schedule, capacity: int) -> list[str]:
    """Audit precedence and capacity invariants; empty report means feasible."""
    durations = net._duration_map
    report: list[str] = []
    for aid in net.ids:
        if aid not in schedule.start_times:
            report.append(f"activity {aid} is unscheduled")
    if report:
        return report
    for aid in net.ids:
        for p in net.predecessors.get(aid, ()):
            if schedule.start_times[aid] < schedule.start_times[p] + durations[p]:
                report.append(
                    f"activity {aid} starts at {schedule.start_times[aid]} before "
                    f"predecessor {p} finishes at {schedule.start_times[p] + durations[p]}"
                )
    finish = {aid: schedule.start_times[aid] + durations[aid] for aid in net.ids}
    actual_makespan = max(finish.values(), default=0)
    if actual_makespan != schedule.makespan:
        report.append(
            f"recorded makespan {schedule.makespan} != actual {actual_makespan}"
        )
    profile = resource_profile(net, schedule)
    for t1, t2, used in zip(profile.times, profile.times[1:], profile.loads):
        if used > capacity:
            report.append(f"capacity exceeded over [{t1}, {t2}): usage {used} > {capacity}")
    return report


def constrained_critical(
    net: ProjectNetwork, capacity: int, order: tuple[int, ...]
) -> frozenset[int]:
    """Activities whose unit lengthening strictly increases the decoded makespan.

    This is a sensitivity notion of criticality for resource-constrained
    schedules: re-decode the same list with one activity's duration + 1 and
    see whether the makespan grows.
    """
    base = serial_sgs(net, capacity, order).makespan
    critical = set()
    for a in net.activities:
        longer = tuple(replace(b, duration=b.duration + 1) if b is a else b for b in net.activities)
        if serial_sgs(replace(net, activities=longer), capacity, order).makespan > base:
            critical.add(a.id)
    return frozenset(critical)
