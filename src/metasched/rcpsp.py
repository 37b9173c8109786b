"""Resource-constrained scheduling: the activity-list representation and its
operators, the serial schedule-generation scheme, resource profiles, and
feasibility audits under a single renewable capacity."""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import inf

from .model import CompiledNetwork, ProjectNetwork


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
    ids = set(parent1)
    if len(ids) != n or len(parent2) != n or ids != set(parent2):
        raise ValueError("parents must be permutations of the same id set")
    segment = set(parent1[cut1:cut2])
    filler = [x for x in parent2 if x not in segment]
    return (*filler[:cut1], *parent1[cut1:cut2], *filler[cut1:])


def repair_precedence(net: ProjectNetwork, order: tuple) -> tuple:
    """Stable topological reinsertion of a permutation of the network's ids:
    among ready activities, always emit the one appearing earliest in `order`.

    One scan emits each activity that is ready when reached. One passed over
    waits until its last predecessor is emitted, then goes on a heap keyed by
    its position, which is emptied before the scan moves on.
    """
    view = net.compiled
    dense = [view.index[aid] for aid in order]
    indegree = [len(ps) for ps in view.preds]
    held = [-1] * len(indegree)  # the position of each activity passed over
    waiting: list[int] = []
    succs = view.succs
    repaired: list = []
    for pos, i in enumerate(dense):
        if indegree[i]:
            held[i] = pos
            continue
        while True:
            repaired.append(order[pos])
            for s in succs[i]:
                indegree[s] -= 1
                if not indegree[s] and held[s] >= 0:
                    heapq.heappush(waiting, held[s])
            if not waiting:
                break
            pos = heapq.heappop(waiting)
            i = dense[pos]
    return tuple(repaired)


def swappable(net: ProjectNetwork, order: tuple | list, i: int) -> bool:
    """Whether swapping positions i and i + 1 keeps a precedence-feasible
    list feasible: the first is not a direct predecessor of the second."""
    return order[i] not in net.predecessors.get(order[i + 1], ())


def neighbor_swap(net: ProjectNetwork, order: tuple, rng: random.Random) -> tuple:
    """Swap a uniformly chosen adjacent pair whose swap keeps the list
    precedence-feasible; unchanged if 32 draws find no such pair."""
    n = len(order)
    if n < 2:
        return order
    for _ in range(32):
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

    The decode reads the compiled view's dense lists; finishes are kept by
    index, -1 until placed, and the start-time dict is built once at the
    end. An unknown id or a predecessor still at -1 raises `SchedulingError`
    naming it; an activity left at -1 after the walk means a repeated id.

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
    view = net.compiled
    return _decode(view, view.durations, capacity, order)


def _decode(view: CompiledNetwork, durations, capacity: int, order: tuple[int, ...]) -> Schedule:
    """`serial_sgs` on a view with `durations`, indexed like `view.ids`,
    which may differ from its network's."""
    index, preds, demands = view.index, view.preds, view.demands
    max_demand = max(demands, default=0)
    if capacity < max_demand:
        raise SchedulingError(
            f"capacity {capacity} below maximum activity demand {max_demand}"
        )
    if len(order) != len(demands):
        raise SchedulingError(f"activity list is not a permutation of the network: {order}")

    binding = capacity < sum(demands)
    times: list[float] = [0, inf]
    loads = [0, 0]
    finish = [-1] * len(demands)
    starts: list[int] = []
    for aid in order:
        try:
            i = index[aid]
        except KeyError:
            raise SchedulingError(f"activity list is not precedence-feasible: {order} (at {aid!r})") from None
        d = durations[i]
        dem = demands[i]
        t = 0
        for p in preds[i]:
            f = finish[p]
            if f > t:
                t = f
            elif f < 0:
                raise SchedulingError(f"activity list is not precedence-feasible: {order} (at {view.ids[p]})")
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
            for u in range(k, j):
                loads[u] += dem
        starts.append(t)
        finish[i] = t + d
    if -1 in finish:
        raise SchedulingError(f"activity list repeats ids: {order}")
    return Schedule(start_times=dict(zip(order, starts)), makespan=max(finish, default=0))


def resource_profile(net: ProjectNetwork, schedule: Schedule) -> ResourceProfile:
    """Usage of the schedule's start times, by one sorted sweep over the
    start and finish events; its size grows with the number of activities,
    not with their durations."""
    view = net.compiled
    change: Counter = Counter()
    for aid, duration, demand in zip(view.ids, view.durations, view.demands):
        start = schedule.start_times[aid]
        change[start] += demand
        change[start + duration] -= demand
    times = tuple(t for t in sorted(change) if change[t])
    return ResourceProfile(times=times, loads=tuple(accumulate(change[t] for t in times)))


def check_schedule(net: ProjectNetwork, schedule: Schedule, capacity: int) -> list[str]:
    """Audit precedence and capacity invariants; empty report means feasible."""
    view = net.compiled
    ids, starts = view.ids, schedule.start_times
    report = [f"activity {aid} is unscheduled" for aid in ids if aid not in starts]
    if report:
        return report
    finish = [starts[aid] + d for aid, d in zip(ids, view.durations)]
    for aid, ps in zip(ids, view.preds):
        for p in ps:
            if starts[aid] < finish[p]:
                report.append(
                    f"activity {aid} starts at {starts[aid]} before "
                    f"predecessor {ids[p]} finishes at {finish[p]}"
                )
    actual_makespan = max(finish, default=0)
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
    view = net.compiled
    durations = list(view.durations)
    base = _decode(view, durations, capacity, order).makespan
    critical = set()
    for i, aid in enumerate(view.ids):
        durations[i] += 1
        if _decode(view, durations, capacity, order).makespan > base:
            critical.add(aid)
        durations[i] -= 1
    return frozenset(critical)
