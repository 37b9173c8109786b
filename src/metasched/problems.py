"""Concrete search problems: resource-constrained scheduling over activity
lists and time-cost trade-off over option-index vectors."""

from __future__ import annotations

import random
from operator import getitem

from .cpm import forward_pass
from .model import ProjectNetwork, TctpInstance
from .rcpsp import (
    neighbor_swap,
    order_crossover,
    random_activity_list,
    repair_precedence,
    serial_sgs,
    swappable,
)
from .search import Move, SearchProblem


def rcpsp_problem(net: ProjectNetwork, capacity: int) -> SearchProblem:
    """Makespan minimization over precedence-feasible activity lists decoded
    by the serial schedule-generation scheme."""
    n = len(net.compiled.ids)  # raises InstanceError on a cycle or a dangling reference

    def evaluate(order: tuple) -> tuple[int, int, int]:
        makespan = serial_sgs(net, capacity, order).makespan
        return makespan, makespan, 0

    def neighborhood(order: tuple) -> list[Move]:
        moves = []
        for i in range(n - 1):
            if swappable(net, order, i):
                swapped = list(order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                pair = frozenset(order[i:i + 2])
                moves.append(Move(tabu_key=pair, store_key=pair, candidate=tuple(swapped)))
        return moves

    def crossover(p1: tuple, p2: tuple, rng: random.Random) -> tuple:
        cut1 = rng.randrange(n)
        cut2 = rng.randrange(cut1 + 1, n + 1)
        return repair_precedence(net, order_crossover(p1, p2, cut1, cut2))

    def mutate(order: tuple, rate: float, rng: random.Random) -> tuple:
        out = list(order)
        for i in range(n - 1):
            if rng.random() < rate and swappable(net, out, i):
                out[i], out[i + 1] = out[i + 1], out[i]
        return tuple(out)

    return SearchProblem(
        initial=lambda rng: random_activity_list(net, rng),
        evaluate=evaluate,
        neighbor=lambda order, rng: neighbor_swap(net, order, rng),
        neighborhood=neighborhood,
        crossover=crossover,
        mutate=mutate,
    )


def neighbor_mode_change(
    option_counts: tuple[int, ...], modes: tuple, rng: random.Random
) -> tuple:
    """Replace one uniformly chosen activity's option index with a uniformly
    chosen different valid index; activities with one option are never picked."""
    mutable = [i for i, count in enumerate(option_counts) if count > 1]
    if not mutable:
        return modes
    i = mutable[rng.randrange(len(mutable))]
    idx = rng.randrange(1, option_counts[i])  # skips modes[i] by moving up past it
    changed = list(modes)
    changed[i] = idx + (idx >= modes[i])
    return tuple(changed)


def tctp_problem(instance: TctpInstance) -> SearchProblem:
    """Total-cost minimization over mode vectors: tuples of 1-based option
    indices in `instance.network.ids` order.

    The total cost is duration * the instance's indirect cost per day + the
    chosen options' direct costs, in exact integers. A fitness call is the
    CPM forward pass over the chosen options' durations, cheap enough for
    large evaluation budgets.
    """
    indirect_cost = instance.indirect_cost_per_day
    view = instance.network.compiled
    ids = view.ids
    n = len(ids)
    # Padded at position 0 so that a 1-based option index reads its entry.
    option_durations = [
        (0, *(o.duration for o in instance.options[aid])) for aid in ids
    ]
    option_costs = [
        (0, *(o.direct_cost for o in instance.options[aid])) for aid in ids
    ]
    option_counts = tuple(len(instance.options[aid]) for aid in ids)

    def evaluate(modes: tuple) -> tuple[int, int, int]:
        duration = max(forward_pass(view, list(map(getitem, option_durations, modes))))
        direct = sum(map(getitem, option_costs, modes))
        return duration * indirect_cost + direct, duration, direct

    def initial(rng: random.Random) -> tuple:
        return tuple(rng.randrange(1, count + 1) for count in option_counts)

    def neighborhood(modes: tuple) -> list[Move]:
        moves = []
        for i in range(n):
            for idx in range(1, option_counts[i] + 1):
                if idx == modes[i]:
                    continue
                changed = list(modes)
                changed[i] = idx
                moves.append(
                    Move(
                        tabu_key=(ids[i], idx),
                        store_key=(ids[i], modes[i]),
                        candidate=tuple(changed),
                    )
                )
        return moves

    def crossover(p1: tuple, p2: tuple, rng: random.Random) -> tuple:
        return tuple(p1[i] if rng.random() < 0.5 else p2[i] for i in range(n))

    def mutate(modes: tuple, rate: float, rng: random.Random) -> tuple:
        out = list(modes)
        for i in range(n):
            if rng.random() < rate:
                out[i] = rng.randrange(1, option_counts[i] + 1)
        return tuple(out)

    return SearchProblem(
        initial=initial,
        evaluate=evaluate,
        neighbor=lambda modes, rng: neighbor_mode_change(option_counts, modes, rng),
        neighborhood=neighborhood,
        crossover=crossover,
        mutate=mutate,
    )
