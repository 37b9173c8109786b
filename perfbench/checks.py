"""Result checks and lower bounds computed through `metasched.oracle` and the
raw instance documents only, never through the modules being measured.

Networks for the checks are built here from the JSON documents, so a parser
defect in metasched shows up as a mismatch rather than being shared. Every
check returns a list of problems; an empty list means the result holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from metasched.model import Activity, ProjectNetwork
from metasched.oracle import longest_path_makespan, oracle_serial_sgs


def aoa_network(document: dict) -> ProjectNetwork:
    """Activity-on-arrow arcs to a precedence network: j follows i iff j
    starts at the node where i ends."""
    arcs = document["arcs"]
    ending: dict[int, set[int]] = {}
    for arc in arcs:
        ending.setdefault(arc["end"], set()).add(arc["id"])
    return ProjectNetwork(
        activities=tuple(Activity(a["id"], a["duration"], a.get("demand", 1)) for a in arcs),
        predecessors={a["id"]: frozenset(ending.get(a["start"], ())) for a in arcs},
    )


@dataclass(frozen=True)
class TctpData:
    """A tctp-v1 document: network (durations are placeholders) and the
    (duration, cost) options per activity, in document order."""

    network: ProjectNetwork
    options: dict[int, tuple[tuple[int, int], ...]]

    @classmethod
    def from_document(cls, document: dict) -> "TctpData":
        records = document["activities"]
        return cls(
            network=ProjectNetwork(
                activities=tuple(Activity(r["id"], 1) for r in records),
                predecessors={r["id"]: frozenset(r.get("depends", ())) for r in records},
            ),
            options={r["id"]: tuple((o["duration"], o["cost"]) for o in r["options"]) for r in records},
        )


def check_budget(run, budget: int) -> list[str]:
    if run.evaluations_used != budget:
        return [f"{_tag(run)}: used {run.evaluations_used} evaluations, budget {budget}"]
    return []


def check_schedule(net, capacity: int, starts: dict[int, int], makespan: int) -> list[str]:
    """Precedence, capacity profile and makespan of explicit start times."""
    durations = {a.id: a.duration for a in net.activities}
    if set(starts) != set(durations):
        return ["schedule does not cover exactly the network's activities"]
    problems = []
    for aid, preds in net.predecessors.items():
        for p in preds:
            if starts[aid] < starts[p] + durations[p]:
                problems.append(f"activity {aid} starts at {starts[aid]} before {p} finishes")
    deltas: dict[int, int] = {}
    for a in net.activities:
        if a.duration and a.resource_demand:
            s = starts[a.id]
            deltas[s] = deltas.get(s, 0) + a.resource_demand
            deltas[s + a.duration] = deltas.get(s + a.duration, 0) - a.resource_demand
    usage = 0
    for t in sorted(deltas):
        usage += deltas[t]
        if usage > capacity:
            problems.append(f"usage {usage} exceeds capacity {capacity} at t={t}")
            break
    actual = max((starts[aid] + d for aid, d in durations.items()), default=0)
    if actual != makespan:
        problems.append(f"reported makespan {makespan}, schedule ends at {actual}")
    return problems


def check_rcpsp_run(net, capacity: int, run, budget: int) -> list[str]:
    """Re-decode the run's best list with the oracle decoder and audit it."""
    problems = check_budget(run, budget) + check_archive(run)
    order = tuple(run.best)
    if sorted(order) != sorted(a.id for a in net.activities):
        return problems + [f"{_tag(run)}: best is not a permutation of the activities"]
    try:
        starts = oracle_serial_sgs(net, capacity, order)
    except KeyError as exc:
        return problems + [f"{_tag(run)}: best list is not precedence-feasible (at {exc})"]
    problems += [f"{_tag(run)}: {p}" for p in check_schedule(net, capacity, starts, run.best_duration)]
    if run.best_fitness != run.best_duration or run.best_cost != 0:
        problems.append(f"{_tag(run)}: fitness {run.best_fitness}, cost {run.best_cost}")
    return problems


def tctp_costs(data: TctpData, indirect: int, modes) -> tuple[int, int, int]:
    """(duration, direct cost, total cost) of a 1-based option vector aligned
    with the document's activity order; `mode_problem` must pass first."""
    chosen = {a.id: data.options[a.id][m - 1] for a, m in zip(data.network.activities, modes)}
    duration = longest_path_makespan(data.network, {aid: d for aid, (d, _) in chosen.items()})
    direct = sum(c for _, c in chosen.values())
    return duration, direct, duration * indirect + direct


def mode_problem(data: TctpData, modes) -> str | None:
    """Why `modes` is not a 1-based option vector for the network, if it is not."""
    activities = data.network.activities
    if len(modes) != len(activities):
        return f"{len(modes)} modes for {len(activities)} activities"
    for a, m in zip(activities, modes):
        if not 1 <= m <= len(data.options[a.id]):
            return f"mode {m} of activity {a.id} is outside 1..{len(data.options[a.id])}"
    return None


def check_tctp_run(data: TctpData, indirect: int, run, budget: int) -> list[str]:
    problems = check_budget(run, budget) + check_archive(run)
    for p in run.archive.points:
        bad = mode_problem(data, p.modes)
        if bad:
            problems.append(f"{_tag(run)}: archive point {(p.duration, p.cost)}: {bad}")
        elif tctp_costs(data, indirect, p.modes)[:2] != (p.duration, p.cost):
            problems.append(f"{_tag(run)}: archive point {(p.duration, p.cost)} does not match its modes")
    bad = mode_problem(data, run.best)
    if bad:
        return problems + [f"{_tag(run)}: best: {bad}"]
    duration, direct, total = tctp_costs(data, indirect, run.best)
    if (run.best_duration, run.best_cost, run.best_fitness) != (duration, direct, total):
        problems.append(
            f"{_tag(run)}: reported (duration, cost, total) "
            f"{(run.best_duration, run.best_cost, run.best_fitness)}, recomputed {(duration, direct, total)}"
        )
    return problems


def check_archive(run) -> list[str]:
    """The archive must be non-empty and pairwise non-dominated."""
    points = [(p.duration, p.cost) for p in run.archive.points]
    if not points:
        return [f"{_tag(run)}: empty archive"]
    for a in points:
        for b in points:
            if a is not b and a[0] <= b[0] and a[1] <= b[1]:
                return [f"{_tag(run)}: archive point {a} dominates or repeats {b}"]
    return []


def check_cpm(net, result) -> list[str]:
    """Makespan against the oracle, non-negative floats, and row consistency."""
    if set(result.rows) != {a.id for a in net.activities}:
        return ["rows do not cover exactly the network's activities"]
    problems = []
    expected = longest_path_makespan(net)
    if result.makespan != expected:
        problems.append(f"makespan {result.makespan}, oracle longest path {expected}")
    for a in net.activities:
        row = result.rows[a.id]
        if row.total_float < 0 or row.total_float != row.late_start - row.early_start:
            problems.append(f"activity {a.id}: bad float {row.total_float}")
        if row.early_finish != row.early_start + a.duration or row.late_finish != row.late_start + a.duration:
            problems.append(f"activity {a.id}: finish does not equal start + duration")
        if row.late_finish > result.makespan:
            problems.append(f"activity {a.id}: late finish after the makespan")
        for p in net.predecessors.get(a.id, ()):
            if row.early_start < result.rows[p].early_finish:
                problems.append(f"activity {a.id}: early start before predecessor {p} finishes")
    if result.critical != {aid for aid, row in result.rows.items() if row.total_float == 0}:
        problems.append("critical set is not the zero-float set")
    return problems[:10]


def rcpsp_lower_bound(net, capacity: int) -> int:
    """max(critical path length, ceil(total resource work / capacity))."""
    work = sum(a.duration * a.resource_demand for a in net.activities)
    return max(longest_path_makespan(net), math.ceil(work / capacity))


def tctp_lower_bound(data: TctpData, indirect: int) -> int:
    """I * (longest path at each activity's shortest option) + cheapest direct costs."""
    shortest = {aid: min(d for d, _ in opts) for aid, opts in data.options.items()}
    cheapest = sum(min(c for _, c in opts) for opts in data.options.values())
    return indirect * longest_path_makespan(data.network, shortest) + cheapest


def _tag(run) -> str:
    return f"{run.algorithm} seed {run.seed}"
