"""Critical path method: forward/backward passes, floats, and makespan."""

from __future__ import annotations

from dataclasses import dataclass

from .model import InstanceError, ProjectNetwork


@dataclass(frozen=True)
class CpmRow:
    early_start: int
    early_finish: int
    late_start: int
    late_finish: int
    total_float: int


@dataclass(frozen=True)
class CpmResult:
    rows: dict[int, CpmRow]
    makespan: int
    critical: frozenset[int]


def forward_pass(net: ProjectNetwork) -> dict[int, tuple[int, int]]:
    """Early start/finish per activity: start at the latest predecessor finish."""
    view = net.compiled
    durations = view.durations
    finish = view.early_finish(durations)
    return {view.ids[i]: (finish[i] - durations[i], finish[i]) for i in view.order}


def backward_pass(net: ProjectNetwork, makespan: int) -> dict[int, tuple[int, int]]:
    """Late start/finish per activity, anchored at the given makespan."""
    view = net.compiled
    durations = view.durations
    start = view.late_start(durations, makespan)
    # The earliest late start falls short of `makespan` by the longest path.
    project_end = makespan - min(start, default=makespan)
    if makespan < project_end:
        raise InstanceError(
            f"makespan {makespan} below forward-pass makespan {project_end}"
        )
    return {view.ids[i]: (start[i], start[i] + durations[i]) for i in reversed(view.order)}


def compute_cpm(net: ProjectNetwork) -> CpmResult:
    """Both passes plus floats; critical activities are those with zero float."""
    earliest = forward_pass(net)
    makespan = max((ef for _, ef in earliest.values()), default=0)
    latest = backward_pass(net, makespan)
    rows = {}
    critical = []
    for aid in net.ids:
        es, ef = earliest[aid]
        ls, lf = latest[aid]
        rows[aid] = CpmRow(es, ef, ls, lf, ls - es)
        if ls == es:
            critical.append(aid)
    return CpmResult(rows=rows, makespan=makespan, critical=frozenset(critical))
