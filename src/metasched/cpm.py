"""Critical path method: forward/backward passes, floats, and makespan."""

from __future__ import annotations

from dataclasses import dataclass

from .model import CompiledNetwork, InstanceError, ProjectNetwork


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


def forward_pass(
    net: ProjectNetwork, durations: dict[int, int] | None = None
) -> dict[int, tuple[int, int]]:
    """Early start/finish per activity: start at the latest predecessor finish.

    `durations` defaults to the activities' own, here and in `backward_pass`.
    """
    view = net.compiled
    dense = _dense_durations(view, durations)
    finish = view.early_finish(dense)
    return {view.ids[i]: (finish[i] - dense[i], finish[i]) for i in view.order}


def backward_pass(
    net: ProjectNetwork, durations: dict[int, int] | None, makespan: int
) -> dict[int, tuple[int, int]]:
    """Late start/finish per activity, anchored at the given makespan."""
    view = net.compiled
    dense = _dense_durations(view, durations)
    start = view.late_start(dense, makespan)
    # The earliest late start falls short of `makespan` by the longest path.
    project_end = makespan - min(start, default=makespan)
    if makespan < project_end:
        raise InstanceError(
            f"makespan {makespan} below forward-pass makespan {project_end}"
        )
    return {view.ids[i]: (start[i], start[i] + dense[i]) for i in reversed(view.order)}


def compute_cpm(net: ProjectNetwork, durations: dict[int, int] | None = None) -> CpmResult:
    """Both passes plus floats; critical activities are those with zero float."""
    earliest = forward_pass(net, durations)
    makespan = max((ef for _, ef in earliest.values()), default=0)
    latest = backward_pass(net, durations, makespan)
    rows = {}
    for aid in net.ids:
        es, ef = earliest[aid]
        ls, lf = latest[aid]
        rows[aid] = CpmRow(es, ef, ls, lf, ls - es)
    critical = frozenset(aid for aid, row in rows.items() if row.total_float == 0)
    return CpmResult(rows=rows, makespan=makespan, critical=critical)


def _dense_durations(view: CompiledNetwork, durations: dict[int, int] | None):
    if durations is None:
        return view.durations
    missing = [aid for aid in view.ids if aid not in durations]
    if missing:
        raise InstanceError(f"missing duration for activities {missing}")
    return [durations[aid] for aid in view.ids]
