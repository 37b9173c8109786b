"""Critical path method: the one forward and one backward pass, floats, and
makespan."""

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


def forward_pass(view: CompiledNetwork, durations) -> list[int]:
    """Each activity's earliest finish when it starts at its latest
    predecessor's finish; `durations` and the result are indexed like
    `view.ids`."""
    finish = [0] * len(durations)
    preds = view.preds
    for i in view.order:
        start = 0
        for p in preds[i]:
            if finish[p] > start:
                start = finish[p]
        finish[i] = start + durations[i]
    return finish


def backward_pass(view: CompiledNetwork, durations, makespan: int) -> list[int]:
    """Each activity's latest start that lets every successor start by its
    own latest start and the project end by `makespan`, indexed like
    `view.ids`; a `makespan` below the longest path raises `InstanceError`."""
    start = [0] * len(durations)
    succs = view.succs
    for i in reversed(view.order):
        finish = makespan
        for s in succs[i]:
            if start[s] < finish:
                finish = start[s]
        start[i] = finish - durations[i]
    # The earliest late start falls short of `makespan` by the longest path.
    project_end = makespan - min(start, default=makespan)
    if makespan < project_end:
        raise InstanceError(
            f"makespan {makespan} below forward-pass makespan {project_end}"
        )
    return start


def compute_cpm(net: ProjectNetwork) -> CpmResult:
    """Both passes plus floats; critical activities are those with zero float."""
    view = net.compiled
    durations = view.durations
    finish = forward_pass(view, durations)
    makespan = max(finish, default=0)
    start = backward_pass(view, durations, makespan)
    rows = {}
    critical = []
    for aid, d, ef, ls in zip(view.ids, durations, finish, start):
        es = ef - d
        rows[aid] = CpmRow(es, ef, ls, ls + d, ls - es)
        if ls == es:
            critical.append(aid)
    return CpmResult(rows=rows, makespan=makespan, critical=frozenset(critical))
