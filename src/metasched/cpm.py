"""Critical path method: the one forward and one backward pass, floats, and
makespan."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, eq, sub

from .model import CompiledNetwork, InstanceError, ProjectNetwork


@dataclass
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
    ef = forward_pass(view, durations)
    makespan = max(ef, default=0)
    ls = backward_pass(view, durations, makespan)
    es = list(map(sub, ef, durations))
    lf = map(add, ls, durations)
    tf = map(sub, ls, es)
    rows = dict(zip(view.ids, map(CpmRow, es, ef, ls, lf, tf)))
    critical = frozenset(compress(view.ids, map(eq, ls, es)))
    return CpmResult(rows=rows, makespan=makespan, critical=critical)
