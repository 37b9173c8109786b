"""Domain types for project instances: activities, precedence networks, and
time-cost trade-off data, plus parsing and validation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

AOA_FORMAT = "aoa-v1"
TCTP_FORMAT = "tctp-v1"


class InstanceError(ValueError):
    """Raised for malformed or inconsistent instance data."""


@dataclass(frozen=True)
class Activity:
    id: int
    duration: int
    resource_demand: int = 1

    def __post_init__(self):
        if self.id < 1:
            raise InstanceError(f"activity id must be positive, got {self.id}")
        if self.duration < 0:
            raise InstanceError(f"activity {self.id}: negative duration {self.duration}")
        if self.resource_demand < 0:
            raise InstanceError(f"activity {self.id}: negative demand {self.resource_demand}")


@dataclass(frozen=True)
class AoaArc:
    """One activity expressed as an arc between two event nodes."""

    activity_id: int
    start_node: int
    end_node: int
    duration: int
    demand: int = 1

    def __post_init__(self):
        if self.duration < 0:
            raise InstanceError(
                f"activity {self.activity_id}: negative duration {self.duration}"
            )
        if self.duration > 0 and self.start_node == self.end_node:
            raise InstanceError(
                f"activity {self.activity_id}: self-loop at node {self.start_node}"
            )


@dataclass(frozen=True)
class ProjectNetwork:
    """Activities plus an acyclic predecessor relation over their ids.

    Instances are immutable after construction; `predecessors` maps every
    activity id to a (possibly empty) frozenset of activity ids. Construction
    does not validate: `validate_network` reports violations of the acyclicity
    and reference invariants, so that broken inputs can be diagnosed rather
    than rejected opaquely. The first use of `compiled` raises `InstanceError`
    on a network that violates them.
    """

    activities: tuple[Activity, ...]
    predecessors: dict[int, frozenset[int]]

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.activities)

    @cached_property
    def _duration_map(self) -> dict[int, int]:
        return {a.id: a.duration for a in self.activities}

    @cached_property
    def _demand_map(self) -> dict[int, int]:
        return {a.id: a.resource_demand for a in self.activities}

    @cached_property
    def compiled(self) -> CompiledNetwork:
        """The dense-index view every graph walk reads, built on first use."""
        return CompiledNetwork.build(self)

    def topological_order(self) -> tuple[int, ...]:
        """Deterministic topological order: level by level from the sources,
        ties broken by activity id."""
        return tuple(map(self.compiled.ids.__getitem__, self.compiled.order))


@dataclass(frozen=True)
class CompiledNetwork:
    """Dense-index view of a `ProjectNetwork`: activity `ids[i]` is index i,
    in the network's activity order, and every list below is indexed by i.

    `order` holds the indices level by level (an activity's level is the
    length of the longest predecessor chain ending at it), each level in
    ascending id order. `preds`/`succs` hold index tuples in ascending index
    order, and `durations` the activities' own durations.
    """

    ids: tuple[int, ...]
    index: dict[int, int]
    order: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    durations: tuple[int, ...]

    @classmethod
    def build(cls, net: ProjectNetwork) -> CompiledNetwork:
        """Kahn's source elimination in O(n + e), then one sort by (level, id).

        Raises `InstanceError` on a duplicate id, a reference to an unknown
        activity, or a cycle; a cycle is reported with every activity the
        elimination could not reach.
        """
        ids = net.ids
        index: dict[int, int] = {}
        for i, aid in enumerate(ids):
            if aid in index:
                raise InstanceError(f"duplicate activity id {aid}")
            index[aid] = i
        preds = []
        for aid in ids:
            try:
                preds.append(tuple(sorted(index[p] for p in net.predecessors.get(aid, ()))))
            except KeyError as exc:
                raise InstanceError(
                    f"activity {aid} depends on nonexistent activity {exc.args[0]}"
                ) from None
        succs: list[list[int]] = [[] for _ in ids]
        for i, ps in enumerate(preds):
            for p in ps:
                succs[p].append(i)

        indegree = [len(ps) for ps in preds]
        level = [0] * len(ids)
        done = [i for i, deg in enumerate(indegree) if deg == 0]
        for i in done:  # grows while it is walked: a FIFO queue
            for s in succs[i]:
                if level[s] <= level[i]:
                    level[s] = level[i] + 1
                indegree[s] -= 1
                if indegree[s] == 0:
                    done.append(s)
        if len(done) < len(ids):
            stuck = sorted(ids[i] for i, deg in enumerate(indegree) if deg)
            raise InstanceError(f"cycle among activities {stuck}")
        done.sort(key=lambda i: (level[i], ids[i]))
        return cls(
            ids=ids,
            index=index,
            order=tuple(done),
            preds=tuple(preds),
            succs=tuple(map(tuple, succs)),
            durations=tuple(a.duration for a in net.activities),
        )

    def early_finish(self, durations) -> list[int]:
        """Forward pass: each activity's earliest finish when it starts at
        its latest predecessor's finish; `durations` is indexed like `ids`."""
        finish = [0] * len(durations)
        preds = self.preds
        for i in self.order:
            start = 0
            for p in preds[i]:
                if finish[p] > start:
                    start = finish[p]
            finish[i] = start + durations[i]
        return finish

    def late_start(self, durations, makespan: int) -> list[int]:
        """Backward pass over the successor lists: each activity's latest
        start that lets every successor start by its own latest start and
        the project end by `makespan`."""
        start = [0] * len(durations)
        succs = self.succs
        for i in reversed(self.order):
            finish = makespan
            for s in succs[i]:
                if start[s] < finish:
                    finish = start[s]
            start[i] = finish - durations[i]
        return start


def validate_network(net: ProjectNetwork) -> list[str]:
    """Check a network's structural invariants.

    Returns a list of human-readable violations; empty iff ids are unique,
    every reference resolves, and the relation is acyclic (so a non-empty
    network has at least one source and one sink).
    """
    report: list[str] = []
    ids = [a.id for a in net.activities]
    seen: set[int] = set()
    for aid in ids:
        if aid in seen:
            report.append(f"duplicate activity id {aid}")
        seen.add(aid)
    known = set(ids)
    for aid, preds in net.predecessors.items():
        if aid not in known:
            report.append(f"predecessor entry for unknown activity {aid}")
        for p in preds:
            if p not in known:
                report.append(f"activity {aid} depends on nonexistent activity {p}")
    # Cycle check over the resolvable references, by compiling them.
    resolved = net
    if report:
        resolved = ProjectNetwork(
            activities=tuple({a.id: a for a in net.activities}.values()),
            predecessors={aid: net.predecessors.get(aid, frozenset()) & known for aid in known},
        )
    try:
        resolved.compiled
    except InstanceError as exc:
        report.append(str(exc))
    return report


def derive_precedence_from_nodes(arcs: list[AoaArc] | tuple[AoaArc, ...]) -> ProjectNetwork:
    """Build the precedence network implied by shared event nodes.

    Activity j is a successor of activity i iff j starts at the node i ends
    at. The arc order is preserved in the resulting activity tuple.
    """
    by_end: dict[int, set[int]] = {}
    for arc in arcs:
        by_end.setdefault(arc.end_node, set()).add(arc.activity_id)
    activities = tuple(
        Activity(id=a.activity_id, duration=a.duration, resource_demand=a.demand) for a in arcs
    )
    predecessors = {
        a.activity_id: frozenset(by_end.get(a.start_node, ())) for a in arcs
    }
    net = ProjectNetwork(activities=activities, predecessors=predecessors)
    net.compiled  # raises on a duplicate id or a cycle the node structure induced
    return net


def induced_subnetwork(net: ProjectNetwork, keep: set[int] | frozenset[int]) -> ProjectNetwork:
    """Restrict a network to a subset of its activity ids, dropping outside
    edges; an id the network does not hold raises `InstanceError`."""
    keep = frozenset(keep)
    unknown = sorted(keep.difference(net.ids))
    if unknown:
        more = f" and {len(unknown) - 10} more" if len(unknown) > 10 else ""
        raise InstanceError(f"activities {unknown[:10]}{more} are not in the network")
    activities = tuple(a for a in net.activities if a.id in keep)
    predecessors = {
        a.id: frozenset(net.predecessors.get(a.id, frozenset()) & keep) for a in activities
    }
    return ProjectNetwork(activities=activities, predecessors=predecessors)


@dataclass(frozen=True)
class ActivityOption:
    """One selectable (duration, direct cost) mode for an activity."""

    duration: int
    direct_cost: int

    def __post_init__(self):
        if self.duration < 1:
            raise InstanceError(f"option duration must be >= 1, got {self.duration}")
        if self.direct_cost < 0:
            raise InstanceError(f"negative option cost {self.direct_cost}")


@dataclass(frozen=True)
class TctpInstance:
    """A discrete time-cost trade-off instance: a network, per-activity option
    lists, and a daily indirect cost charged per day of project duration."""

    network: ProjectNetwork
    options: dict[int, tuple[ActivityOption, ...]]
    indirect_cost_per_day: int

    def __post_init__(self):
        if self.indirect_cost_per_day < 0:
            raise InstanceError("negative indirect cost")
        for aid in self.network.ids:
            opts = self.options.get(aid)
            if not opts:
                raise InstanceError(f"activity {aid} has no options")
            if len(opts) > 5:
                raise InstanceError(f"activity {aid} has more than 5 options")
        if set(self.options) != set(self.network.ids):
            raise InstanceError("options do not cover exactly the network's activities")

    @property
    def n_activities(self) -> int:
        return len(self.network.activities)


def parse_aoa_instance(document: str) -> tuple[AoaArc, ...]:
    """Parse an activity-on-arrow instance document into arcs, order preserved."""
    data = _load_json(document)
    if data.get("format") != AOA_FORMAT:
        raise InstanceError(f"expected format {AOA_FORMAT!r}, got {data.get('format')!r}")
    records = data.get("arcs")
    if not isinstance(records, list) or not records:
        raise InstanceError("empty instance")
    return tuple(
        AoaArc(
            activity_id=_int_field(rec, "id"),
            start_node=_int_field(rec, "start"),
            end_node=_int_field(rec, "end"),
            duration=_int_field(rec, "duration"),
            demand=_int_field(rec, "demand", default=1),
        )
        for rec in records
    )


def parse_tctp_instance(document: str | dict, indirect_cost_override: int | None = None) -> TctpInstance:
    """Parse a time-cost trade-off instance document, given as JSON text or
    as its already decoded top-level object.

    The daily indirect cost may come from the file or from
    `indirect_cost_override` (which wins when both are present); it is an
    error if neither supplies it.
    """
    data = document if isinstance(document, dict) else _load_json(document)
    if data.get("format") != TCTP_FORMAT:
        raise InstanceError(f"expected format {TCTP_FORMAT!r}, got {data.get('format')!r}")
    records = data.get("activities")
    if not isinstance(records, list) or not records:
        raise InstanceError("empty instance")
    if indirect_cost_override is not None:
        indirect = indirect_cost_override
    elif "indirect_cost_per_day" in data:
        indirect = _as_int(data["indirect_cost_per_day"], "indirect_cost_per_day")
    else:
        raise InstanceError("indirect cost required (file field or override)")

    activities = []
    predecessors: dict[int, frozenset[int]] = {}
    options: dict[int, tuple[ActivityOption, ...]] = {}
    for rec in records:
        aid = _int_field(rec, "id")
        deps = rec.get("depends", [])
        if not isinstance(deps, list):
            raise InstanceError(f"activity {aid}: 'depends' must be a list")
        opts = rec.get("options")
        if not isinstance(opts, list) or not opts:
            raise InstanceError(f"activity {aid}: missing options")
        parsed = tuple(
            ActivityOption(
                duration=_int_field(o, "duration"), direct_cost=_int_field(o, "cost")
            )
            for o in opts
        )
        # Network durations default to the first option; evaluation always
        # substitutes the chosen option's duration.
        activities.append(Activity(id=aid, duration=parsed[0].duration))
        predecessors[aid] = frozenset(_as_int(d, f"activity {aid} dependency") for d in deps)
        options[aid] = parsed

    net = ProjectNetwork(activities=tuple(activities), predecessors=predecessors)
    net.compiled  # raises on a duplicate id, a dangling reference or a cycle
    return TctpInstance(network=net, options=options, indirect_cost_per_day=indirect)


def serialize_aoa_instance(arcs: tuple[AoaArc, ...]) -> str:
    """Inverse of parse_aoa_instance (round-trips structurally)."""
    payload = {
        "format": AOA_FORMAT,
        "arcs": [
            {
                "id": a.activity_id,
                "start": a.start_node,
                "end": a.end_node,
                "duration": a.duration,
                "demand": a.demand,
            }
            for a in arcs
        ],
    }
    return json.dumps(payload, indent=2)


def _load_json(document: str) -> dict:
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed document: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("malformed document: top level must be an object")
    return data


def _as_int(value, label: str) -> int:
    if isinstance(value, bool):
        raise InstanceError(f"{label}: expected integer, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InstanceError(f"{label}: expected integer, got {value!r}")


def _int_field(record: dict, key: str, default: int | None = None) -> int:
    if not isinstance(record, dict):
        raise InstanceError(f"expected an object with field {key!r}, got {record!r}")
    if key not in record:
        if default is not None:
            return default
        raise InstanceError(f"missing required field {key!r} in {record!r}")
    return _as_int(record[key], key)
