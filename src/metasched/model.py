"""Domain types for project instances: activities, precedence networks, and
time-cost trade-off data, plus parsing and validation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat

AOA_FORMAT = "aoa-v1"
TCTP_FORMAT = "tctp-v1"
# JSON value types admitted by each name in a field annotation.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None), "list": list, "list[int]": list}
# The keys of an instance record, each with the annotation its value must meet.
_ARC_FIELDS = dict.fromkeys(("id", "start", "end", "duration", "demand"), "int")
_ACTIVITY_FIELDS = {"id": "int", "depends": "list[int]", "options": "list"}
_OPTION_FIELDS = {"duration": "int", "cost": "int"}


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
class ProjectNetwork:
    """Activities plus an acyclic predecessor relation over their ids.

    Instances are immutable after construction; `predecessors` maps every
    activity id to a (possibly empty) frozenset of activity ids. Construction
    does not validate: the first use of `compiled` raises `InstanceError` on a
    duplicate id, a reference to an unknown activity or a cycle. A network
    loaded from columns (`derive_precedence_from_nodes`) starts from its
    compiled view, and builds `activities` and `predecessors` from it when
    they are first read.
    """

    activities: tuple[Activity, ...]
    predecessors: dict[int, frozenset[int]]

    def __getattr__(self, name: str):
        # Reached only when `name` is not in the instance dict: for the two
        # fields, only on a network loaded from columns.
        view = self.__dict__.get("compiled")
        if view is None or name not in ("activities", "predecessors"):
            raise AttributeError(name)
        ids = view.ids
        if name == "activities":
            value = tuple(map(Activity, ids, view.durations, view.demands))
        else:
            value = {aid: frozenset(map(ids.__getitem__, ps)) for aid, ps in zip(ids, view.preds)}
        self.__dict__[name] = value
        return value

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.activities)

    @cached_property
    def compiled(self) -> CompiledNetwork:
        """The dense-index view every graph walk reads, built on first use.

        Raises `InstanceError` on a duplicate id, a reference to an unknown
        activity, or a cycle.
        """
        ids = self.ids
        index = _index(ids)
        position, listed = index.__getitem__, self.predecessors.get
        preds = []
        try:
            for aid in ids:
                preds.append(tuple(sorted(map(position, listed(aid, ())))))
        except KeyError as exc:
            raise InstanceError(
                f"activity {aid} depends on nonexistent activity {exc.args[0]}"
            ) from None
        durations = tuple(a.duration for a in self.activities)
        return _view(ids, index, tuple(preds), durations, tuple(a.resource_demand for a in self.activities))

    def topological_order(self) -> tuple[int, ...]:
        """A topological order of the activity ids, fixed for a given
        network: the compiled view's `order`."""
        return tuple(map(self.compiled.ids.__getitem__, self.compiled.order))


@dataclass(frozen=True)
class CompiledNetwork:
    """Dense-index view of a `ProjectNetwork`: activity `ids[i]` is index i,
    in the network's activity order, and every list below is indexed by i.

    `order` is a topological order of the indices, fixed for a given input:
    the walk of Kahn's source elimination. `preds`/`succs` hold index tuples
    in ascending index order, `durations` the activities' own durations and
    `demands` their resource demands.
    """

    ids: tuple[int, ...]
    index: dict[int, int]
    order: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    durations: tuple[int, ...]
    demands: tuple[int, ...]


def _index(ids: tuple[int, ...]) -> dict[int, int]:
    """Each id's position in `ids`; a repeated id raises `InstanceError`."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) < len(ids):
        seen = set()
        for aid in ids:
            if aid in seen:
                raise InstanceError(f"duplicate activity id {aid}")
            seen.add(aid)
    return index


def _view(ids: tuple[int, ...], index: dict[int, int], preds, durations, demands) -> CompiledNetwork:
    """The view over `preds`, each an ascending index tuple. `succs` is
    derived from them, and `order` is Kahn's source elimination in O(n + e)
    as it walks: the sources in index order, then first in, first out.

    A cycle raises `InstanceError` naming every activity the elimination
    could not reach.
    """
    succs: list[list[int]] = [[] for _ in ids]
    for i, ps in enumerate(preds):
        for p in ps:
            succs[p].append(i)
    indegree = list(map(len, preds))
    order = [i for i, deg in enumerate(indegree) if not deg]
    for i in order:  # grows while it is walked: a FIFO queue
        for s in succs[i]:
            indegree[s] -= 1
            if not indegree[s]:
                order.append(s)
    if len(order) < len(ids):
        stuck = sorted(ids[i] for i, deg in enumerate(indegree) if deg)
        raise InstanceError(f"cycle among activities {stuck}")
    return CompiledNetwork(ids, index, tuple(order), preds, tuple(map(tuple, succs)), durations, demands)


def validate_network(net: ProjectNetwork) -> list[str]:
    """The first violation of a network's structural invariants (a duplicate
    id, a reference to an unknown activity, a cycle) that `compiled` raises,
    as a one-entry list; empty when there is none."""
    try:
        net.compiled
    except InstanceError as exc:
        return [str(exc)]
    return []


def derive_precedence_from_nodes(columns: tuple[tuple[int, ...], ...]) -> ProjectNetwork:
    """Build the precedence network implied by shared event nodes, from the
    (ids, start nodes, end nodes, durations, demands) columns that
    `parse_aoa_instance` returns.

    Activity j is a successor of activity i iff j starts at the node i ends
    at. The column order is the activity order. The network holds only its
    compiled view; a duplicate id or a cycle the node structure induced
    raises `InstanceError`.
    """
    ids, starts, ends, durations, demands = columns
    ending: dict[int, list[int]] = {}
    for i, end in enumerate(ends):
        ending.setdefault(end, []).append(i)
    # One index tuple per event node, shared by every arc that starts there,
    # and ascending because the arcs were taken in order.
    into = {node: tuple(arcs) for node, arcs in ending.items()}
    view = _view(ids, _index(ids), tuple(map(into.get, starts, repeat(()))), durations, demands)
    net = object.__new__(ProjectNetwork)
    net.__dict__.update(ids=ids, compiled=view)
    return net


def induced_subnetwork(net: ProjectNetwork, keep: range | set[int] | frozenset[int]) -> ProjectNetwork:
    """Restrict a network to a subset of its activity ids, dropping outside
    edges; an id the network does not hold raises `InstanceError`. A `range`
    is never expanded, so the check costs no more for a wide one."""
    activities = tuple(a for a in net.activities if a.id in keep)
    unknown = len(keep) - len(activities)
    if unknown:
        held = frozenset(net.ids)
        ascending = keep if isinstance(keep, range) else sorted(keep)
        first = list(islice((i for i in ascending if i not in held), 10))
        more = f" and {unknown - 10} more" if unknown > 10 else ""
        raise InstanceError(f"activities {first}{more} are not in the network")
    kept = frozenset(a.id for a in activities)
    predecessors = {
        a.id: frozenset(net.predecessors.get(a.id, frozenset()) & kept) for a in activities
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


def parse_aoa_instance(document: str) -> tuple[tuple[int, ...], ...]:
    """Parse an activity-on-arrow instance document into its (ids, start
    nodes, end nodes, durations, demands) columns, record order preserved."""
    ids, starts, ends, durations, demands = columns = ([], [], [], [], [])
    for i, rec in enumerate(_records(load_json(document), AOA_FORMAT, "arcs")):
        exact = type(rec) is dict and len(rec) == 4 + ("demand" in rec)  # the common record: its fields, exact ints
        if exact:
            aid, start, end = rec.get("id"), rec.get("start"), rec.get("end")
            duration, demand = rec.get("duration"), rec.get("demand", 1)
            exact = type(aid) is type(start) is type(end) is type(duration) is type(demand) is int
        if not exact:  # JSON has no other ints, so the checker refuses it and names the first bad key
            checked(f"arcs[{i}]", rec, _ARC_FIELDS, required=("id", "start", "end", "duration"))
        if aid < 1 or duration < 0 or demand < 0 or start == end:
            Activity(aid, duration, demand)  # raises on the first of its own faults
            raise InstanceError(f"activity {aid}: self-loop at node {start}")
        ids.append(aid)
        starts.append(start)
        ends.append(end)
        durations.append(duration)
        demands.append(demand)
    return tuple(map(tuple, columns))


def parse_tctp_instance(document: str | dict, indirect_cost_override: int | None = None) -> TctpInstance:
    """Parse a time-cost trade-off instance document, given as JSON text or
    as its already decoded top-level object.

    The daily indirect cost may come from the file or from
    `indirect_cost_override` (which wins when both are present); it is an
    error if neither supplies it.
    """
    data = document if isinstance(document, dict) else load_json(document)
    records = _records(data, TCTP_FORMAT, "activities")
    if indirect_cost_override is not None:
        indirect = indirect_cost_override
    elif "indirect_cost_per_day" in data:
        indirect = data["indirect_cost_per_day"]
        if not admits(indirect, int):
            raise InstanceError(f"'indirect_cost_per_day' must be int, got {indirect!r}")
    else:
        raise InstanceError("indirect cost required (file field or override)")

    activities = []
    predecessors: dict[int, frozenset[int]] = {}
    options: dict[int, tuple[ActivityOption, ...]] = {}
    for i, rec in enumerate(records):
        label = f"activities[{i}]"
        checked(label, rec, _ACTIVITY_FIELDS, required=("id", "options"))
        aid, deps, opts = rec["id"], rec.get("depends", []), rec["options"]
        if not opts:
            raise InstanceError(f"activity {aid} has no options")
        for j, o in enumerate(opts):
            checked(f"{label}.options[{j}]", o, _OPTION_FIELDS, required=("duration", "cost"))
        parsed = tuple(ActivityOption(duration=o["duration"], direct_cost=o["cost"]) for o in opts)
        # Network durations default to the first option; evaluation always
        # substitutes the chosen option's duration.
        activities.append(Activity(id=aid, duration=parsed[0].duration))
        predecessors[aid] = frozenset(deps)
        options[aid] = parsed

    net = ProjectNetwork(activities=tuple(activities), predecessors=predecessors)
    net.compiled  # raises on a duplicate id, a dangling reference or a cycle
    return TctpInstance(network=net, options=options, indirect_cost_per_day=indirect)


def load_json(document: str, label: str = "malformed document") -> dict:
    """The top-level object of the JSON text `document`; text that is not JSON
    or holds no object raises `InstanceError`, its message led by `label`."""
    try:
        data = json.loads(document)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise InstanceError(f"{label}: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError(f"{label}: top level must be an object")
    return data


def checked(
    label: str, value, annotations: dict[str, str], noun: str = "keys", required: tuple[str, ...] = ()
) -> dict:
    """`value`, when it is a JSON object that holds every key in `required`,
    whose every key `annotations` names and whose every value has a type the
    key's annotation, such as `float | None` or `list[int]`, admits ("" admits
    any value); else `InstanceError`, its message led by `label`."""
    if not isinstance(value, dict):
        raise InstanceError(f"{label} must be an object, got {value!r}")
    unknown = sorted(value.keys() - annotations.keys())
    if unknown:
        raise InstanceError(f"unknown {label} {noun} {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise InstanceError(f"{label} lacks {missing}")
    for key, item in value.items():
        kinds = annotations[key]
        if kinds and not admits(item, *(_FIELD_TYPES[name] for name in kinds.split(" | "))) or (
            kinds == "list[int]" and not all(admits(x, int) for x in item)
        ):
            raise InstanceError(f"{label} {key!r} must be {kinds}, got {item!r}")
    return value


def admits(value, *types) -> bool:
    """Whether JSON `value` has one of `types`; bool, a subclass of int, never does."""
    return isinstance(value, types) and not isinstance(value, bool)


def _records(data: dict, format: str, key: str) -> list:
    """The record list under `key` of a `format` document; a wrong format
    tag, or no records, is refused."""
    if data.get("format") != format:
        raise InstanceError(f"expected format {format!r}, got {data.get('format')!r}")
    records = data.get(key)
    if not isinstance(records, list) or not records:
        raise InstanceError("empty instance")
    return records
