import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.instances import read_bundled
from metasched.model import (
    AOA_FORMAT,
    Activity,
    ActivityOption,
    InstanceError,
    ProjectNetwork,
    TctpInstance,
    derive_precedence_from_nodes,
    induced_subnetwork,
    parse_aoa_instance,
    checked,
    parse_tctp_instance,
    validate_network,
)

TABLE1_TEXT = read_bundled("table1")
TABLE2_TEXT = read_bundled("table2")


class TestDerivePrecedence:
    def test_table1_node_sharing(self):
        net = derive_precedence_from_nodes(parse_aoa_instance(TABLE1_TEXT))
        assert net.predecessors[14] == {2, 5, 12}
        assert net.predecessors[1] == frozenset()
        assert net.predecessors[17] == {3, 8, 10}

    def test_single_arc(self):
        net = derive_precedence_from_nodes(((Activity(1, 5), 1, 2),))
        assert net.ids == (1,)
        assert net.predecessors[1] == frozenset()

    def test_order_independent(self):
        arcs = parse_aoa_instance(TABLE1_TEXT)
        rng = random.Random(0)
        for _ in range(10):
            shuffled = list(arcs)
            rng.shuffle(shuffled)
            assert derive_precedence_from_nodes(tuple(shuffled)).predecessors == (
                derive_precedence_from_nodes(arcs).predecessors
            )

    def test_duplicate_id_rejected(self):
        arcs = ((Activity(1, 5), 0, 1), (Activity(1, 5), 1, 2))
        with pytest.raises(InstanceError, match="duplicate"):
            derive_precedence_from_nodes(arcs)

    def test_cyclic_node_structure_rejected(self):
        arcs = ((Activity(1, 5), 1, 2), (Activity(2, 5), 2, 1))
        with pytest.raises(InstanceError, match="cycle"):
            derive_precedence_from_nodes(arcs)


class TestParseAoa:
    def test_table1_arcs(self):
        arcs = parse_aoa_instance(TABLE1_TEXT)
        assert len(arcs) == 17
        activity, start, end = arcs[0]
        assert (activity.id, start, end, activity.duration) == (1, 0, 2, 20)

    def test_empty_instance(self):
        with pytest.raises(InstanceError, match="empty instance"):
            parse_aoa_instance('{"format": "aoa-v1", "arcs": []}')

    def test_negative_duration_names_activity(self):
        doc = '{"format": "aoa-v1", "arcs": [{"id": 3, "start": 0, "end": 1, "duration": -5}]}'
        with pytest.raises(InstanceError, match="3"):
            parse_aoa_instance(doc)

    def test_wrong_format_tag(self):
        with pytest.raises(InstanceError, match="aoa-v1"):
            parse_aoa_instance('{"format": "nope", "arcs": [{}]}')

    def test_demand_defaults_to_one(self):
        text = '{"format": "aoa-v1", "arcs": [{"id": 1, "start": 0, "end": 1, "duration": 2}]}'
        assert parse_aoa_instance(text)[0][0].resource_demand == 1
        with pytest.raises(InstanceError) as exc:  # an integral float is not an integer
            parse_aoa_instance(text.replace('"id": 1', '"id": 1.0'))
        assert str(exc.value) == "arcs[0] 'id' must be int, got 1.0"

    @pytest.mark.parametrize("duration", [0, 3])
    def test_self_loop_rejected_at_any_duration(self, duration):
        arcs = [
            {"id": 1, "start": 1, "end": 2, "duration": 4},
            {"id": 2, "start": 2, "end": 2, "duration": duration},
            {"id": 3, "start": 2, "end": 3, "duration": 5},
        ]
        with pytest.raises(InstanceError) as exc:
            parse_aoa_instance(json.dumps({"format": AOA_FORMAT, "arcs": arcs}))
        assert str(exc.value) == "activity 2: self-loop at node 2"


    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"duration": "5"}, "arcs[1] 'duration' must be int, got '5'"),
            ({"start": True}, "arcs[1] 'start' must be int, got True"),
            ({"demand": 2.0}, "arcs[1] 'demand' must be int, got 2.0"),
            ({"dmand": 5}, "unknown arcs[1] keys ['dmand']"),
            ({"id": 0}, "activity id must be positive, got 0"),
            ({"duration": -1}, "activity 2: negative duration -1"),
            ({"demand": -1}, "activity 2: negative demand -1"),
            ({"end": 2}, "activity 2: self-loop at node 2"),
            ({"id": 1}, "duplicate activity id 1"),
            ({"end": 1}, "cycle among activities [1, 2]"),
            # Two faults in one record: the activity's own check comes first.
            ({"id": 0, "duration": -1}, "activity id must be positive, got 0"),
        ],
        ids=[
            "field-type", "bool", "integral-float", "misspelt-key", "id", "duration", "demand", "self-loop", "duplicate",
            "cycle", "id-and-duration",
        ],
    )
    def test_fault_message(self, fault, message):
        arcs = [
            {"id": 1, "start": 1, "end": 2, "duration": 4},
            {"id": 2, "start": 2, "end": 3, "duration": 5},
            {"id": 3, "start": 3, "end": 4, "duration": 6},
        ]
        arcs[1].update(fault)
        with pytest.raises(InstanceError) as exc:
            derive_precedence_from_nodes(parse_aoa_instance(json.dumps({"format": AOA_FORMAT, "arcs": arcs})))
        assert str(exc.value) == message


def _reference_arcs(records: list) -> tuple[tuple[Activity, int, int], ...]:
    """The aoa-v1 record loop without the exact-int fast path: every record
    read through the checker, then the activity and the self-loop check."""
    arcs = []
    for i, rec in enumerate(records):
        checked(f"arcs[{i}]", rec, dict.fromkeys(ARC_KEYS, "int"), required=ARC_KEYS[:4])
        activity = Activity(rec["id"], rec["duration"], rec.get("demand", 1))
        if rec["start"] == rec["end"]:
            raise InstanceError(f"activity {rec['id']}: self-loop at node {rec['start']}")
        arcs.append((activity, rec["start"], rec["end"]))
    return tuple(arcs)


FIELD_VALUES = st.one_of(
    st.integers(-2, 6),
    st.integers(-2, 6).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
ARC_KEYS = ("id", "start", "end", "duration", "demand")
# Keys the aoa-v1 format does not define.
UNKNOWN_KEYS = ("dmand", "name", "")


@st.composite
def arc_records(draw):
    """Exact-int records with up to two fields spoilt (dropped, or set to any
    other value) and now and then an unknown key added, the boundary between
    the two parse paths; now and then a record that is not an object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(FIELD_VALUES | st.lists(FIELD_VALUES, max_size=2))
    record = {key: draw(st.integers(0, 6)) for key in ARC_KEYS}
    for key in draw(st.lists(st.sampled_from(ARC_KEYS), max_size=2, unique=True)):
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(FIELD_VALUES)
    if draw(st.integers(0, 4)) == 0:
        record[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(FIELD_VALUES)
    return record


def _outcome(parse, data):
    try:
        return parse(data)
    except InstanceError as exc:
        return f"InstanceError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.lists(arc_records(), min_size=1, max_size=3))
def test_exact_int_parse_equals_field_by_field_parse(records):
    document = json.dumps({"format": AOA_FORMAT, "arcs": records})
    decoded = json.loads(document)["arcs"]  # NaN and the floats as the parser sees them
    assert _outcome(parse_aoa_instance, document) == _outcome(_reference_arcs, decoded)


class TestParseTctp:
    def test_activity4_options(self):
        inst = parse_tctp_instance(TABLE2_TEXT, indirect_cost_override=0)
        opts = [(o.duration, o.direct_cost) for o in inst.options[4]]
        assert opts == [(12, 45000), (16, 35000), (20, 30000), (20, 30000), (20, 30000)]

    def test_padded_duplicate_options_preserved(self):
        inst = parse_tctp_instance(TABLE2_TEXT, indirect_cost_override=0)
        assert [(o.duration, o.direct_cost) for o in inst.options[3]][2:] == [(33, 3200)] * 3

    def test_dependencies(self):
        inst = parse_tctp_instance(TABLE2_TEXT, indirect_cost_override=0)
        assert inst.network.predecessors[18] == {16, 17}
        assert len(inst.network.ids) == 18

    def test_indirect_cost_required(self):
        with pytest.raises(InstanceError, match="indirect cost required"):
            parse_tctp_instance(TABLE2_TEXT)

    def test_unknown_dependency(self):
        doc = (
            '{"format": "tctp-v1", "indirect_cost_per_day": 0, "activities": '
            '[{"id": 1, "depends": [99], "options": [{"duration": 1, "cost": 1}]}]}'
        )
        with pytest.raises(InstanceError, match="99"):
            parse_tctp_instance(doc)

    @pytest.mark.parametrize(
        "depends, ids, message",
        [
            ([[2], [1]], [1, 2], r"cycle among activities \[1, 2\]"),
            ([[], []], [1, 1], "duplicate activity id 1"),
        ],
        ids=["cycle", "duplicate-id"],
    )
    def test_network_checked_at_load(self, depends, ids, message):
        activities = [
            {"id": aid, "depends": deps, "options": [{"duration": 1, "cost": 1}]}
            for aid, deps in zip(ids, depends)
        ]
        doc = json.dumps({"format": "tctp-v1", "indirect_cost_per_day": 0, "activities": activities})
        with pytest.raises(InstanceError, match=message):
            parse_tctp_instance(doc)


    @pytest.mark.parametrize(
        "options, message",
        [
            ({1: (), 2: (ActivityOption(1, 1),)}, "activity 1 has no options"),
            ({1: (ActivityOption(1, 1),), 2: (ActivityOption(1, 1),), 3: (ActivityOption(1, 1),)},
             "options do not cover exactly the network's activities"),
        ],
        ids=["empty-options", "option-outside-the-network"],
    )
    def test_instance_built_directly_checks_its_options(self, options, message):
        net = ProjectNetwork(activities=(Activity(1, 1), Activity(2, 1)), predecessors={})
        with pytest.raises(InstanceError) as exc:
            TctpInstance(network=net, options=options, indirect_cost_per_day=0)
        assert str(exc.value) == message


class TestValidateNetwork:
    def test_table1_clean(self, table1):
        assert validate_network(table1) == []

    def test_mutual_cycle(self):
        net = ProjectNetwork(
            activities=(Activity(1, 2), Activity(2, 3)),
            predecessors={1: frozenset({2}), 2: frozenset({1})},
        )
        report = validate_network(net)
        assert any("cycle" in entry and "1" in entry and "2" in entry for entry in report)

    def test_dangling_reference(self):
        net = ProjectNetwork(
            activities=(Activity(1, 2),),
            predecessors={1: frozenset({99})},
        )
        assert any("99" in entry for entry in validate_network(net))


def test_topological_order_is_acyclic_witness(table1):
    order = table1.topological_order()
    position = {aid: i for i, aid in enumerate(order)}
    for aid, preds in table1.predecessors.items():
        assert all(position[p] < position[aid] for p in preds)


def test_induced_subnetwork_drops_outside_edges(table1):
    sub = induced_subnetwork(table1, set(range(1, 9)))
    assert set(sub.ids) == set(range(1, 9))
    assert sub.predecessors[7] == {1}
    assert sub.predecessors[8] == {1}
