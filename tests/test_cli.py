import csv
import io
import json
import math
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metasched import instances
from metasched.bench import ALGORITHMS
from metasched.cli import CONFIG_FLAGS, build_parser, main, resolve_configs
from metasched.instances import read_bundled


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """Run a command line that must end in argparse's usage error; return
    its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
ARC_KEYS = ("id", "start", "end", "duration", "demand")
# Arcs of small ints, so that many documents get past the parser to the
# network checks and to CPM, mixed with arcs of arbitrary fields and values.
INT_ARCS = st.fixed_dictionaries(
    {"id": st.integers(1, 40), "start": st.integers(0, 6), "end": st.integers(0, 6), "duration": st.integers(0, 9)},
    optional={"demand": st.integers(0, 3)},
)
ANY_ARCS = INT_ARCS | st.fixed_dictionaries({}, optional=dict.fromkeys(ARC_KEYS, JSON_VALUES)) | JSON_VALUES
AOA_DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"format": st.just("aoa-v1"), "arcs": st.lists(INT_ARCS, min_size=1, max_size=30)}),
    st.fixed_dictionaries({"format": st.just("aoa-v1"), "arcs": st.lists(ANY_ARCS, max_size=30)}),
    st.fixed_dictionaries({}, optional={"format": JSON_VALUES, "arcs": JSON_VALUES, "name": JSON_VALUES}),
    JSON_VALUES,
)
# What SA reports for a cost change no float can hold; the cost's digits are
# not printed.
SA_OVERFLOW = "sa: a cost change is beyond the float range, so no temperature can divide it"
# Integers past the float limits: exact only as ints above 2**53, and no
# float at all above 10**308.
BIG_INTS = st.integers(2**53, 2**54) | st.integers(10**308, 10**309)
TCTP_OPTION = st.fixed_dictionaries({"duration": st.integers(1, 30) | BIG_INTS, "cost": st.integers(0, 30) | BIG_INTS})


@st.composite
def tctp_documents(draw):
    """tctp-v1 documents of at most 6 activities with at most 3 options each.
    Most are valid, with costs and durations past the float limits; some
    have a cycle, a field or the indirect cost replaced by an arbitrary JSON
    value, or no indirect cost, and some are arbitrary JSON values."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    n = draw(st.integers(1, 6))
    activities = []
    for aid in range(1, n + 1):
        earlier = st.lists(st.integers(1, aid - 1), max_size=2) if aid > 1 else st.just([])
        record = {"id": aid, "depends": draw(earlier), "options": draw(st.lists(TCTP_OPTION, min_size=1, max_size=3))}
        if draw(st.integers(0, 9)) == 0:
            record[draw(st.sampled_from(["id", "depends", "options"]))] = draw(JSON_VALUES)
        activities.append(record)
    if draw(st.integers(0, 9)) == 0:
        activities[0]["depends"] = [n]  # a cycle through the last activity
    document = {"format": "tctp-v1", "activities": activities}
    if draw(st.integers(0, 4)):
        document["indirect_cost_per_day"] = draw(st.integers(0, 30) | BIG_INTS | JSON_VALUES)
    return document


# Spec values for `bench_specs`: every run small and few. `max_evaluations`
# stays within 1..30 or is ill-typed, never absent (the default is 20,000),
# and `runs` stays at most 3; JSON_VALUES lists hold at most 3 seeds.
NOT_INTS = JSON_VALUES.filter(lambda value: type(value) is not int)
BOUNDED = {"max_evaluations": st.integers(1, 30) | NOT_INTS, "runs": st.integers(-1, 3) | NOT_INTS}


@st.composite
def bench_specs(draw):
    """Bench specs grown from a small valid one, its seeds given as a list
    or as `base_seed`/`runs`: in its top level, its `problem` and its
    `configs` sections, keys are dropped, values are replaced by arbitrary
    JSON values and unknown keys are added."""
    problem = draw(st.sampled_from([
        {"kind": "rcpsp", "instance": "table1", "capacity": 7},
        {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
    ]))
    sections = {"sa": {"steps_per_temperature": 5}, "ts": {"tabu_tenure": 3}, "ga": {"population_size": 6}}
    # One source of seeds, now and then both (refused).
    seed_sources = [{"seeds": [1, 2]}, {"base_seed": 1, "runs": 2}]
    seeds = draw(st.sampled_from(seed_sources)) if draw(st.integers(0, 9)) else {**seed_sources[0], **seed_sources[1]}
    spec = {
        "problem": dict(problem), **seeds, "max_evaluations": 20, "algorithms": ["sa", "ts", "ga"], "configs": sections,
    }
    for record in (spec, spec["problem"], *sections.values()):
        for key in sorted(record):
            action = draw(st.integers(0, 23))  # rare, so that many specs still run
            if action == 0 and key not in BOUNDED:
                del record[key]
            elif action == 1:
                record[key] = draw(BOUNDED.get(key, JSON_VALUES))
        if draw(st.integers(0, 9)) == 0:
            record[draw(st.text(max_size=4).filter(lambda key: key not in record))] = draw(JSON_VALUES)
    return spec


def _tctp(fault: dict | None = None, option: dict | None = None, indirect=1) -> dict:
    """A tctp-v1 document of two activities, with `fault` updating the
    second one's record and `option` that record's first option."""
    second = {"id": 2, "options": [{"duration": 2, "cost": 5, **(option or {})}]}
    activities = [{"id": 1, "options": [{"duration": 1, "cost": 3}]}, {**second, **(fault or {})}]
    return {"format": "tctp-v1", "indirect_cost_per_day": indirect, "activities": activities}


class TestCpmCommand:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "cpm", "--instance", "table1")
        assert code == 0
        assert "makespan: 126" in out
        assert "critical: 4, 10, 17" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "cpm", "--instance", "table1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["makespan"] == 126
        assert payload["critical"] == [4, 10, 17]
        assert len(payload["rows"]) == 17

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "cpm", "--instance", "table1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "activity,es,ef,ls,lf,tf"

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "cpm", "--instance", "no-such-file.json")
        assert code == 1
        assert "error:" in err

    def test_zero_duration_self_loop_is_domain_error(self, capsys, tmp_path):
        arcs = [
            {"id": 1, "start": 1, "end": 2, "duration": 4},
            {"id": 2, "start": 2, "end": 2, "duration": 0},
            {"id": 3, "start": 2, "end": 3, "duration": 5},
        ]
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"format": "aoa-v1", "arcs": arcs}), encoding="utf-8")
        code, out, err = run_cli(capsys, "cpm", "--instance", str(path))
        assert (code, out, err) == (1, "", "error: activity 2: self-loop at node 2\n")

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(AOA_DOCUMENTS)
    def test_no_document_prints_a_traceback(self, capsys, tmp_path, document):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, _, err = run_cli(capsys, "cpm", "--instance", str(path))
        assert code in (0, 1)
        assert "Traceback" not in err


class TestRcpspCommand:
    def test_fixed_list_decode(self, capsys):
        order = "4,10,1,8,3,17,7,9,11,5,6,2,12,14,16,13,15"
        code, out, _ = run_cli(
            capsys, "rcpsp", "--instance", "table1", "--capacity", "7", "--list", order
        )
        assert code == 0
        assert "makespan: 151" in out

    def test_long_duration_decodes_fast(self, capsys, tmp_path):
        # The profile behind `peak usage` grows with the number of activities,
        # not with their durations: one usage entry per time unit would need
        # gigabytes here.
        arcs = [
            {"id": 1, "start": 1, "end": 3, "duration": 10**9, "demand": 2},
            {"id": 2, "start": 1, "end": 2, "duration": 3, "demand": 1},
            {"id": 3, "start": 2, "end": 3, "duration": 4, "demand": 2},
        ]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"format": "aoa-v1", "arcs": arcs}), encoding="utf-8")
        started = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "rcpsp", "--instance", str(path), "--capacity", "4", "--list", "1,2,3"
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert "makespan: 1000000000" in out
        assert "peak usage: 4" in out
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"dmand": 5}, "unknown arcs[1] keys ['dmand']"),
            *(
                ({key: 2.0}, f"arcs[1] {key!r} must be int, got 2.0")
                for key in ("id", "start", "end", "duration", "demand")
            ),
        ],
        ids=["misspelt-demand", "float-id", "float-start", "float-end", "float-duration", "float-demand"],
    )
    def test_misspelt_or_float_arc_field_is_domain_error(self, capsys, tmp_path, fault, message):
        arcs = [
            {"id": 1, "start": 0, "end": 1, "duration": 2},
            {"id": 2, "start": 1, "end": 2, "duration": 3},
            {"id": 3, "start": 2, "end": 3, "duration": 4},
        ]
        arcs[1].update(fault)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"format": "aoa-v1", "arcs": arcs}), encoding="utf-8")
        code, out, err = run_cli(capsys, "rcpsp", "--instance", str(path), "--capacity", "3", "--list", "1,2,3")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_search_run_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rcpsp",
            "--instance", "table1",
            "--capacity", "17",
            "--algo", "ts",
            "--seed", "1",
            "--max-evals", "300",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["makespan"] == 126  # capacity 17 is non-binding
        assert len(payload["start_times"]) == 17

    def test_seed_required_without_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rcpsp", "--instance", "table1", "--capacity", "7"])
        assert exc.value.code == 2

    def test_list_refuses_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        err = usage_error(
            capsys, "rcpsp", "--instance", "table1", "--capacity", "7",
            "--list", "4,10,1,8,3,17,7,9,11,5,6,2,12,14,16,13,15", "--trace", str(trace),
        )
        assert "--trace needs a search run" in err
        assert not trace.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "1"), ("--algo", "ga"), ("--max-evals", "5"), ("--config", "absent.json")]
        + [(flag, "full" if kind is not int and kind is not float else "2") for flag, _, _, kind, _ in CONFIG_FLAGS],
    )
    def test_list_refuses_each_search_flag(self, capsys, flag, value):
        err = usage_error(capsys, *RCPSP_TABLE1, "--list", TABLE1_LIST, flag, value)
        assert f"error: {flag} needs a search run (omit it with --list)" in err

    @pytest.mark.parametrize("text", ["", "4,10,1,", "1,x", ","])
    @pytest.mark.parametrize("search_flags", [(), ("--seed", "1", "--max-evals", "50")], ids=["decode", "search"])
    def test_list_that_is_not_ids_is_usage_error(self, capsys, text, search_flags):
        """A given `--list` is a list, even an empty one: it is never taken
        for no list, and a list that is not comma-separated ids is named."""
        err = usage_error(capsys, *RCPSP_TABLE1, "--list", text, *search_flags)
        assert f"error: argument --list: expected comma-separated activity ids, got {text!r}" in err

    def test_list_names_every_search_flag_and_never_reads_the_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text("not JSON", encoding="utf-8")
        monkeypatch.setenv("METASCHED_CONFIG", str(config))
        err = usage_error(
            capsys, *RCPSP_TABLE1, "--list", TABLE1_LIST,
            "--sa-cooling", "0.5", "--config", str(config), "--seed", "1", "--algo", "sa", "--max-evals", "5",
        )
        assert "error: --seed, --algo, --max-evals, --config, --sa-cooling need a search run (omit them with --list)" in err
        assert "malformed config" not in err
        # Without the flags, --list decodes and the config file in the
        # environment is not read either.
        code, out, err = run_cli(capsys, *RCPSP_TABLE1, "--list", TABLE1_LIST, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["list"] == [int(x) for x in TABLE1_LIST.split(",")]

    def test_zero_capacity_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "rcpsp", "--instance", "table1", "--capacity", "0",
            "--list", "4,10,1,8,3,17,7,9,11,5,6,2,12,14,16,13,15",
        )
        assert code == 1
        assert "capacity" in err

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "rcpsp", "--instance", "table1", "--capacity", "7",
            "--algo", "sa", "--seed", "2", "--max-evals", "200", "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "eval,best_fitness"
        assert len(lines) > 1

    def test_non_integer_ts_sample_is_usage_error(self, capsys):
        err = usage_error(
            capsys, "rcpsp", "--instance", "table1", "--capacity", "7", "--seed", "1",
            "--ts-sample", "abc",
        )
        assert "argument --ts-sample" in err

    def test_zero_max_evals_is_usage_error(self, capsys):
        err = usage_error(
            capsys, "rcpsp", "--instance", "table1", "--capacity", "7", "--seed", "1",
            "--max-evals", "0",
        )
        assert "argument --max-evals" in err
        assert "population_size" not in err


RCPSP_TABLE1 = ("rcpsp", "--instance", "table1", "--capacity", "7")
TABLE1_LIST = "4,10,1,8,3,17,7,9,11,5,6,2,12,14,16,13,15"


@pytest.mark.parametrize(
    "argv",
    [
        ("cpm", "--instance", "table1"),
        (*RCPSP_TABLE1, "--list", "4,10,1,8,3,17,7,9,11,5,6,2,12,14,16,13,15"),
        *((*RCPSP_TABLE1, "--algo", algo, "--seed", "3", "--max-evals", "300") for algo in ALGORITHMS),
    ],
    ids=["cpm", "rcpsp-list", *(f"rcpsp-{algo}" for algo in ALGORITHMS)],
)
def test_csv_and_json_of_one_run_agree(capsys, argv):
    """The CSV of a `cpm` or `rcpsp` run is one table that carries every
    value its JSON gives: the `cpm` makespan is the largest `ef` and its
    critical set the rows with `tf` 0; each `rcpsp` row holds its start,
    whether it is critical, and the run's makespan and peak usage."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    if argv[0] == "cpm":
        assert max(int(row["ef"]) for row in rows) == payload["makespan"]
        assert [int(row["activity"]) for row in rows if row["tf"] == "0"] == payload["critical"]
    else:
        assert {row["activity"]: int(row["start"]) for row in rows} == payload["start_times"]
        assert {row["critical"] for row in rows} <= {"0", "1"}
        assert [int(row["activity"]) for row in rows if row["critical"] == "1"] == payload["critical"]
        assert {(row["makespan"], row["peak_usage"]) for row in rows} == {
            (str(payload["makespan"]), str(payload["peak_usage"]))
        }


class TestTctpCommand:
    def test_run_with_indirect_cost(self, capsys):
        code, out, _ = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "ga", "--seed", "3", "--max-evals", "500", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_cost"] == payload["duration"] * 230 + payload["direct_cost"]
        assert len(payload["modes"]) == 18

    def test_indirect_cost_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tctp", "--instance", "table2", "--seed", "1"])
        assert exc.value.code == 2

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tctp", "--instance", "table2", "--indirect-cost", "230"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "document, message",
        [
            (5, "top level must be an object"),
            ({"format": "tctp-v1", "indirect_cost_per_day": 1, "activities": [5]}, "got 5"),
            (
                {
                    "format": "tctp-v1",
                    "indirect_cost_per_day": 1,
                    "activities": [{"id": 1, "options": [7]}],
                },
                "got 7",
            ),
            (
                {"format": "tctp-v1", "indirect_cost_per_day": 1, "activities": [{"id": 1, "options": [
                    {"duration": 0, "cost": 5}]}]},
                "option duration must be >= 1, got 0",
            ),
            (
                {"format": "tctp-v1", "indirect_cost_per_day": 1, "activities": [{"id": 1, "options": [
                    {"duration": 2, "cost": -1}]}]},
                "negative option cost -1",
            ),
            (
                {"format": "tctp-v1", "indirect_cost_per_day": 1, "activities": [{"id": 1, "options": [
                    {"duration": d, "cost": 10 - d} for d in range(1, 7)]}]},
                "activity 1 has more than 5 options",
            ),
            ('{"format": "tctp-v1",', "malformed document:"),
            ('{"indirect_cost_per_day": 1' + "0" * 5000 + "}", "malformed document:"),
            (
                {"format": "tctp-v1", "indirect_cost_per_day": -1, "activities": [{"id": 1, "options": [
                    {"duration": 2, "cost": 5}]}]},
                "negative indirect cost",
            ),
            (_tctp({"depend": [1]}), "error: unknown activities[1] keys ['depend']"),
            (_tctp(option={"costs": 5}), "error: unknown activities[1].options[0] keys ['costs']"),
            (_tctp(option={"cost": None}), "error: activities[1].options[0] 'cost' must be int, got None"),
            (_tctp({"options": [{"duration": 2}]}), "error: activities[1].options[0] lacks ['cost']"),
            (_tctp({"id": 2.0}), "error: activities[1] 'id' must be int, got 2.0"),
            (_tctp({"depends": [1.0]}), "error: activities[1] 'depends' must be list[int], got [1.0]"),
            (_tctp(option={"duration": 2.0}), "error: activities[1].options[0] 'duration' must be int, got 2.0"),
            (_tctp(option={"cost": 5.0}), "error: activities[1].options[0] 'cost' must be int, got 5.0"),
            (_tctp(indirect=1.0), "error: 'indirect_cost_per_day' must be int, got 1.0"),
            (_tctp({"options": []}), "error: activity 2 has no options"),
        ],
        ids=[
            "top-level-number", "activity-not-an-object", "option-not-an-object", "zero-option-duration",
            "negative-option-cost", "six-options", "not-json", "integer-past-the-digit-limit",
            "negative-indirect-cost", "misspelt-depends", "misspelt-option-cost", "null-option-cost",
            "option-lacks-cost", "float-id", "float-dependency", "float-option-duration", "float-option-cost",
            "float-indirect-cost", "empty-options",
        ],
    )
    def test_malformed_instance_is_domain_error(self, capsys, tmp_path, document, message):
        path = tmp_path / "instance.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        code, _, err = run_cli(capsys, "tctp", "--instance", str(path), "--seed", "1")
        assert code == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_total_cost_is_exact_above_two_to_the_53(self, capsys, algo):
        indirect = 2**50 + 1
        code, out, _ = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", str(indirect),
            "--algo", algo, "--seed", "1", "--max-evals", "200", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_cost"] == payload["duration"] * indirect + payload["direct_cost"]

    def test_sa_total_cost_above_float_range_is_domain_error(self, capsys):
        # TS and GA only compare costs; SA divides a cost change by its
        # temperature, which no float can hold here.
        argv = ("tctp", "--instance", "table2", "--indirect-cost", str(10**320), "--seed", "1", "--max-evals", "200")
        code, out, err = run_cli(capsys, *argv, "--algo", "sa")
        assert (code, out, err) == (1, "", f"error: {SA_OVERFLOW}\n")
        code, out, _ = run_cli(capsys, *argv, "--algo", "ts", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_cost"] == payload["duration"] * 10**320 + payload["direct_cost"]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        tctp_documents(),
        st.sampled_from(["tctp", "oracle"]),
        st.sampled_from(sorted(ALGORITHMS)),
        st.none() | st.integers(-1, 30) | BIG_INTS,
    )
    def test_no_document_prints_a_traceback(self, capsys, tmp_path, document, command, algo, indirect):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        if command == "tctp":
            argv = ["tctp", "--instance", str(path), "--algo", algo, "--seed", "1", "--max-evals", "30", "--format", "json"]
        else:
            argv = ["oracle", "tctp", "--instance", str(path)]
        if indirect is not None:
            argv += ["--indirect-cost", str(indirect)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if command == "tctp" and code == 0:
            payload = json.loads(out)
            rate = indirect if indirect is not None else int(document["indirect_cost_per_day"])
            assert payload["total_cost"] == payload["duration"] * rate + payload["direct_cost"]

    def test_emit_front(self, capsys, tmp_path):
        front = tmp_path / "front.csv"
        code, _, _ = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "0",
            "--seed", "1", "--max-evals", "500", "--emit-front", str(front),
        )
        assert code == 0
        lines = front.read_text().splitlines()
        assert lines[0] == "duration,cost,modes"
        points = [tuple(int(x) for x in line.split(",")[:2]) for line in lines[1:]]
        assert points == sorted(points)


class TestConfigResolution:
    def test_config_file_flag(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sa": {"initial_temperature": 50.0}}))
        code, out, _ = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "sa", "--seed", "4", "--max-evals", "300",
            "--config", str(config), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["duration"] > 0

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ga": {"population_size": 10}}))
        monkeypatch.setenv("METASCHED_CONFIG", str(config))
        code, _, _ = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "ga", "--seed", "4", "--max-evals", "300",
        )
        assert code == 0

    def test_invalid_config_value_is_domain_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ga": {"tournament_size": 1}}))
        code, _, err = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "ga", "--seed", "4", "--config", str(config),
        )
        assert code == 1
        assert "tournament_size" in err

    # An int past the float range is no temperature either: the first
    # cooling step could not multiply it.
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "int-past-the-float-range"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_sa_temperature_is_domain_error(self, capsys, tmp_path, source, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sa": {"initial_temperature": value}}))
        where = ("--sa-initial-temp", str(value)) if source == "flag" else ("--config", str(config))
        code, _, err = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "sa", "--seed", "4", "--max-evals", "10", *where,
        )
        assert code == 1
        assert "initial_temperature must be positive and finite" in err

    def test_unknown_config_key_is_domain_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ga": {"bogus": 1}}))
        code, _, err = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "ga", "--seed", "4", "--config", str(config),
        )
        assert code == 1
        assert err.startswith("error:") and "bogus" in err

    def test_unknown_config_section_is_domain_error(self, capsys, tmp_path):
        # A misspelt section would otherwise be read by no algorithm.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"GA": {"population_size": 4}, "ga": {}}))
        code, _, err = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "ga", "--seed", "4", "--config", str(config),
        )
        assert code == 1
        assert err.startswith("error: unknown algorithm config sections ['GA']")

    def test_config_file_not_json_is_domain_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"ga": ')
        code, _, err = run_cli(
            capsys, "rcpsp", "--instance", "table1", "--capacity", "7", "--seed", "1", "--config", str(config)
        )
        assert code == 1
        assert err.startswith(f"error: malformed config file {str(config)!r}: ")

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                name: st.fixed_dictionaries({}, optional=dict.fromkeys((f.name for f in fields(config)), JSON_VALUES))
                | JSON_VALUES
                for name, (config, _) in ALGORITHMS.items()
            },
        )
        | JSON_VALUES
    )
    def test_no_config_file_prints_a_traceback(self, capsys, tmp_path, document):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        argv = ["rcpsp", "--instance", "table1", "--capacity", "7", "--seed", "1", "--max-evals", "20"]
        try:
            code = main([*argv, "--config", str(config)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_config_file_budget_applies_without_max_evals(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ga": {"max_evaluations": 50}}))
        tctp = ("tctp", "--instance", "table2", "--indirect-cost", "230", "--config", str(config))
        configs = resolve_configs(build_parser().parse_args(tctp))
        assert (configs["ga"].max_evaluations, configs["sa"].max_evaluations) == (50, 20_000)
        assert resolve_configs(build_parser().parse_args([*tctp, "--max-evals", "70"]))["ga"].max_evaluations == 70

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_config_field_has_a_flag(self, algorithm):
        config_type, _ = ALGORITHMS[algorithm]
        flagged = {key for _, owner, key, _, _ in CONFIG_FLAGS if owner == algorithm}
        assert {f.name for f in fields(config_type)} == flagged | {"max_evaluations"}

    def test_wrong_typed_config_value_is_domain_error(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sa": {"cooling_factor": "x"}}))
        tctp = ("tctp", "--instance", "table2", "--indirect-cost", "230", "--seed", "4")
        code, _, err = run_cli(capsys, *tctp, "--config", str(config))
        assert code == 1
        assert err.startswith("error: sa config 'cooling_factor'")
        monkeypatch.setenv("METASCHED_CONFIG", str(config))
        code, _, err = run_cli(capsys, *tctp)
        assert code == 1
        assert err.startswith("error: sa config 'cooling_factor'")
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
                    "seeds": [1],
                    "configs": {"ga": {"population_size": "5"}},
                }
            )
        )
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec), "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: ga config 'population_size'")


class TestOracleCommand:
    def test_cpm_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "cpm", "--instance", "table1")
        assert code == 0
        assert "makespan: 126" in out

    def test_rcpsp_oracle_restricted(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "rcpsp", "--instance", "table1",
            "--activities", "1-8", "--capacity", "3",
        )
        assert code == 0
        assert "optimal makespan: 129" in out

    def test_tctp_oracle_restricted(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "tctp", "--instance", "table2",
            "--activities", "1-6", "--indirect-cost", "0",
        )
        assert code == 0
        assert "36,88600" in out
        assert "minimum total cost at I=0: 63400" in out

    def test_tctp_oracle_reads_file_indirect_cost(self, capsys, tmp_path):
        document = json.loads(read_bundled("table2"))
        document["indirect_cost_per_day"] = 230
        path = tmp_path / "table2-i230.json"
        path.write_text(json.dumps(document))
        code, out, _ = run_cli(capsys, "oracle", "tctp", "--instance", str(path), "--activities", "1-6")
        assert code == 0
        assert "minimum total cost at I=230: 74680" in out
        code, out, _ = run_cli(
            capsys, "oracle", "tctp", "--instance", str(path), "--activities", "1-6", "--indirect-cost", "0"
        )
        assert "minimum total cost at I=0: 63400" in out

    def test_rcpsp_oracle_requires_capacity(self, capsys):
        err = usage_error(capsys, "oracle", "rcpsp", "--instance", "table1")
        assert "oracle rcpsp requires --capacity" in err

    def test_oversized_oracle_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "tctp", "--instance", "table2")
        assert code == 1
        assert "exceeds" in err

    def test_rcpsp_oracle_refuses_a_long_horizon(self, capsys, tmp_path):
        arcs = [
            {"id": 1, "start": 0, "end": 1, "duration": 2**63},
            {"id": 2, "start": 1, "end": 2, "duration": 1},
        ]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"format": "aoa-v1", "arcs": arcs}), encoding="utf-8")
        code, out, err = run_cli(capsys, "oracle", "rcpsp", "--instance", str(path), "--capacity", "1")
        assert (code, out) == (1, "")
        assert err == f"error: horizon {2**63 + 1} exceeds state budget 10000000\n"

    def test_capacity_below_demand_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "rcpsp", "--instance", "table1", "--activities", "1-3", "--capacity", "0",
        )
        assert code == 1
        assert err.startswith("error:") and "capacity 0" in err

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (("cpm", "--instance", "table1", "--activities", "100-101"), "[100, 101]"),
            (("tctp", "--instance", "table2", "--activities", "5,99"), "[99]"),
            (("rcpsp", "--instance", "table1", "--capacity", "7", "--activities", "100-101"), "[100, 101]"),
            (
                ("cpm", "--instance", "table1", "--activities", "1-30"),
                "[18, 19, 20, 21, 22, 23, 24, 25, 26, 27] and 3 more",
            ),
            (
                ("cpm", "--instance", "table1", "--activities", "1-1000000000"),
                "[18, 19, 20, 21, 22, 23, 24, 25, 26, 27] and 999999973 more",
            ),
        ],
        ids=["cpm", "tctp", "rcpsp", "many", "wide"],
    )
    def test_ids_outside_instance_are_domain_error(self, capsys, argv, unknown):
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: activities {unknown} are not in the network\n"

    def test_empty_activity_range_is_usage_error(self, capsys):
        err = usage_error(
            capsys, "oracle", "rcpsp", "--instance", "table1", "--capacity", "3",
            "--activities", "5-1",
        )
        assert "argument --activities" in err

    def test_uncountable_activity_range_is_usage_error(self, capsys):
        err = usage_error(capsys, "oracle", "cpm", "--instance", "table1", "--activities", f"1-{10**30}")
        assert "argument --activities" in err


class TestBenchCommand:
    def test_bench_writes_reports(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
                    "seeds": [1, 2],
                    "max_evaluations": 200,
                }
            )
        )
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec), "--out", str(out_dir))
        assert code == 0
        for name in ("report.json", "summary.csv", "front.csv"):
            assert (out_dir / name).exists()

    def test_fitness_past_the_float_range(self, capsys, tmp_path):
        # Summed fitness no float holds: the average is the exact mean rounded
        # half up, and SA, which divides a cost change, ends with exit 1.
        problem = {"kind": "tctp", "instance": "table2", "indirect_cost": 10**320}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"problem": problem, "seeds": [1, 2], "max_evaluations": 100, "algorithms": ["ts", "ga"]}))
        code, _, _ = run_cli(capsys, "bench", "--spec", str(spec), "--out", str(tmp_path / "out"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for summary in report["summaries"]:
            fitness = [r["best_fitness"] for r in report["runs"] if r["algorithm"] == summary["algorithm"]]
            assert summary["avg_fitness"] == math.floor(Fraction(sum(fitness), len(fitness)) + Fraction(1, 2))
        spec.write_text(json.dumps({"problem": problem, "seeds": [1], "max_evaluations": 100, "algorithms": ["sa"]}))
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec), "--out", str(tmp_path / "sa"))
        assert (code, out, err) == (1, "", f"error: {SA_OVERFLOW}\n")
        assert not (tmp_path / "sa").exists()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bench_specs())
    def test_no_spec_prints_a_traceback(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            code = main(["bench", "--spec", str(path), "--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"seeds": [1]}, "error: experiment spec lacks ['problem']"),
            ({"problem": {"kind": "tctp"}, "seeds": [1]}, "lacks ['instance']"),
            ({"problem": {"instance": "table2"}, "seeds": [1]}, "lacks ['kind']"),
            (
                {
                    "problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
                    "seeds": [1],
                    "configs": {"sa": {"bogus": 1}},
                },
                "unknown sa config keys ['bogus']",
            ),
            (
                {
                    "problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
                    "seeds": [1],
                    "configs": {"ts": {"record_moves": True}},
                },
                "unknown ts config keys ['record_moves']",
            ),
            (
                {
                    "problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
                    "seeds": [1],
                    "configs": {"GA": {"population_size": 4}, "hc": 5},
                },
                "unknown algorithm config sections ['GA', 'hc']",
            ),
            (
                {
                    "problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
                    "seeds": [1],
                    "max_evaluations": 30,
                    "algorithms": ["ga"],
                    "configs": {"ga": {"max_evaluations": 10}},
                },
                "'max_evaluations' is set once, at the spec's top level, not in ['ga'] configs",
            ),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, "base_seed": 1,
                 "runs": 10**12},
                "at most 10000 seeds per experiment, got 1000000000000",
            ),
            ([1, 2], "top level must be an object"),
            (
                {"problem": {"kind": "tctp", "instance": "table2"}, "seeds": 5},
                "experiment spec 'seeds' must be list[int], got 5",
            ),
            (
                {"problem": {"kind": "rcpsp", "instance": "table1", "capacity": "7"}, "seeds": [1]},
                "'capacity' must be int",
            ),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": [1]}, "seeds": [1]},
                "'indirect_cost' must be int",
            ),
            (
                {"problem": {"kind": "tctp", "instance": 5, "indirect_cost": 230}, "seeds": [1]},
                "'instance' must be str",
            ),
            (
                {
                    "problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
                    "seeds": [1],
                    "algorithms": [["sa"]],
                },
                "unknown algorithms",
            ),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, "seeds": [1],
                 "algorithms": ["sa", "ts", "sa"]},
                "repeated algorithms ['sa']",
            ),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, "seeds": [1, 2, 1]},
                "repeated seeds [1]",
            ),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, "seeds": [1],
                 "algorithms": []},
                "at least one algorithm required",
            ),
            *(
                ({"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, **fields}, message)
                for fields, message in [
                    ({"seeds": "12"}, "'seeds' must be list"),
                    ({"seeds": [1.9]}, "error: experiment spec 'seeds' must be list[int], got [1.9]"),
                    ({"seeds": [True]}, "error: experiment spec 'seeds' must be list[int], got [True]"),
                    ({"seeds": [1], "max_evaluations": "50"}, "'max_evaluations' must be int"),
                    ({"seeds": [1], "max_evaluations": 50.7}, "'max_evaluations' must be int"),
                    ({"seeds": [1], "max_evaluations": True}, "'max_evaluations' must be int"),
                    ({"base_seed": "1"}, "'base_seed' must be int"),
                    ({"base_seed": 1, "runs": 2.5}, "'runs' must be int"),
                    ({"base_seed": 1, "runs": False}, "'runs' must be int"),
                    ({"seeds": [1], "algorithms": "sa"}, "'algorithms' must be list"),
                ]
            ),
            ('{"problem": {"kind": "tctp"', "malformed experiment spec: "),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, "seeds": [1],
                 "max_evaluation": 50},
                "unknown experiment spec keys ['max_evaluation']",
            ),
            (
                {"problem": {"kind": "rcpsp", "instance": "table1", "capcity": 3}, "seeds": [1]},
                "unknown experiment spec problem keys ['capcity']",
            ),
            ({"problem": {"kind": "foo", "instance": "table1"}, "seeds": [1]}, "unknown problem kind 'foo'"),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, "seeds": []},
                "at least one seed required",
            ),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230}, "seeds": [1],
                 "base_seed": 5, "runs": 40},
                "experiment spec takes 'seeds' or 'base_seed'/'runs', not both",
            ),
            (
                {"problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7}, "seeds": [1], "runs": 2},
                "experiment spec takes 'seeds' or 'base_seed'/'runs', not both",
            ),
            (
                {"problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230, "capacity": 7},
                 "seeds": [1]},
                "tctp experiments take no 'capacity'",
            ),
            (
                {"problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7, "indirect_cost": 230},
                 "seeds": [1]},
                "rcpsp experiments take no 'indirect_cost'",
            ),
        ],
        ids=[
            "no-problem", "no-instance", "no-kind", "unknown-config-key", "record-moves", "unknown-config-section",
            "config-budget",
            "runs-above-bound", "not-an-object",
            "seeds-not-a-list", "capacity-not-an-int", "indirect-cost-not-an-int",
            "instance-not-a-string", "algorithm-not-a-name", "repeated-algorithm", "repeated-seed",
            "no-algorithms", "seeds-a-string", "seed-a-float", "seed-a-bool",
            "max-evaluations-a-string", "max-evaluations-a-float", "max-evaluations-a-bool",
            "base-seed-a-string", "runs-a-float", "runs-a-bool", "algorithms-a-string",
            "not-json", "unknown-key", "unknown-problem-key", "unknown-kind", "no-seeds", "seeds-and-base-seed",
            "seeds-and-runs", "capacity-in-tctp", "indirect-cost-in-rcpsp",
        ],
    )
    def test_malformed_spec_is_domain_error(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        code, _, err = run_cli(capsys, "bench", "--spec", str(path), "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out").exists()


class TestInstancesCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "instances", "list")
        assert code == 0
        assert "table1" in out and "table2" in out

    def test_export_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "copy.json"
        code, _, _ = run_cli(capsys, "instances", "export", "table1", str(target))
        assert code == 0
        assert target.read_bytes() == Path(instances.__file__).with_name("table1.json").read_bytes()
        code, out, _ = run_cli(capsys, "cpm", "--instance", str(target))
        assert code == 0
        assert "makespan: 126" in out

    def test_export_of_unknown_name_is_domain_error(self, capsys, tmp_path):
        target = tmp_path / "copy.json"
        code, out, err = run_cli(capsys, "instances", "export", "nosuch", str(target))
        assert (code, out) == (1, "")
        assert err == "error: unknown bundled instance 'nosuch'; have ('table1', 'table2')\n"
        assert not target.exists()

    def test_export_without_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["instances", "export", "table1"])
        assert exc.value.code == 2


def test_no_command_prints_help(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "metasched 0.1.0" in out
    assert "aoa-v1" in out and "tctp-v1" in out
