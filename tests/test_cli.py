import json
import time

import pytest

from metasched.cli import main
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
        ],
        ids=["top-level-number", "activity-not-an-object", "option-not-an-object"],
    )
    def test_malformed_instance_is_domain_error(self, capsys, tmp_path, document, message):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(document))
        code, _, err = run_cli(capsys, "tctp", "--instance", str(path), "--seed", "1")
        assert code == 1
        assert err.startswith("error:") and message in err

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

    def test_unknown_config_key_is_domain_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ga": {"bogus": 1}}))
        code, _, err = run_cli(
            capsys, "tctp", "--instance", "table2", "--indirect-cost", "230",
            "--algo", "ga", "--seed", "4", "--config", str(config),
        )
        assert code == 1
        assert err.startswith("error:") and "bogus" in err


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

    def test_oversized_oracle_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "tctp", "--instance", "table2")
        assert code == 1
        assert "exceeds" in err

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
        ],
        ids=["cpm", "tctp", "rcpsp", "many"],
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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"seeds": [1]}, "needs a 'problem' object"),
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
            ([1, 2], "top level must be an object"),
            (
                {"problem": {"kind": "tctp", "instance": "table2"}, "seeds": 5},
                "malformed experiment spec",
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
                    ({"seeds": [1.9]}, "'seeds' must be a list of int"),
                    ({"seeds": [True]}, "'seeds' must be a list of int"),
                    ({"seeds": [1], "max_evaluations": "50"}, "'max_evaluations' must be int"),
                    ({"seeds": [1], "max_evaluations": 50.7}, "'max_evaluations' must be int"),
                    ({"seeds": [1], "max_evaluations": True}, "'max_evaluations' must be int"),
                    ({"base_seed": "1"}, "'base_seed' must be int"),
                    ({"base_seed": 1, "runs": 2.5}, "'runs' must be int"),
                    ({"base_seed": 1, "runs": False}, "'runs' must be int"),
                    ({"seeds": [1], "algorithms": "sa"}, "'algorithms' must be list"),
                ]
            ),
        ],
        ids=[
            "no-problem", "no-instance", "no-kind", "unknown-config-key", "not-an-object",
            "seeds-not-a-list", "capacity-not-an-int", "indirect-cost-not-an-int",
            "instance-not-a-string", "algorithm-not-a-name", "repeated-algorithm", "repeated-seed",
            "no-algorithms", "seeds-a-string", "seed-a-float", "seed-a-bool",
            "max-evaluations-a-string", "max-evaluations-a-float", "max-evaluations-a-bool",
            "base-seed-a-string", "runs-a-float", "runs-a-bool", "algorithms-a-string",
        ],
    )
    def test_malformed_spec_is_domain_error(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
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
        code, out, _ = run_cli(capsys, "cpm", "--instance", str(target))
        assert code == 0
        assert "makespan: 126" in out

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
