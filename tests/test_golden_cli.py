"""Seeded command-line outputs must stay byte-identical.

Each case runs `metasched.cli.main` in-process and compares its stdout and
every file it writes (`--trace`, `--emit-front`, the `bench` reports) with
`golden/cli/<case>.<output>`. The cases cover `cpm`, `rcpsp --list`, seeded
SA/TS/GA `rcpsp` and `tctp` searches in each `--format`, every
`--sa-*/--ts-*/--ga-*` flag, a `--config` file under flag overrides, two small
`bench` runs and `instances list`.

Regenerate the files, only for a change meant to alter output, with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from metasched.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

FORMATS = ("table", "csv", "json")
ALGOS = ("sa", "ts", "ga")
ORDER = "4,10,1,8,3,17,7,9,11,5,6,2,12,14,16,13,15"
RCPSP = ("rcpsp", "--instance", "table1", "--capacity", "7", "--seed", "2", "--max-evals", "300")
TCTP = ("tctp", "--instance", "table2", "--indirect-cost", "230", "--seed", "2", "--max-evals", "300")
TRACE = ("--trace", "{tmp}/trace.csv")
FRONT = ("--emit-front", "{tmp}/front.csv")
FLAGS = {
    "sa": ("--sa-initial-temp", "5", "--sa-cooling", "0.8", "--sa-steps", "10"),
    "ts": ("--ts-tenure", "4", "--ts-sample", "6", "--ts-stagnation", "8"),
    "ga": (
        "--ga-pop", "12", "--ga-crossover", "0.7", "--ga-mutation", "0.2",
        "--ga-tournament", "3", "--ga-elitism", "2",
    ),
}

# Written to the case's directory before it runs.
INPUTS = {
    "config.json": {
        "sa": {"cooling_factor": 0.9, "steps_per_temperature": 20, "max_evaluations": 5000},
        "ts": {"tabu_tenure": 5, "neighborhood_sample": 8, "max_evaluations": 5000},
        "ga": {"population_size": 16, "tournament_size": 3, "max_evaluations": 5000},
    },
    "spec-rcpsp.json": {
        "problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
        "seeds": [1, 2],
        "max_evaluations": 300,
    },
    "spec-tctp.json": {
        "problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
        "base_seed": 4,
        "runs": 2,
        "max_evaluations": 300,
        "algorithms": ["ga", "sa"],
        "configs": {"ga": {"population_size": 10}},
    },
}


def _cases() -> dict[str, tuple[str, ...]]:
    cases = {}
    for fmt in FORMATS:
        cases[f"cpm-{fmt}"] = ("cpm", "--instance", "table1", "--format", fmt)
        cases[f"rcpsp-list-{fmt}"] = (
            "rcpsp", "--instance", "table1", "--capacity", "7", "--list", ORDER, "--format", fmt,
        )
        cases[f"instances-{fmt}"] = ("instances", "list", "--format", fmt)
        for algo in ALGOS:
            trace, front = (TRACE, FRONT) if fmt == "table" else ((), ())
            cases[f"rcpsp-{algo}-{fmt}"] = (*RCPSP, "--algo", algo, "--format", fmt, *trace)
            cases[f"tctp-{algo}-{fmt}"] = (*TCTP, "--algo", algo, "--format", fmt, *trace, *front)
    for algo in ALGOS:
        cases[f"rcpsp-flags-{algo}"] = (*RCPSP, "--algo", algo, *FLAGS[algo], *TRACE)
        cases[f"tctp-flags-{algo}"] = (*TCTP, "--algo", algo, *FLAGS[algo], *TRACE, *FRONT)
        # The config file's max_evaluations (5000) loses to --max-evals (300),
        # and --sa-cooling beats its cooling_factor.
        cases[f"tctp-config-{algo}"] = (
            *TCTP, "--algo", algo, "--config", "{tmp}/config.json", "--sa-cooling", "0.85", *TRACE,
        )
    cases["instances-default"] = ("instances",)
    for kind in ("rcpsp", "tctp"):
        cases[f"bench-{kind}"] = ("bench", "--spec", f"{{tmp}}/spec-{kind}.json", "--out", "{tmp}/out")
    return cases


CASES = _cases()


def produce(case: str, tmp: Path) -> dict[str, bytes]:
    """Run one case in `tmp`: its stdout (with `tmp` masked) and each file it
    wrote, keyed by output name."""
    for name, document in INPUTS.items():
        (tmp / name).write_text(json.dumps(document), encoding="utf-8")
    argv = [arg.format(tmp=tmp) for arg in CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), case
    outputs = {"stdout": out.getvalue().replace(str(tmp), "<tmp>").encode("utf-8")}
    for path in sorted(tmp.rglob("*")):
        if path.is_file() and path.name not in INPUTS:
            outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case, tmp_path):
    produced = produce(case, tmp_path)
    expected = {p.name[len(case) + 1:]: p.read_bytes() for p in GOLDEN.glob(f"{case}.*")}
    assert sorted(produced) == sorted(expected)
    for name, data in produced.items():
        assert data == expected[name], f"{case}.{name}"


def test_every_csv_reads_back_as_wide_as_its_header():
    """Each CSV a case prints (`--format csv`) or writes is one table: every
    row parses, quoting included, as wide as its header."""
    for path in sorted(GOLDEN.glob("*")):
        if path.suffix == ".csv" or path.name.endswith("-csv.stdout"):
            rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
            assert {len(row) for row in rows} == {len(rows[0])}, path.name


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in produce(case, Path(tmp)).items():
                (GOLDEN / f"{case}.{name}").write_bytes(data)
