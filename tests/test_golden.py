"""Seeded bench reports must stay byte-identical.

The files under `golden/` are `report.json` outputs of `metasched bench`
(SA, TS and GA; seeds 1-3; 2,000 evaluations per run). They pin each run's
`best`, fitness, evaluations used and iterations, plus the pooled front.
Regenerate them, only for a change that is meant to alter a report, with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from metasched.bench import ExperimentSpec, run_experiment, write_report

GOLDEN = Path(__file__).parent / "golden"

SPECS = {
    "bench_table1_c7.json": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
    "bench_table2_i230.json": {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
}


def produce(name: str, out_dir: Path) -> bytes:
    """The `report.json` that `write_report` writes for golden `name`."""
    spec = {"problem": SPECS[name], "seeds": [1, 2, 3], "max_evaluations": 2000}
    write_report(run_experiment(ExperimentSpec.from_json(json.dumps(spec))), out_dir)
    return (out_dir / "report.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_seeded_report_is_byte_identical(name, tmp_path):
    produced = hashlib.sha256(produce(name, tmp_path)).hexdigest()
    assert produced == hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()


if __name__ == "__main__":
    for name in SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(produce(name, Path(tmp)))
