"""The benchmark's workloads: the inputs each feeds metasched, the operation
its closed loop repeats, and how every result is checked.

Why each workload exists is recorded in README.md. Inputs depend only on the
workload seed. A workload object is used in three steps: `prepare` makes the
inputs (untimed), `run` performs one operation (timed), and `verify` checks
its result (untimed). `run(repeat=True)` runs the previous operation's input
again, so a traced operation can be paired with an untraced one. Results that
repeat an earlier input are compared by digest with the first, fully checked,
result for that input.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

import metasched.bench as bench
import metasched.cpm as cpm
import metasched.instances as instances
from metasched.bench import ExperimentSpec
from metasched.model import ProjectNetwork, validate_network
from metasched.oracle import longest_path_makespan

from perfbench import checks
from perfbench.gen import generate_aoa, write_document

SEEDS_PER_EXPERIMENT = 6


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _generated_network(document: dict) -> ProjectNetwork:
    net = checks.aoa_network(document)
    report = validate_network(net)
    if report:
        raise RuntimeError(f"generated network {document['name']} is invalid: {report[:3]}")
    return net


class SearchWorkload:
    """One experiment: SA, TS and GA at default configs over several seeds,
    each run with the same evaluation budget, then `write_report`."""

    operation = "experiment"
    min_ops = 1

    def __init__(self, name: str, budget: int, problem):
        self.name = name
        self.budget = budget
        self._problem = problem  # (seed, workdir) -> (spec "problem" section, raw document)

    def prepare(self, seed: int, workdir: Path) -> None:
        section, document = self._problem(seed, workdir)
        self.spec_json = json.dumps(
            {
                "problem": section,
                "seeds": [seed * 1000 + i for i in range(SEEDS_PER_EXPERIMENT)],
                "max_evaluations": self.budget,
            }
        )
        self.spec = ExperimentSpec.from_json(self.spec_json)
        self.report_dir = workdir / "report"
        if section["kind"] == "rcpsp":
            net = checks.aoa_network(document)
            capacity = section["capacity"]
            self._check_run = lambda run: checks.check_rcpsp_run(net, capacity, run, self.budget)
            self._lower_bound = checks.rcpsp_lower_bound(net, capacity)
        else:
            data = checks.TctpData.from_document(document)
            indirect = section["indirect_cost"]
            self._check_run = lambda run: checks.check_tctp_run(data, indirect, run, self.budget)
            self._lower_bound = checks.tctp_lower_bound(data, indirect)
        self._reference: tuple[str, list[str]] | None = None
        self.quality = 0.0

    def setup_code(self) -> str:
        return (
            "from metasched.bench import ExperimentSpec, build_problem\n"
            f"build_problem(ExperimentSpec.from_json({self.spec_json!r}))\n"
        )

    def run(self, repeat: bool = False):
        report = bench.run_experiment(self.spec)  # every operation has the same input
        bench.write_report(report, self.report_dir)
        return report

    def verify(self, report) -> list[str]:
        digest = _sha256((self.report_dir / "report.json").read_bytes())
        if self._reference is None:
            problems = [p for run in report.runs for p in self._check_run(run)]
            expected = len(self.spec.algorithms) * len(self.spec.seeds)
            if len(report.runs) != expected:
                problems.append(f"{len(report.runs)} runs, expected {expected}")
            self._reference = (digest, problems)
            self.quality = statistics.fmean(r.best_fitness / self._lower_bound for r in report.runs)
        if digest != self._reference[0]:
            return [f"report.json sha256 {digest} differs from the first {self._reference[0]}"]
        return self._reference[1]

    def evaluations(self, report) -> int:
        return sum(r.evaluations_used for r in report.runs)

    @property
    def digest(self) -> str:
        return self._reference[0] if self._reference else ""


def _table1_c7(seed: int, workdir: Path):
    return (
        {"kind": "rcpsp", "instance": "table1", "capacity": 7},
        json.loads(instances.read_bundled("table1")),
    )


def _n60_loose(seed: int, workdir: Path):
    document = generate_aoa(60, seed=seed)
    _generated_network(document)
    path = write_document(document, workdir / "n60.json")
    capacity = sum(a["demand"] for a in document["arcs"])
    return {"kind": "rcpsp", "instance": path.as_posix(), "capacity": capacity}, document


def _table2_i230(seed: int, workdir: Path):
    return (
        {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
        json.loads(instances.read_bundled("table2")),
    )


class CpmWorkload:
    """One analysis: `load_network` + `compute_cpm` on a generated network
    file, cycling through a pool so consecutive analyses differ.

    Only the file paths stay resident; the checks rebuild a network from its
    file when it is first analysed, so the process's peak RSS is metasched's
    and not a store of reference networks."""

    operation = "analysis"
    pool = 24
    min_ops = pool  # every pool network is analysed, so the digest covers all

    def __init__(self, name: str, n: int):
        self.name = name
        self.n = n

    def prepare(self, seed: int, workdir: Path) -> None:
        self.paths: list[str] = []
        for i in range(self.pool):
            document = generate_aoa(self.n, seed=seed * self.pool + i, window=64)
            _generated_network(document)
            self.paths.append(write_document(document, workdir / f"net{i}.json").as_posix())
        self._next = 0
        self._index = 0
        self._reference: dict[int, tuple[str, list[str]]] = {}
        self._ratios: dict[int, float] = {}

    def setup_code(self) -> str:
        return ""  # an analysis starts from the file; nothing precedes it

    def run(self, repeat: bool = False):
        if not repeat:
            self._index = self._next % self.pool
            self._next += 1
        net = instances.load_network(self.paths[self._index])
        return self._index, cpm.compute_cpm(net)

    def verify(self, result) -> list[str]:
        i, cpm_result = result
        rows = sorted((aid, *vars(row).values()) for aid, row in cpm_result.rows.items())
        digest = _sha256(json.dumps([cpm_result.makespan, rows, sorted(cpm_result.critical)]).encode())
        if i not in self._reference:
            net = checks.aoa_network(json.loads(Path(self.paths[i]).read_text(encoding="utf-8")))
            self._reference[i] = (digest, checks.check_cpm(net, cpm_result))
            self._ratios[i] = cpm_result.makespan / longest_path_makespan(net)
        if digest != self._reference[i][0]:
            return [f"network {i}: result sha256 {digest} differs from the first"]
        return self._reference[i][1]

    def evaluations(self, result) -> int:
        return 1

    @property
    def quality(self) -> float:
        return statistics.fmean(self._ratios.values()) if self._ratios else 0.0

    @property
    def digest(self) -> str:
        joined = "".join(self._reference[i][0] for i in sorted(self._reference))
        return _sha256(joined.encode())


WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload("rcpsp-table1-c7", budget=1000, problem=_table1_c7),
        SearchWorkload("rcpsp-n60-loose", budget=1000, problem=_n60_loose),
        SearchWorkload("tctp-table2-i230", budget=5000, problem=_table2_i230),
        CpmWorkload("cpm-n2000", n=2000),
    )
}
