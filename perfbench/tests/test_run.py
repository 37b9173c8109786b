"""End-to-end: the entry point's JSON matches BENCHMARK.json, and it refuses
to run without metasched's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", "rcpsp-n60-loose", "--seed", "9", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_json_line_matches_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    done = run(ROOT, "--seconds", "0.01", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(tmp_path, "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


class FakeWorkload:
    min_ops = 3

    def __init__(self, verify_raises=False):
        self.repeats = []
        self.verify_raises = verify_raises

    def run(self, repeat=False):
        self.repeats.append(repeat)
        return len(self.repeats)

    def verify(self, result):
        if self.verify_raises:
            raise IndexError("check blew up")
        return []

    def evaluations(self, result):
        return 1


class FakeTracer:
    def __init__(self):
        self.events = []

    def install(self):
        self.events.append("install")

    def restore(self):
        self.events.append("restore")

    def begin_op(self, op_id, spec=None):
        self.events.append("begin")

    def end_op(self, root):
        self.events.append("end")


def test_traced_loop_pairs_untraced_and_traced_operations_on_one_input():
    from perfbench.run import closed_loop

    workload, tracer = FakeWorkload(), FakeTracer()
    loop = closed_loop(workload, seconds=0, tracer=tracer)
    assert workload.repeats == [False, True] * 3
    assert tracer.events == ["install", "begin", "end", "restore"] * 3
    assert len(loop.latencies) == len(loop.traced) == len(loop.ratios) == 3
    assert (loop.attempted, loop.failed) == (6, 0)


def test_exception_in_a_check_counts_the_operation_as_failed():
    from perfbench.run import closed_loop

    loop = closed_loop(FakeWorkload(verify_raises=True), seconds=0)
    assert (loop.attempted, loop.failed) == (3, 3)
    assert "check blew up" in loop.messages[0]
