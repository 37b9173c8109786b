#!/usr/bin/env python3
"""metasched benchmark: one workload, closed loop, one thread.

    python3 perfbench/run.py --workload rcpsp-table1-c7 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Run from anywhere inside a checkout: the benchmark uses the metasched sources
under `src/` next to this directory and nothing else. With `--trace 0` it
measures the end-to-end metrics with no tracing; with `--trace 1` it
alternates untraced and traced operations on the same input, and reports the
per-layer metrics derived from the spans plus the tracing overhead. The last
line of standard output is one JSON object; the exit code is 1 when any check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"  # relative to ROOT, where the benchmark runs
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 60

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import metasched.cli
import_s = time.perf_counter() - t0
{setup}print(import_s)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "metasched" / "__init__.py").is_file():
        print(f"perfbench: no metasched sources under {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}, all")
    return run_one(WORKLOADS[args.workload], args)


def run_all(names: list[str], args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    status = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def run_one(workload, args) -> int:
    workdir = OUT / f"{workload.name}-seed{args.seed}"
    workload.prepare(args.seed, workdir)
    setup = SetupSampler(workload.setup_code())

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  closed loop, 1 caller, 1 thread")
    if args.trace:
        from perfbench.trace import SpanLog, Tracer, layer_metrics

        log = SpanLog()
        loop = closed_loop(workload, args.seconds, tracer=Tracer(log), between=setup.sample)
        setup.complete()
        spans_path = workdir / "spans.csv.gz"
        log.write(spans_path)
        print(f"spans {len(log)} written to {spans_path}")
        metrics = layer_metrics(log, ops=len(loop.traced))
        metrics["setup.import_s"] = (statistics.median(setup.imports), "s")
        overhead = statistics.median(loop.ratios) - 1 if loop.ratios else float("nan")
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        print(f"trace.overhead_pct: median over {len(loop.ratios)} pairs of traced ÷ untraced "
              f"time of one operation on the same input")
    else:
        loop = closed_loop(workload, args.seconds, between=setup.sample)
        setup.complete()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup.walls), "s"),
            "experiment_s": (statistics.median(loop.latencies), "s"),
            "evals_per_s": (loop.evaluations / sum(loop.latencies), "1/s"),
            "best_to_lb": (workload.quality, "ratio"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
            "ok_share": (1 - loop.failed / loop.attempted, "ratio"),
        }
        print_timing(workload.operation, loop.latencies)
        print(f"setup_s: median of {len(setup.walls)} fresh interpreters spread over the run; "
              f"import of metasched.cli {statistics.median(setup.imports):.4f} s")

    attempted, failed = loop.attempted, loop.failed
    for message in loop.messages[:5]:
        print(f"FAILED: {message}")
    print(f"report sha256 {workload.digest}  ({attempted} operations, {failed} failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


class SetupSampler:
    """Fresh interpreters that import metasched and build the workload's
    problem: their wall times, and the import time each reports.

    Samples are taken between operations, so they spread over the run rather
    than falling into one phase of the machine's speed.
    """

    def __init__(self, setup_code: str):
        self.code = SETUP_CHILD.format(src=str(SRC), setup=setup_code)
        self.walls: list[float] = []
        self.imports: list[float] = []

    def sample(self) -> None:
        if len(self.walls) >= SETUP_RUNS:
            return
        t0 = perf_counter()
        child = subprocess.run([sys.executable, "-c", self.code], capture_output=True, text=True,
                               check=True, timeout=CHILD_TIMEOUT_S)
        self.walls.append(perf_counter() - t0)
        self.imports.append(float(child.stdout.split()[-1]))

    def complete(self) -> None:
        while len(self.walls) < SETUP_RUNS:
            self.sample()


class Loop:
    def __init__(self):
        self.latencies: list[float] = []  # untraced operations
        self.traced: list[float] = []
        self.ratios: list[float] = []  # traced ÷ untraced time, per pair on one input
        self.attempted = 0
        self.failed = 0
        self.evaluations = 0
        self.messages: list[str] = []


def closed_loop(workload, seconds: float, tracer=None, between=None) -> Loop:
    """Repeat the workload's operation until `seconds` have passed (and at
    least `min_ops` operations, or pairs, ran); time each operation, then
    check it and call `between`, both untimed.

    With a tracer, operations come in pairs on the same input: the first runs
    untraced, and the tracer is installed for the second and restored after
    it, so the machine's slow phases fall on both halves of a pair.
    """
    loop = Loop()
    kinds = (None, tracer) if tracer else (None,)
    start = perf_counter()
    while loop.attempted < len(kinds) * workload.min_ops or perf_counter() - start < seconds:
        untraced_s = None
        for op_tracer in kinds:
            latency = operation(workload, loop, op_tracer)
            if between:
                between()
            if latency is None:
                continue
            if op_tracer is None:
                untraced_s = latency
                loop.latencies.append(latency)
            else:
                loop.traced.append(latency)
                if untraced_s is not None:
                    loop.ratios.append(latency / untraced_s)
    for latencies in (loop.latencies, loop.traced):
        if not latencies:
            latencies.append(float("nan"))
    return loop


def operation(workload, loop: Loop, tracer=None) -> float | None:
    """Run, time and check one operation (traced on the previous input when
    `tracer` is given); return its wall time, or None when it raised.

    An exception in the operation or in its checks counts it as failed and
    never stops the run.
    """
    loop.attempted += 1
    try:
        if tracer:
            tracer.install()
        root = tracer.begin_op(loop.attempted, getattr(workload, "spec", None)) if tracer else None
        t0 = perf_counter()
        try:
            result = workload.run(repeat=tracer is not None)
        finally:
            if tracer:
                tracer.end_op(root)
        latency = perf_counter() - t0
    except Exception:
        loop.failed += 1
        loop.messages.append(traceback.format_exc(limit=3))
        return None
    finally:
        if tracer:
            tracer.restore()
    try:
        loop.evaluations += workload.evaluations(result)
        problems = workload.verify(result)
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    if problems:
        loop.failed += 1
        loop.messages.append("; ".join(problems[:5]))
    return latency


def print_timing(operation: str, latencies: list[float]) -> None:
    """Median, and the highest of p90/p75 that has at least ten samples beyond it."""
    n = len(latencies)
    line = f"{operation}_s.p50 {statistics.median(latencies):.6f} s"
    for label, q in (("p90", 10), ("p75", 4)):
        if n / q >= 10:
            cut = statistics.quantiles(latencies, n=q)[-1]
            line += f"  {operation}_s.{label} {cut:.6f} s"
            break
    print(f"{line}  (n={n})")


if __name__ == "__main__":
    sys.exit(main())
