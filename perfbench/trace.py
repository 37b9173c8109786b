"""Spans recorded from outside metasched, and the per-layer metrics derived
from them.

`Tracer.install` replaces public module-level names (and one method) with
wrappers that open a span on entry and close it on exit; `Tracer.restore`
puts the originals back. The names patched are the ones the callers look up
at call time, e.g. `metasched.problems.serial_sgs` is the binding the RCPSP
evaluator calls. The search problem's callables are wrapped by wrapping
`metasched.bench.build_problem`, so no source file changes.

The runners (`run_sa`, `run_ts`, `run_ga`) are reached through a private
registry and cannot be wrapped from outside. Their spans are synthesised
instead: a run starts at the first `initial` call once the previous run has
used its full evaluation budget, and ends where the next run or the pooled
front begins. `run_experiment` runs algorithms in spec order and seeds in
spec order, and the benchmark checks that every run uses exactly its budget.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter_ns

import metasched.bench
import metasched.cpm
import metasched.instances
import metasched.model
import metasched.problems
import metasched.search

OP = "op"

# (owner, attribute, span name); the span name is `<defining module>.<function>`.
MODULE_TARGETS = (
    (metasched.problems, "serial_sgs", "rcpsp.serial_sgs"),
    (metasched.problems, "random_activity_list", "rcpsp.random_activity_list"),
    (metasched.problems, "repair_precedence", "search.repair_precedence"),
    (metasched.problems, "order_crossover", "search.order_crossover"),
    (metasched.search, "archive_insert", "tctp.archive_insert"),
    (metasched.instances, "parse_aoa_instance", "model.parse_aoa_instance"),
    (metasched.instances, "derive_precedence_from_nodes", "model.derive_precedence_from_nodes"),
    (metasched.model.ProjectNetwork, "topological_order", "model.topological_order"),
    (metasched.cpm, "compute_cpm", "cpm.compute_cpm"),
    (metasched.cpm, "forward_pass", "cpm.forward_pass"),
    (metasched.cpm, "backward_pass", "cpm.backward_pass"),
    (metasched.instances, "load_network", "instances.load_network"),
    (metasched.bench, "load_network", "instances.load_network"),
    (metasched.bench, "run_experiment", "bench.run_experiment"),
    (metasched.bench, "pooled_front", "bench.pooled_front"),
    (metasched.bench, "report_to_json", "bench.report_to_json"),
    (metasched.bench, "write_report", "bench.write_report"),
)
PROBLEM_FIELDS = ("initial", "evaluate", "neighbor", "neighborhood", "crossover", "mutate")

# Functions reported as `<name>.calls`, `<name>.us_p50` and `<name>.self_share`.
LAYER_FUNCTIONS = (
    "rcpsp.serial_sgs",
    "rcpsp.random_activity_list",
    "search.repair_precedence",
    "search.order_crossover",
    "problems.crossover",
    "problems.evaluate",
    "problems.neighbor",
    "problems.neighborhood",
    "problems.mutate",
    "problems.initial",
    "tctp.archive_insert",
    "model.parse_aoa_instance",
    "model.derive_precedence_from_nodes",
    "model.topological_order",
    "cpm.compute_cpm",
    "cpm.forward_pass",
    "cpm.backward_pass",
    "instances.load_network",
    "bench.build_problem",
    "bench.pooled_front",
    "bench.report_to_json",
    "bench.write_report",
)
ALGORITHMS = ("sa", "ts", "ga")
PER_OP_COUNTS = ("model.topological_order", "cpm.forward_pass")


class SpanLog:
    """Spans in parallel arrays; a span's id is its index.

    `values` holds an optional count for a few spans: the archive size after
    an `archive_insert`, the distinct candidates of a search run.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.values: dict[int, int] = {}
        self.stack: list[int] = []
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, start: int, end: int, parent: int, op: int = 0, value: int | None = None) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        sid = self.open(name, start, parent)
        self.stack.pop()
        self.end[sid] = end
        self.op[sid] = op
        if value is not None:
            self.values[sid] = value
        return sid

    def open(self, name: str, start: int | None = None, parent: int | None = None) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(index)
        self.start.append(perf_counter_ns() if start is None else start)
        self.end.append(-1)
        if parent is None:
            parent = self.stack[-1] if self.stack else -1
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()

    def name_of(self, sid: int) -> str:
        return self.names[self.name[sid]]

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id,name,start_ns,end_ns,parent,op,value\n")
            names, values = self.names, self.values
            for sid in range(len(self)):
                out.write(
                    f"{sid},{names[self.name[sid]]},{self.start[sid]},{self.end[sid]},"
                    f"{self.parent[sid]},{self.op[sid]},{values.get(sid, '')}\n"
                )


def self_times(log: SpanLog) -> array:
    """Each span's duration minus the part of its interval its children cover.

    Children are merged in start order and clipped to the parent, so
    overlapping or overhanging children are not counted twice. Recorded spans
    are already in start order; synthetic ones may not be.
    """
    n = len(log)
    start, end, parent = log.start, log.end, log.parent
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(order, key=start.__getitem__)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)  # end of the covered prefix of each parent
    for sid in order:
        p = parent[sid]
        if p < 0:
            continue
        lo = max(start[sid], reach[p])
        hi = min(end[sid], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (end[s] - start[s] - covered[s] for s in range(n)))


class Tracer:
    """Installs span-recording wrappers and attributes search runs."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._saved: list[tuple[object, str, object]] = []
        self._plan: tuple[tuple[str, ...], int, int] | None = None
        self._run: int | None = None
        self._run_index = -1
        self._run_evals = 0
        self._run_seen: set = set()

    def install(self) -> None:
        for owner, attr, name in MODULE_TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        build = metasched.bench.build_problem
        self._saved.append((metasched.bench, "build_problem", build))
        metasched.bench.build_problem = self._wrap("bench.build_problem", build, self._trace_problem)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def begin_op(self, op_id: int, spec=None) -> int:
        """Open the root span of one operation; `spec` enables run attribution."""
        self.log.op_id = op_id
        if spec is not None:
            self._plan = (tuple(spec.algorithms), len(spec.seeds), spec.max_evaluations)
            self._run_index = -1
        return self.log.open(OP)

    def end_op(self, sid: int) -> None:
        self._end_run()
        self._plan = None
        self.log.close(sid)

    def _wrap(self, name, fn, post=None):
        log = self.log
        ends_run = name == "bench.pooled_front"
        records_size = name == "tctp.archive_insert"

        def traced(*args, **kwargs):
            if ends_run:
                self._end_run()
            sid = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(sid)
            if records_size:
                log.values[sid] = len(result.points)
            return result if post is None else post(result)

        return traced

    def _trace_problem(self, problem):
        fields = {f: self._wrap_problem(f"problems.{f}", getattr(problem, f)) for f in PROBLEM_FIELDS}
        return replace(problem, **fields)

    def _wrap_problem(self, name, fn):
        log = self.log
        starts_run = name == "problems.initial"
        counts = name == "problems.evaluate"

        def traced(*args):
            if starts_run and (self._run is None or self._run_evals >= self._plan[2]):
                self._start_run()
            if counts:
                self._run_evals += 1
                self._run_seen.add(args[0])
            sid = log.open(name)
            try:
                return fn(*args)
            finally:
                log.close(sid)

        return traced

    def _start_run(self) -> None:
        self._end_run()
        algorithms, n_seeds, _ = self._plan
        self._run_index += 1
        algorithm = algorithms[min(self._run_index // n_seeds, len(algorithms) - 1)]
        self._run = self.log.open(f"search.{algorithm}")
        self._run_evals = 0
        self._run_seen = set()

    def _end_run(self) -> None:
        if self._run is not None:
            self.log.values[self._run] = len(self._run_seen)
            self.log.close(self._run)
            self._run = None


def layer_metrics(log: SpanLog, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished log of `ops` operations:
    name -> (value, unit).

    `calls` is calls per operation, so it does not grow with run length;
    `self_share` is self time over total operation time. Counts and ratios of
    counts are integer divisions, so they repeat exactly for any number of
    identical operations.
    """
    self_ns = self_times(log)
    index = {name: i for i, name in enumerate(log.names)}
    durations = [array("q") for _ in log.names]
    self_sum = [0] * len(log.names)
    evaluations: Counter = Counter()  # per parent span
    last_archive: dict[int, int] = {}  # per parent span
    evaluate, archive = index.get("problems.evaluate"), index.get("tctp.archive_insert")
    runs: dict[int, list[int]] = {index[f"search.{a}"]: [] for a in ALGORITHMS if f"search.{a}" in index}
    for sid in range(len(log)):
        k = log.name[sid]
        durations[k].append(log.end[sid] - log.start[sid])
        self_sum[k] += self_ns[sid]
        if k == evaluate:
            evaluations[log.parent[sid]] += 1
        elif k == archive:
            last_archive[log.parent[sid]] = log.values[sid]
        elif k in runs:
            runs[k].append(sid)
    op_ns = sum(durations[index[OP]]) if OP in index else 1

    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_FUNCTIONS:
        spans = durations[index[name]] if name in index else ()
        metrics[f"{name}.calls"] = (len(spans) / ops, "count")
        metrics[f"{name}.us_p50"] = (statistics.median(spans) / 1e3 if spans else 0.0, "us")
        metrics[f"{name}.self_share"] = (self_sum[index[name]] / op_ns if spans else 0.0, "ratio")

    run_sizes = []
    for algorithm in ALGORITHMS:
        k = index.get(f"search.{algorithm}")
        spans = runs.get(k, [])
        evals = sum(evaluations[s] for s in spans)
        busy_s = sum(durations[k]) / 1e9 if spans else 0
        distinct = sum(log.values.get(s, 0) for s in spans)
        metrics[f"search.{algorithm}.evals_per_s"] = (evals / busy_s if busy_s else 0.0, "1/s")
        metrics[f"search.{algorithm}.self_share"] = (self_sum[k] / op_ns if spans else 0.0, "ratio")
        metrics[f"search.{algorithm}.distinct_ratio"] = (distinct / evals if evals else 0.0, "ratio")
        run_sizes += [last_archive[s] for s in spans if s in last_archive]
    points = sum(run_sizes) / len(run_sizes) if run_sizes else 0.0
    metrics["tctp.archive.points"] = (points, "count")
    for name in PER_OP_COUNTS:
        metrics[f"{name}.calls_per_analysis"] = metrics[f"{name}.calls"]
    return metrics
