import json

import pytest

import metasched.bench
import metasched.cpm
import metasched.instances
from metasched.bench import ExperimentSpec, report_to_json
from perfbench import trace
from perfbench.gen import generate_aoa, write_document
from perfbench.trace import SpanLog, Tracer, layer_metrics, self_times


def test_self_time_on_synthetic_tree():
    log = SpanLog()
    root = log.add("op", 0, 100, -1)
    a = log.add("a", 10, 40, root)
    log.add("a.child", 15, 25, a)
    b = log.add("b", 50, 70, root)
    c = log.add("c", 60, 120, root)  # overlaps b and overhangs the root
    b_child = log.add("b.child", 55, 58, b)
    selfs = self_times(log)
    assert selfs[root] == 100 - (30 + 50)  # children cover [10, 40] and [50, 100]
    assert selfs[a] == 30 - 10
    assert selfs[b] == 20 - 3
    assert selfs[c] == 60
    assert selfs[b_child] == 3


def test_layer_metrics_on_synthetic_log():
    log = SpanLog()
    for op in range(2):
        root = log.add("op", 1000 * op, 1000 * op + 1000, -1, op)
        run = log.add("search.ts", 1000 * op + 100, 1000 * op + 900, root, op, value=3)
        for k in range(4):
            start = 1000 * op + 200 + 100 * k
            log.add("problems.evaluate", start, start + 50, run, op)
        log.add("tctp.archive_insert", 1000 * op + 700, 1000 * op + 710, run, op, value=5)
    metrics = layer_metrics(log, ops=2)
    assert metrics["problems.evaluate.calls"] == (4.0, "count")
    assert metrics["problems.evaluate.us_p50"] == (0.05, "us")
    assert metrics["problems.evaluate.self_share"][0] == pytest.approx(400 / 2000)
    assert metrics["search.ts.self_share"][0] == pytest.approx(2 * (800 - 200 - 10) / 2000)
    assert metrics["search.ts.distinct_ratio"] == (0.75, "ratio")
    assert metrics["search.ts.evals_per_s"][0] == pytest.approx(8 / 1600e-9)
    assert metrics["search.sa.evals_per_s"] == (0.0, "1/s")
    assert metrics["tctp.archive.points"] == (5.0, "count")
    assert metrics["rcpsp.serial_sgs.calls"] == (0.0, "count")


def _targets():
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in trace.MODULE_TARGETS] + [
        (metasched.bench, "build_problem", metasched.bench.build_problem)
    ]


def test_install_wraps_and_restore_puts_originals_back():
    before = _targets()
    tracer = Tracer(SpanLog())
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in before)


def test_traced_experiment_matches_untraced_and_attributes_runs():
    spec = ExperimentSpec.from_json(json.dumps({
        "problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
        "seeds": [1, 2], "max_evaluations": 200,
    }))
    expected = report_to_json(metasched.bench.run_experiment(spec))
    log = SpanLog()
    tracer = Tracer(log)
    tracer.install()
    try:
        root = tracer.begin_op(0, spec)
        report = metasched.bench.run_experiment(spec)
        tracer.end_op(root)
    finally:
        tracer.restore()
    assert report_to_json(report) == expected

    runs = [s for s in range(len(log)) if log.name_of(s) in ("search.sa", "search.ts", "search.ga")]
    assert [log.name_of(s) for s in runs] == ["search.sa"] * 2 + ["search.ts"] * 2 + ["search.ga"] * 2
    for s in runs:
        evaluations = [c for c in range(len(log)) if log.parent[c] == s and log.name_of(c) == "problems.evaluate"]
        assert len(evaluations) == 200
    metrics = layer_metrics(log, ops=1)
    assert metrics["rcpsp.serial_sgs.calls"] == (1200.0, "count")
    assert metrics["tctp.archive.points"] == (1.0, "count")
    assert 0 < metrics["search.ts.distinct_ratio"][0] <= 1


def test_analysis_counts(tmp_path):
    path = write_document(generate_aoa(200, seed=1), tmp_path / "net.json")
    log = SpanLog()
    tracer = Tracer(log)
    tracer.install()
    try:
        for op in range(3):
            root = tracer.begin_op(op)
            metasched.cpm.compute_cpm(metasched.instances.load_network(str(path)))
            tracer.end_op(root)
    finally:
        tracer.restore()
    metrics = layer_metrics(log, ops=3)
    assert metrics["model.topological_order.calls_per_analysis"] == (4.0, "count")
    assert metrics["cpm.forward_pass.calls_per_analysis"] == (2.0, "count")
    assert metrics["instances.load_network.calls"] == (1.0, "count")
    assert 0 < metrics["model.topological_order.self_share"][0] < 1
