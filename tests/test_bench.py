import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.bench import (
    AlgorithmSummary,
    ExperimentSpec,
    export_front_csv,
    export_summary_csv,
    pooled_front,
    report_to_json,
    run_experiment,
    success_percentage,
    write_report,
)
from metasched.model import InstanceError
from metasched.search import RunResult, TsConfig
from metasched.tctp import ParetoArchive, ParetoPoint, archive_insert


def _fake_run(algorithm, points, seed=0):
    archive = ParetoArchive()
    for duration, cost in points:
        archive = archive_insert(
            archive, ParetoPoint(duration=duration, cost=cost, modes=(duration,))
        )
    best = min(points, key=lambda p: p[1])
    return RunResult(
        algorithm=algorithm,
        seed=seed,
        best=(best[0],),
        best_fitness=float(best[1]),
        best_duration=best[0],
        best_cost=best[1],
        evaluations_used=len(points),
        native_iterations=len(points),
        trajectory=((1, float(best[1])),),
        archive=archive,
    )


class TestSuccessPercentage:
    def test_single_contributor_takes_all(self):
        runs = [_fake_run("sa", [(5, 10), (6, 8)]), _fake_run("ts", [(7, 20)])]
        assert success_percentage(pooled_front(runs)) == {"sa": 100.0}

    def test_even_split_on_shared_front(self):
        runs = [_fake_run("sa", [(5, 10)]), _fake_run("ts", [(6, 8)])]
        pct = success_percentage(pooled_front(runs))
        assert pct == {"sa": 50.0, "ts": 50.0}

    def test_shared_point_credits_both(self):
        runs = [
            _fake_run("sa", [(5, 10), (6, 8)]),
            _fake_run("ts", [(5, 10)]),
            _fake_run("ga", [(4, 12)]),
        ]
        pct = success_percentage(pooled_front(runs))
        assert pct == {"sa": 50.0, "ts": 25.0, "ga": 25.0}

    def test_empty_front_rejected(self):
        with pytest.raises(InstanceError, match="empty"):
            success_percentage(())


class TestPooledFront:
    def test_dominated_points_dropped(self):
        runs = [_fake_run("sa", [(5, 10), (6, 12)]), _fake_run("ts", [(4, 9)])]
        assert pooled_front(runs) == ((4, 9, ("ts",), (4,)),)

    def test_cross_run_domination(self):
        # A point non-dominated within its own run can fall to another run's.
        runs = [_fake_run("sa", [(5, 10)]), _fake_run("ts", [(5, 9)])]
        assert pooled_front(runs) == ((5, 9, ("ts",), (5,)),)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("sa", "ts", "ga")),
                st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_filter(self, archives):
        runs = []
        for i, (algorithm, points) in enumerate(archives):
            run = _fake_run(algorithm, points, seed=i)
            # Candidates that name their run show which run a witness came from.
            tagged = tuple(replace(p, modes=(i, p.duration)) for p in run.archive.points)
            runs.append(replace(run, archive=ParetoArchive(tagged)))
        assert pooled_front(runs) == _pairwise_front(runs)


def _pairwise_front(runs):
    """Reference for `pooled_front`: every attained point that no other
    attained point dominates, in (duration, cost) order, with the sorted
    algorithms that attain it and the first run's candidate as witness."""
    attained, witness = {}, {}
    for run in runs:
        for p in run.archive.points:
            key = (p.duration, p.cost)
            attained.setdefault(key, set()).add(run.algorithm)
            witness.setdefault(key, p.modes)
    front = sorted(p for p in attained if not any(q[0] <= p[0] and q[1] <= p[1] and q != p for q in attained))
    return tuple((*p, tuple(sorted(attained[p])), witness[p]) for p in front)


class TestSpec:
    def test_from_json_explicit_seeds(self):
        spec = ExperimentSpec.from_json(
            json.dumps(
                {
                    "problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
                    "seeds": [1, 2, 3],
                    "max_evaluations": 500,
                    "configs": {"ts": {"stagnation_limit": 10}},
                }
            )
        )
        assert spec.seeds == (1, 2, 3)
        assert spec.ts == TsConfig(stagnation_limit=10)
        assert spec.max_evaluations == 500

    def test_from_json_base_seed_expansion(self):
        spec = ExperimentSpec.from_json(
            json.dumps(
                {
                    "problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7},
                    "base_seed": 100,
                    "runs": 4,
                }
            )
        )
        assert spec.seeds == (100, 101, 102, 103)

    def test_seed_count_bounded(self):
        problem = {"kind": "rcpsp", "instance": "table1", "capacity": 7}
        spec = ExperimentSpec.from_json(json.dumps({"problem": problem, "seeds": list(range(10_000))}))
        assert len(spec.seeds) == 10_000
        with pytest.raises(InstanceError, match="at most 10000 seeds per experiment, got 10001"):
            ExperimentSpec.from_json(json.dumps({"problem": problem, "seeds": list(range(10_001))}))

    def test_missing_seeds_rejected(self):
        with pytest.raises(InstanceError, match="seeds"):
            ExperimentSpec.from_json(
                '{"problem": {"kind": "rcpsp", "instance": "table1", "capacity": 7}}'
            )

    def test_rcpsp_requires_capacity(self):
        with pytest.raises(InstanceError, match="capacity"):
            ExperimentSpec(problem_kind="rcpsp", instance="table1", seeds=(1,))

    def test_tctp_requires_indirect_cost(self):
        with pytest.raises(InstanceError, match="indirect"):
            ExperimentSpec(problem_kind="tctp", instance="table2", seeds=(1,))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InstanceError, match="unknown algorithms"):
            ExperimentSpec(
                problem_kind="rcpsp",
                instance="table1",
                capacity=7,
                seeds=(1,),
                algorithms=("sa", "hillclimb"),
            )


@pytest.fixture(scope="module")
def small_report():
    spec = ExperimentSpec(
        problem_kind="tctp",
        instance="table2",
        indirect_cost=230,
        seeds=(1, 2),
        max_evaluations=300,
    )
    return run_experiment(spec)


class TestRunExperiment:
    def test_run_counts(self, small_report):
        assert len(small_report.runs) == 6  # 3 algorithms x 2 seeds
        for run in small_report.runs:
            assert run.evaluations_used <= 300

    def test_summaries_cover_all_algorithms(self, small_report):
        assert [s.algorithm for s in small_report.summaries] == ["sa", "ts", "ga"]
        total = sum(s.success_pct for s in small_report.summaries)
        assert total == pytest.approx(100.0)

    def test_front_sorted_and_non_dominated(self, small_report):
        points = [(d, c) for d, c, _, _ in small_report.pooled_front]
        assert points == sorted(points)
        for a in points:
            for b in points:
                assert a == b or not (b[0] <= a[0] and b[1] <= a[1])

    def test_deterministic_json(self, small_report):
        spec = small_report.spec
        again = run_experiment(spec)
        assert report_to_json(again) == report_to_json(small_report)


class TestExports:
    def test_write_report_files(self, small_report, tmp_path):
        write_report(small_report, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["summaries"]
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == (
            "algorithm,best_run_duration,min_fitness,best_run_iterations,avg_duration,avg_fitness,avg_iterations,"
            "success_pct"
        )
        assert len(summary) == 4
        front = (tmp_path / "front.csv").read_text().splitlines()
        assert front[0] == "algorithm,duration,cost,modes_or_list"
        assert len(front) > 1

    def test_front_csv_sorted_rows(self, small_report, tmp_path):
        export_front_csv(small_report, tmp_path / "front.csv")
        rows = (tmp_path / "front.csv").read_text().splitlines()[1:]
        keys = [
            (int(r.split(",")[1]), int(r.split(",")[2]), r.split(",")[0]) for r in rows
        ]
        assert keys == sorted(keys)

    def test_summary_csv_shape(self, small_report, tmp_path):
        export_summary_csv(small_report, tmp_path / "summary.csv")
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        for line in lines[1:]:
            assert len(line.split(",")) == 8


def test_summary_recomputes_from_runs(tmp_path):
    """Every summary value is recomputed from the report's runs, on a spec
    where GA's shortest run (seed 4, duration 122) is not its lowest-fitness
    run (seed 5, duration 124); `report.json` and `summary.csv` name the same
    fields, and `front.csv` is the pooled front flattened."""
    spec = ExperimentSpec.from_json(
        json.dumps(
            {
                "problem": {"kind": "tctp", "instance": "table2", "indirect_cost": 230},
                "base_seed": 4,
                "runs": 2,
                "max_evaluations": 300,
                "algorithms": ["ga", "sa"],
                "configs": {"ga": {"population_size": 10}},
            }
        )
    )
    report = run_experiment(spec)
    front = pooled_front(list(report.runs))
    credits = {s.algorithm: sum(s.algorithm in algorithms for _, _, algorithms, _ in front) for s in report.summaries}
    for summary in report.summaries:
        runs = [r for r in report.runs if r.algorithm == summary.algorithm]
        fitnesses = [r.best_fitness for r in runs]
        best = runs[fitnesses.index(min(fitnesses))]
        assert summary == AlgorithmSummary(
            algorithm=summary.algorithm,
            best_run_duration=best.best_duration,
            min_fitness=min(fitnesses),
            best_run_iterations=best.native_iterations,
            avg_duration=sum(r.best_duration for r in runs) / len(runs),
            avg_fitness=sum(fitnesses) / len(runs),
            avg_iterations=sum(r.native_iterations for r in runs) / len(runs),
            success_pct=100.0 * credits[summary.algorithm] / sum(credits.values()),
        )
    ga_durations = [r.best_duration for r in report.runs if r.algorithm == "ga"]
    assert (report.summaries[0].best_run_duration, min(ga_durations)) == (124, 122)

    write_report(report, tmp_path)
    header = (tmp_path / "summary.csv").read_text().splitlines()[0].split(",")
    assert header == [f.name for f in fields(AlgorithmSummary)]
    for entry in json.loads((tmp_path / "report.json").read_text())["summaries"]:
        assert sorted(entry) == sorted(header)
    flattened = [
        f"{algorithm},{duration},{cost},{'-'.join(map(str, candidate))}"
        for duration, cost, algorithms, candidate in front
        for algorithm in algorithms
    ]
    assert (tmp_path / "front.csv").read_text().splitlines()[1:] == flattened
