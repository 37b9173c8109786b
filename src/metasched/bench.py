"""Multi-seed experiment runner: per-algorithm statistics, a pooled
non-dominated front, and deterministic CSV/JSON exports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .instances import load_network, load_tctp
from .model import InstanceError
from .problems import rcpsp_problem, tctp_problem
from .search import GaConfig, RunResult, SaConfig, SearchProblem, TsConfig, run_ga, run_sa, run_ts

ALGORITHMS = ("sa", "ts", "ga")
_RUNNERS = {"sa": run_sa, "ts": run_ts, "ga": run_ga}
_CONFIG_TYPES = {"sa": SaConfig, "ts": TsConfig, "ga": GaConfig}


@dataclass(frozen=True)
class ExperimentSpec:
    problem_kind: str  # "rcpsp" | "tctp"
    instance: str  # bundled name or file path
    seeds: tuple[int, ...]
    max_evaluations: int = 20_000
    algorithms: tuple[str, ...] = ALGORITHMS
    capacity: int | None = None
    indirect_cost: int | None = None
    sa: SaConfig = field(default_factory=SaConfig)
    ts: TsConfig = field(default_factory=TsConfig)
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        if self.problem_kind not in ("rcpsp", "tctp"):
            raise InstanceError(f"unknown problem kind {self.problem_kind!r}")
        if not self.seeds:
            raise InstanceError("at least one seed required")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise InstanceError(f"unknown algorithms {unknown}")
        if self.problem_kind == "rcpsp" and self.capacity is None:
            raise InstanceError("rcpsp experiments require a capacity")
        if self.problem_kind == "tctp" and self.indirect_cost is None:
            raise InstanceError("tctp experiments require an indirect cost")

    @classmethod
    def from_json(cls, document: str) -> "ExperimentSpec":
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"malformed experiment spec: {exc}") from exc
        if not isinstance(data, dict):
            raise InstanceError("malformed experiment spec: top level must be an object")
        problem = data.get("problem")
        if not isinstance(problem, dict):
            raise InstanceError("experiment spec needs a 'problem' object")
        missing = [key for key in ("kind", "instance") if key not in problem]
        if missing:
            raise InstanceError(f"experiment spec 'problem' lacks {missing}")
        seeds = data.get("seeds")
        try:
            if seeds is None and "base_seed" in data:
                seeds = range(data["base_seed"], data["base_seed"] + data.get("runs", 10))
            seeds = tuple(int(s) for s in seeds or ())
            max_evaluations = int(data.get("max_evaluations", 20_000))
            algorithms = tuple(data.get("algorithms", ALGORITHMS))
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"malformed experiment spec: {exc}") from exc
        if not seeds:
            raise InstanceError("experiment spec needs 'seeds' or 'base_seed'/'runs'")
        return cls(
            problem_kind=problem["kind"],
            instance=problem["instance"],
            capacity=problem.get("capacity"),
            indirect_cost=problem.get("indirect_cost"),
            seeds=seeds,
            max_evaluations=max_evaluations,
            algorithms=algorithms,
            **algorithm_configs(data.get("configs", {})),
        )


def algorithm_configs(sections, overrides: dict[str, dict] | None = None) -> dict:
    """SA, TS and GA configs from a JSON object of per-algorithm sections,
    each section's keys updated by `overrides[name]`.

    Raises `InstanceError` when `sections` or a section is not an object or
    a section names a key its config does not have.
    """
    if not isinstance(sections, dict):
        raise InstanceError("algorithm configs must be an object with 'sa'/'ts'/'ga' sections")
    configs = {}
    for name, config_type in _CONFIG_TYPES.items():
        section = sections.get(name, {})
        if not isinstance(section, dict):
            raise InstanceError(f"{name} config must be an object")
        unknown = sorted(set(section) - {f.name for f in fields(config_type)})
        if unknown:
            raise InstanceError(f"unknown {name} config keys {unknown}")
        configs[name] = config_type(**{**section, **(overrides or {}).get(name, {})})
    return configs


@dataclass(frozen=True)
class AlgorithmSummary:
    algorithm: str
    min_duration: int
    min_cost: int
    best_run_evaluations: int
    best_run_iterations: int
    avg_duration: float
    avg_cost: float
    avg_iterations: float
    success_pct: float
    runs_within_one_pct: float  # share of runs within 1% of the best pooled cost


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    summaries: tuple[AlgorithmSummary, ...]
    pooled_front: tuple[tuple[int, int, tuple[str, ...], tuple], ...]
    # (duration, cost, contributing algorithms, candidate), duration ascending
    runs: tuple[RunResult, ...]


def build_problem(spec: ExperimentSpec) -> SearchProblem:
    if spec.problem_kind == "rcpsp":
        return rcpsp_problem(load_network(spec.instance), spec.capacity)
    instance = load_tctp(spec.instance, indirect_cost=spec.indirect_cost)
    return tctp_problem(instance)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every (algorithm, seed) pair under a shared evaluation budget and
    aggregate statistics plus the pooled non-dominated front."""
    problem = build_problem(spec)
    runs: list[RunResult] = []
    for algorithm in spec.algorithms:
        config = replace(getattr(spec, algorithm), max_evaluations=spec.max_evaluations)
        for seed in spec.seeds:
            runs.append(_RUNNERS[algorithm](problem, config, seed))

    contributors, candidates = pooled_front(runs)
    pct = success_percentage(contributors)
    best_cost_overall = min(run.best_fitness for run in runs)

    summaries = []
    for algorithm in spec.algorithms:
        algo_runs = [r for r in runs if r.algorithm == algorithm]
        costs = [r.best_fitness for r in algo_runs]
        best_run = min(algo_runs, key=lambda r: r.best_fitness)
        within = sum(1 for c in costs if c <= best_cost_overall * 1.01) / len(algo_runs)
        summaries.append(
            AlgorithmSummary(
                algorithm=algorithm,
                min_duration=min(r.best_duration for r in algo_runs),
                min_cost=int(min(costs)),
                best_run_evaluations=best_run.evaluations_used,
                best_run_iterations=best_run.native_iterations,
                avg_duration=sum(r.best_duration for r in algo_runs) / len(algo_runs),
                avg_cost=sum(costs) / len(algo_runs),
                avg_iterations=sum(r.native_iterations for r in algo_runs) / len(algo_runs),
                success_pct=pct.get(algorithm, 0.0),
                runs_within_one_pct=within,
            )
        )
    front = tuple(
        (point[0], point[1], tuple(sorted(contributors[point])), candidates[point])
        for point in sorted(contributors)
    )
    return ExperimentReport(
        spec=spec, summaries=tuple(summaries), pooled_front=front, runs=tuple(runs)
    )


def pooled_front(
    runs: list[RunResult],
) -> tuple[dict[tuple[int, int], set[str]], dict[tuple[int, int], tuple]]:
    """Merge run archives into one non-dominated front.

    Returns (point -> contributing algorithms, point -> one witness candidate).
    """
    attained: dict[tuple[int, int], set[str]] = {}
    witness: dict[tuple[int, int], tuple] = {}
    for run in runs:
        for p in run.archive.points:
            key = (p.duration, p.cost)
            attained.setdefault(key, set()).add(run.algorithm)
            witness.setdefault(key, p.modes)
    front = {
        p
        for p in attained
        if not any(q[0] <= p[0] and q[1] <= p[1] and q != p for q in attained)
    }
    return {p: attained[p] for p in front}, {p: witness[p] for p in front}


def success_percentage(contributors: dict[tuple[int, int], set[str]]) -> dict[str, float]:
    """Share of pooled-front points contributed by each algorithm; points
    attained by several algorithms credit each, then shares renormalize to 100."""
    if not contributors:
        raise InstanceError("empty pooled front")
    credits: dict[str, int] = {}
    for algos in contributors.values():
        for algo in algos:
            credits[algo] = credits.get(algo, 0) + 1
    total = sum(credits.values())
    return {algo: 100.0 * count / total for algo, count in credits.items()}


def export_front_csv(report: ExperimentReport, destination: str | Path) -> None:
    """Plot-ready pooled front, one row per (algorithm, point)."""
    lines = ["algorithm,duration,cost,modes_or_list"]
    rows = []
    for duration, cost, algorithms, candidate in report.pooled_front:
        encoded = "-".join(str(x) for x in candidate)
        for algorithm in algorithms:
            rows.append((duration, cost, algorithm, encoded))
    rows.sort()
    for duration, cost, algorithm, encoded in rows:
        lines.append(f"{algorithm},{duration},{cost},{encoded}")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_summary_csv(report: ExperimentReport, destination: str | Path) -> None:
    lines = [
        "algorithm,min_duration,min_cost,min_iterations,avg_duration,avg_cost,avg_iterations,success_pct"
    ]
    for s in report.summaries:
        lines.append(
            f"{s.algorithm},{s.min_duration},{s.min_cost},{s.best_run_iterations},"
            f"{s.avg_duration:.2f},{s.avg_cost:.2f},{s.avg_iterations:.2f},{s.success_pct:.2f}"
        )
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def report_to_json(report: ExperimentReport) -> str:
    """Full report as deterministic JSON (sorted keys, stable ordering).

    Averages cover all runs, successful or not.
    """
    payload = {
        "spec": {
            "problem_kind": report.spec.problem_kind,
            "instance": report.spec.instance,
            "capacity": report.spec.capacity,
            "indirect_cost": report.spec.indirect_cost,
            "algorithms": list(report.spec.algorithms),
            "seeds": list(report.spec.seeds),
            "max_evaluations": report.spec.max_evaluations,
        },
        "summaries": [
            {
                "algorithm": s.algorithm,
                "min_duration": s.min_duration,
                "min_cost": s.min_cost,
                "best_run_evaluations": s.best_run_evaluations,
                "best_run_iterations": s.best_run_iterations,
                "avg_duration": round(s.avg_duration, 6),
                "avg_cost": round(s.avg_cost, 6),
                "avg_iterations": round(s.avg_iterations, 6),
                "success_pct": round(s.success_pct, 6),
                "runs_within_one_pct": round(s.runs_within_one_pct, 6),
            }
            for s in report.summaries
        ],
        "pooled_front": [
            {
                "duration": duration,
                "cost": cost,
                "algorithms": list(algorithms),
                "candidate": list(candidate),
            }
            for duration, cost, algorithms, candidate in report.pooled_front
        ],
        "runs": [
            {
                "algorithm": r.algorithm,
                "seed": r.seed,
                "best": list(r.best),
                "best_fitness": r.best_fitness,
                "best_duration": r.best_duration,
                "best_cost": r.best_cost,
                "evaluations_used": r.evaluations_used,
                "native_iterations": r.native_iterations,
            }
            for r in report.runs
        ],
        "notes": "averages cover all runs; success_pct is pooled-front contribution share",
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_report(report: ExperimentReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    export_summary_csv(report, out / "summary.csv")
    export_front_csv(report, out / "front.csv")
