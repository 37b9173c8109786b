"""Multi-seed experiment runner: per-algorithm statistics, a pooled
non-dominated front, and deterministic CSV/JSON exports."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

from .instances import load_network, load_tctp
from .model import InstanceError, checked, load_json
from .problems import rcpsp_problem, tctp_problem
from .search import GaConfig, RunResult, SaConfig, SearchProblem, TsConfig, run_ga, run_sa, run_ts
from .tctp import ParetoArchive, archive_insert

# The search algorithms by name: (config type, runner).
ALGORITHMS = {"sa": (SaConfig, run_sa), "ts": (TsConfig, run_ts), "ga": (GaConfig, run_ga)}
# A spec's keys, at its top level and in its `problem` object, each with the
# annotation its value must meet; "" marks an object `checked` on its own.
_SPEC_KEYS = {"problem": "", "configs": "", "seeds": "list[int]", "algorithms": "list", "base_seed": "int",
              "runs": "int", "max_evaluations": "int"}
_PROBLEM_KEYS = {"kind": "str", "instance": "str", "capacity": "int | None", "indirect_cost": "int | None"}
# Most seeds (`runs`) one experiment takes: each algorithm runs once per seed.
MAX_SEEDS = 10_000


@dataclass(frozen=True)
class ExperimentSpec:
    problem_kind: str  # "rcpsp" | "tctp"
    instance: str  # bundled name or file path
    seeds: tuple[int, ...]
    max_evaluations: int = 20_000
    algorithms: tuple[str, ...] = tuple(ALGORITHMS)
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
        if not self.algorithms:
            raise InstanceError("at least one algorithm required")
        unknown = [a for a in self.algorithms if not isinstance(a, str) or a not in ALGORITHMS]
        if unknown:
            raise InstanceError(f"unknown algorithms {unknown}")
        for label, values in (("algorithms", self.algorithms), ("seeds", self.seeds)):
            repeated = sorted(value for value, count in Counter(values).items() if count > 1)
            if repeated:
                raise InstanceError(f"repeated {label} {repeated}")
        if self.problem_kind == "rcpsp" and self.capacity is None:
            raise InstanceError("rcpsp experiments require a capacity")
        if self.problem_kind == "tctp" and self.indirect_cost is None:
            raise InstanceError("tctp experiments require an indirect cost")
        foreign = "indirect_cost" if self.problem_kind == "rcpsp" else "capacity"
        if getattr(self, foreign) is not None:
            raise InstanceError(f"{self.problem_kind} experiments take no {foreign!r}")

    @classmethod
    def from_json(cls, document: str) -> "ExperimentSpec":
        data = load_json(document, "malformed experiment spec")
        checked("experiment spec", data, _SPEC_KEYS, required=("problem",))
        problem = checked("experiment spec problem", data["problem"], _PROBLEM_KEYS, required=("kind", "instance"))
        seeds = data.get("seeds")
        if seeds is not None and data.keys() & {"base_seed", "runs"}:
            raise InstanceError("experiment spec takes 'seeds' or 'base_seed'/'runs', not both")
        wanted = data.get("runs", 10) if seeds is None else len(seeds)
        if wanted > MAX_SEEDS:
            raise InstanceError(f"at most {MAX_SEEDS} seeds per experiment, got {wanted}")
        if seeds is None and "base_seed" in data:
            seeds = list(range(data["base_seed"], data["base_seed"] + wanted))
        if seeds is None:
            raise InstanceError("experiment spec needs 'seeds' or 'base_seed'/'runs'")
        sections = data.get("configs", {})
        configs = algorithm_configs(sections)
        budgeted = [name for name in ALGORITHMS if "max_evaluations" in sections.get(name, {})]
        if budgeted:
            raise InstanceError(f"'max_evaluations' is set once, at the spec's top level, not in {budgeted} configs")
        return cls(
            problem_kind=problem["kind"],
            instance=problem["instance"],
            capacity=problem.get("capacity"),
            indirect_cost=problem.get("indirect_cost"),
            seeds=tuple(seeds),
            max_evaluations=data.get("max_evaluations", 20_000),
            algorithms=tuple(data.get("algorithms", ALGORITHMS)),
            **configs,
        )


def algorithm_configs(sections, overrides: dict[str, dict] | None = None) -> dict:
    """SA, TS and GA configs from a JSON object of per-algorithm sections,
    each section's keys updated by `overrides[name]`; `checked` refuses
    `sections` or a section it does not admit."""
    checked("algorithm config", sections, dict.fromkeys(ALGORITHMS, ""), noun="sections")
    configs = {}
    for name, (config_type, _) in ALGORITHMS.items():
        section = checked(f"{name} config", sections.get(name, {}), {f.name: f.type for f in fields(config_type)})
        configs[name] = config_type(**{**section, **(overrides or {}).get(name, {})})
    return configs


@dataclass(frozen=True)
class AlgorithmSummary:
    """One algorithm's `summary.csv` row and `report.json` summary entry. The
    first three values are its lowest-fitness run's (the first in seed order
    on a tie); the averages cover all its runs."""

    algorithm: str
    best_run_duration: int
    min_fitness: int
    best_run_iterations: int
    avg_duration: float | int  # an int past the float range: see `_mean`
    avg_fitness: float | int
    avg_iterations: float
    success_pct: float


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    summaries: tuple[AlgorithmSummary, ...]
    pooled_front: tuple[tuple[int, int, tuple[str, ...], tuple], ...]  # rows of `pooled_front`
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
        _, run = ALGORITHMS[algorithm]
        for seed in spec.seeds:
            runs.append(run(problem, config, seed))

    front = pooled_front(runs)
    pct = success_percentage(front)
    summaries = []
    for algorithm in spec.algorithms:
        algo_runs = [r for r in runs if r.algorithm == algorithm]
        best_run = min(algo_runs, key=lambda r: r.best_fitness)
        summaries.append(
            AlgorithmSummary(
                algorithm=algorithm,
                best_run_duration=best_run.best_duration,
                min_fitness=best_run.best_fitness,
                best_run_iterations=best_run.native_iterations,
                avg_duration=_mean([r.best_duration for r in algo_runs]),
                avg_fitness=_mean([r.best_fitness for r in algo_runs]),
                avg_iterations=_mean([r.native_iterations for r in algo_runs]),
                success_pct=pct.get(algorithm, 0.0),
            )
        )
    return ExperimentReport(spec=spec, summaries=tuple(summaries), pooled_front=front, runs=tuple(runs))


def _mean(values: list[int]) -> float | int:
    """The mean of `values`: a float when one holds it, else the exact mean rounded half up to an int."""
    try:
        return sum(values) / len(values)
    except OverflowError:
        return (2 * sum(values) + len(values)) // (2 * len(values))


def pooled_front(runs: list[RunResult]) -> tuple[tuple[int, int, tuple[str, ...], tuple], ...]:
    """Merge run archives, in run order, into one non-dominated front.

    Returns one (duration, cost, algorithms, candidate) row per point,
    duration ascending: `algorithms` names, sorted, every algorithm whose run
    archive holds the point, and `candidate` is the first such run's.
    """
    front = ParetoArchive()
    contributors: dict[tuple[int, int], set[str]] = {}
    for run in runs:
        for p in run.archive.points:
            front = archive_insert(front, p)
            contributors.setdefault(p.objectives, set()).add(run.algorithm)
    return tuple((*p.objectives, tuple(sorted(contributors[p.objectives])), p.modes) for p in front.points)


def success_percentage(front) -> dict[str, float]:
    """Share of `pooled_front` rows contributed by each algorithm; points
    attained by several algorithms credit each, then shares renormalize to 100."""
    if not front:
        raise InstanceError("empty pooled front")
    credits = Counter(algo for _, _, algorithms, _ in front for algo in algorithms)
    total = sum(credits.values())
    return {algo: 100.0 * count / total for algo, count in credits.items()}


def write_csv(destination: str | Path, header: str, rows) -> None:
    Path(destination).write_text(csv_text(header, rows), encoding="utf-8")


def csv_text(header: str, rows) -> str:
    """`header`, then each row's fields comma-joined, one line each; a field
    that holds a comma, a quote or a line break is quoted, its quotes doubled
    (RFC 4180)."""
    return "\n".join([header, *(",".join(map(_csv_field, row)) for row in rows)]) + "\n"


def _csv_field(value) -> str:
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def export_front_csv(report: ExperimentReport, destination: str | Path) -> None:
    """Plot-ready pooled front, one row per (algorithm, point)."""
    write_csv(
        destination,
        "algorithm,duration,cost,modes_or_list",
        (
            (algorithm, duration, cost, "-".join(map(str, candidate)))
            for duration, cost, algorithms, candidate in report.pooled_front
            for algorithm in algorithms
        ),
    )


def export_summary_csv(report: ExperimentReport, destination: str | Path) -> None:
    """One row per `AlgorithmSummary`, its field names as the header and its
    floats to two places."""
    write_csv(
        destination,
        ",".join(f.name for f in fields(AlgorithmSummary)),
        ((f"{x:.2f}" if isinstance(x, float) else x for x in astuple(s)) for s in report.summaries),
    )


def report_to_json(report: ExperimentReport) -> str:
    """Full report as deterministic JSON (sorted keys, stable ordering).

    Averages cover all runs, successful or not.
    """
    payload = {
        "spec": _fields(report.spec, "problem_kind instance capacity indirect_cost algorithms seeds max_evaluations"),
        # Every float of a summary rounded to 6 places.
        "summaries": [
            {key: value if isinstance(value, str) else round(value, 6) for key, value in asdict(s).items()}
            for s in report.summaries
        ],
        "pooled_front": [
            dict(zip(("duration", "cost", "algorithms", "candidate"), point)) for point in report.pooled_front
        ],
        "runs": [
            _fields(r, "algorithm seed best best_fitness best_duration best_cost evaluations_used native_iterations")
            for r in report.runs
        ],
        "notes": "averages cover all runs; success_pct is pooled-front contribution share",
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _fields(record, names: str) -> dict:
    return {name: getattr(record, name) for name in names.split()}


def write_report(report: ExperimentReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    export_summary_csv(report, out / "summary.csv")
    export_front_csv(report, out / "front.csv")
