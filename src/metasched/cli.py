"""Command-line interface: cpm, rcpsp, tctp, bench, oracle, and instances
subcommands with shared config resolution and output formatting.

Exit status: 0 on success, 1 on a domain error (invalid instance, infeasible
input), 2 on a usage error. Diagnostics go to stderr, data to stdout or
`--out` files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import ExperimentSpec, algorithm_configs, run_experiment, write_report
from .cpm import compute_cpm
from .instances import (
    export_bundled,
    instance_text,
    list_bundled_instances,
    load_network,
    load_tctp,
)
from .model import AOA_FORMAT, TCTP_FORMAT, InstanceError, TctpInstance, induced_subnetwork
from .oracle import OracleGuard, exhaustive_rcpsp, exhaustive_tctp, longest_path_makespan
from .problems import modes_to_vector, rcpsp_problem, tctp_problem
from .rcpsp import SchedulingError, constrained_critical, resource_profile, serial_sgs
from .search import run_ga, run_sa, run_ts

_RUNNERS = {"sa": run_sa, "ts": run_ts, "ga": run_ga}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.handler(args, parser)
    except (InstanceError, SchedulingError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metasched",
        description="Project scheduling toolkit: CPM, resource-constrained "
        "scheduling, and time-cost trade-off search.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"metasched {__version__} (formats {AOA_FORMAT}, {TCTP_FORMAT})",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p_cpm = sub.add_parser("cpm", help="critical path analysis of an instance")
    p_cpm.add_argument("--instance", required=True)
    p_cpm.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_cpm.set_defaults(handler=cmd_cpm)

    p_rcpsp = sub.add_parser("rcpsp", help="resource-constrained scheduling search")
    p_rcpsp.add_argument("--instance", required=True)
    p_rcpsp.add_argument("--capacity", type=int, required=True)
    p_rcpsp.add_argument("--algo", choices=("sa", "ts", "ga"), default="ga")
    p_rcpsp.add_argument("--seed", type=int)
    p_rcpsp.add_argument("--max-evals", type=_positive_int, default=20_000)
    p_rcpsp.add_argument("--list", dest="fixed_list", help="comma-separated activity ids; decode without searching")
    p_rcpsp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_rcpsp.add_argument("--trace", help="write per-evaluation best-so-far CSV here")
    _add_config_flags(p_rcpsp)
    p_rcpsp.set_defaults(handler=cmd_rcpsp)

    p_tctp = sub.add_parser("tctp", help="time-cost trade-off search")
    p_tctp.add_argument("--instance", required=True)
    p_tctp.add_argument("--indirect-cost", type=int)
    p_tctp.add_argument("--algo", choices=("sa", "ts", "ga"), default="ga")
    p_tctp.add_argument("--seed", type=int)
    p_tctp.add_argument("--max-evals", type=_positive_int, default=20_000)
    p_tctp.add_argument("--emit-front", help="write this run's non-dominated set as CSV")
    p_tctp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_tctp.add_argument("--trace", help="write per-evaluation best-so-far CSV here")
    _add_config_flags(p_tctp)
    p_tctp.set_defaults(handler=cmd_tctp)

    p_bench = sub.add_parser("bench", help="multi-seed experiment from a spec file")
    p_bench.add_argument("--spec", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(handler=cmd_bench)

    p_oracle = sub.add_parser("oracle", help="exact reference answers (small inputs)")
    p_oracle.add_argument("kind", choices=("cpm", "tctp", "rcpsp"))
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument(
        "--activities", type=_id_set, help="id range like 1-8, or ids like 1,3,5, to restrict the instance"
    )
    p_oracle.add_argument("--capacity", type=int)
    p_oracle.add_argument("--indirect-cost", type=int)
    p_oracle.set_defaults(handler=cmd_oracle)

    p_inst = sub.add_parser("instances", help="list or export bundled instances")
    p_inst.add_argument("action", nargs="?", choices=("list", "export"), default="list")
    p_inst.add_argument("name", nargs="?")
    p_inst.add_argument("path", nargs="?")
    p_inst.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_inst.set_defaults(handler=cmd_instances)

    return parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="algorithm config file (JSON); defaults to $METASCHED_CONFIG")
    parser.add_argument("--sa-initial-temp", type=float)
    parser.add_argument("--sa-cooling", type=float)
    parser.add_argument("--sa-steps", type=int)
    parser.add_argument("--ts-tenure", type=int)
    parser.add_argument("--ts-sample", type=_sample_size, help="neighborhood sample size or 'full'")
    parser.add_argument("--ts-stagnation", type=int)
    parser.add_argument("--ga-pop", type=int)
    parser.add_argument("--ga-crossover", type=float)
    parser.add_argument("--ga-mutation", type=float)
    parser.add_argument("--ga-tournament", type=int)
    parser.add_argument("--ga-elitism", type=int)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sample_size(text: str) -> int | str:
    return text if text == "full" else _positive_int(text)


def _id_set(text: str) -> set[int]:
    """An inclusive id range like 1-8, or comma-separated ids."""
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            ids = set(range(int(lo), int(hi) + 1))
        else:
            ids = {int(x) for x in text.split(",")}
    except ValueError:
        ids = set()
    if not ids:
        raise argparse.ArgumentTypeError(
            f"expected an id range like 1-8 or ids like 1,3,5, got {text!r}"
        )
    return ids


def resolve_configs(args) -> dict[str, object]:
    """Config file sections (from --config or $METASCHED_CONFIG) with CLI
    flag overrides applied on top."""
    sections: dict[str, dict] = {}
    path = args.config or os.environ.get("METASCHED_CONFIG")
    if path:
        sections = json.loads(Path(path).read_text(encoding="utf-8"))
    sa, ts, ga = {}, {}, {}
    if args.sa_initial_temp is not None:
        sa["initial_temperature"] = args.sa_initial_temp
    if args.sa_cooling is not None:
        sa["cooling_factor"] = args.sa_cooling
    if args.sa_steps is not None:
        sa["steps_per_temperature"] = args.sa_steps
    if args.ts_tenure is not None:
        ts["tabu_tenure"] = args.ts_tenure
    if args.ts_sample is not None:
        ts["neighborhood_sample"] = args.ts_sample
    if args.ts_stagnation is not None:
        ts["stagnation_limit"] = args.ts_stagnation
    if args.ga_pop is not None:
        ga["population_size"] = args.ga_pop
    if args.ga_crossover is not None:
        ga["crossover_rate"] = args.ga_crossover
    if args.ga_mutation is not None:
        ga["mutation_rate"] = args.ga_mutation
    if args.ga_tournament is not None:
        ga["tournament_size"] = args.ga_tournament
    if args.ga_elitism is not None:
        ga["elitism_count"] = args.ga_elitism
    return algorithm_configs(sections, {"sa": sa, "ts": ts, "ga": ga})


def _run_search(problem, algo: str, configs, max_evals: int, seed: int):
    config = replace(configs[algo], max_evaluations=max_evals)
    return _RUNNERS[algo](problem, config, seed)


def _write_trace(result, destination: str) -> None:
    lines = ["eval,best_fitness"] + [f"{i},{f}" for i, f in result.trajectory]
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_cpm(args, parser) -> int:
    net = load_network(args.instance)
    result = compute_cpm(net)
    rows = [
        (aid, r.early_start, r.early_finish, r.late_start, r.late_finish, r.total_float)
        for aid, r in sorted(result.rows.items())
    ]
    critical = sorted(result.critical)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "rows": [
                        {"activity": a, "es": es, "ef": ef, "ls": ls, "lf": lf, "tf": tf}
                        for a, es, ef, ls, lf, tf in rows
                    ],
                    "makespan": result.makespan,
                    "critical": critical,
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        print("activity,es,ef,ls,lf,tf")
        for row in rows:
            print(",".join(str(x) for x in row))
        print(f"# makespan,{result.makespan}")
        print(f"# critical,{' '.join(str(c) for c in critical)}")
    else:
        print(f"{'Activity':>8} {'ES':>5} {'EF':>5} {'LS':>5} {'LF':>5} {'TF':>5}")
        for a, es, ef, ls, lf, tf in rows:
            print(f"{a:>8} {es:>5} {ef:>5} {ls:>5} {lf:>5} {tf:>5}")
        print(f"makespan: {result.makespan}")
        print(f"critical: {', '.join(str(c) for c in critical)}")
    return 0


def cmd_rcpsp(args, parser) -> int:
    net = load_network(args.instance)
    if args.fixed_list:
        order = tuple(int(x) for x in args.fixed_list.split(","))
    else:
        if args.seed is None:
            parser.error("--seed is required for stochastic runs (omit only with --list)")
        configs = resolve_configs(args)
        problem = rcpsp_problem(net, args.capacity)
        result = _run_search(problem, args.algo, configs, args.max_evals, args.seed)
        if args.trace:
            _write_trace(result, args.trace)
        order = result.best
    schedule = serial_sgs(net, args.capacity, order)
    profile = resource_profile(net, schedule)
    critical = sorted(constrained_critical(net, args.capacity, order))
    starts = {str(aid): schedule.start_times[aid] for aid in sorted(schedule.start_times)}
    if args.format == "json":
        print(
            json.dumps(
                {
                    "makespan": schedule.makespan,
                    "start_times": starts,
                    "critical": critical,
                    "peak_usage": profile.peak,
                    "list": list(order),
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        print("activity,start")
        for aid, start in starts.items():
            print(f"{aid},{start}")
        print(f"# makespan,{schedule.makespan}")
        print(f"# critical,{' '.join(str(c) for c in critical)}")
        print(f"# peak_usage,{profile.peak}")
    else:
        print(f"makespan: {schedule.makespan}")
        print(f"start times: {starts}")
        print(f"critical: {', '.join(str(c) for c in critical)}")
        print(f"peak usage: {profile.peak}")
    return 0


def cmd_tctp(args, parser) -> int:
    text = instance_text(args.instance)
    if args.indirect_cost is None and "indirect_cost_per_day" not in json.loads(text):
        parser.error("--indirect-cost is required (instance file carries none)")
    if args.seed is None:
        parser.error("--seed is required for stochastic runs")
    instance = load_tctp(args.instance, indirect_cost=args.indirect_cost)
    configs = resolve_configs(args)
    problem = tctp_problem(instance)
    result = _run_search(problem, args.algo, configs, args.max_evals, args.seed)
    if args.trace:
        _write_trace(result, args.trace)
    modes = modes_to_vector(instance, result.best)
    if args.emit_front:
        lines = ["duration,cost,modes"]
        for p in result.archive.points:
            lines.append(f"{p.duration},{p.cost},{'-'.join(str(x) for x in p.modes)}")
        Path(args.emit_front).write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {
        "modes": {str(aid): idx for aid, idx in sorted(modes.choices.items())},
        "duration": result.best_duration,
        "direct_cost": result.best_cost,
        "total_cost": int(result.best_fitness),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("duration,direct_cost,total_cost,modes")
        print(
            f"{payload['duration']},{payload['direct_cost']},{payload['total_cost']},"
            f"{'-'.join(str(x) for x in result.best)}"
        )
    else:
        print(f"best modes: {payload['modes']}")
        print(f"duration: {payload['duration']} days")
        print(f"direct cost: {payload['direct_cost']}")
        print(f"total cost: {payload['total_cost']}")
    return 0


def cmd_bench(args, parser) -> int:
    spec = ExperimentSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    report = run_experiment(spec)
    write_report(report, args.out)
    print(f"wrote report.json, summary.csv, front.csv to {args.out}")
    return 0


def cmd_oracle(args, parser) -> int:
    if args.kind == "cpm":
        net = _restricted_network(args)
        print(f"makespan: {longest_path_makespan(net)}")
        return 0
    if args.kind == "rcpsp":
        if args.capacity is None:
            parser.error("oracle rcpsp requires --capacity")
        net = _restricted_network(args)
        print(f"optimal makespan: {exhaustive_rcpsp(net, args.capacity)}")
        return 0
    instance = load_tctp(args.instance, indirect_cost=args.indirect_cost or 0)
    if args.activities:
        net = induced_subnetwork(instance.network, args.activities)
        instance = TctpInstance(
            network=net,
            options={aid: instance.options[aid] for aid in net.ids},
            indirect_cost_per_day=instance.indirect_cost_per_day,
        )
    result = exhaustive_tctp(instance, OracleGuard())
    print("front (duration, direct_cost):")
    for duration, cost in result.front:
        print(f"  {duration},{cost}")
    print(f"minimum total cost at I={instance.indirect_cost_per_day}: {result.min_total_cost}")
    return 0


def _restricted_network(args):
    net = load_network(args.instance)
    if args.activities:
        net = induced_subnetwork(net, args.activities)
    return net


def cmd_instances(args, parser) -> int:
    if args.action == "export":
        if not args.name or not args.path:
            parser.error("instances export requires <name> and <path>")
        export_bundled(args.name, args.path)
        print(f"wrote {args.name} to {args.path}")
        return 0
    catalogue = list_bundled_instances()
    if args.format == "json":
        print(json.dumps(catalogue, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("name,format,activities,description")
        for item in catalogue:
            print(f"{item['name']},{item['format']},{item['activities']},{item['description']}")
    else:
        for item in catalogue:
            print(f"{item['name']}: {item['activities']} activities ({item['format']}) - {item['description']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
