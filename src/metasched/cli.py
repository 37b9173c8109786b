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
from .bench import ALGORITHMS, ExperimentSpec, algorithm_configs, csv_text, run_experiment, write_csv, write_report
from .cpm import compute_cpm
from .instances import export_bundled, instance_text, list_bundled_instances, load_network
from .model import AOA_FORMAT, TCTP_FORMAT, InstanceError, induced_subnetwork, load_json, parse_tctp_instance
from .problems import rcpsp_problem, tctp_problem
from .rcpsp import SchedulingError, constrained_critical, resource_profile, serial_sgs

FORMATS = ("table", "csv", "json")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.handler(args, parser)
    except (InstanceError, SchedulingError, RuntimeError, ValueError, OverflowError, OSError) as exc:
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
    p_cpm.add_argument("--format", choices=FORMATS, default="table")
    p_cpm.set_defaults(handler=cmd_cpm)

    # rcpsp and tctp: the same search flags around one problem flag and one output flag each.
    for name, text, (problem_flag, required), (output_flag, dest, output_text), handler in (
        ("rcpsp", "resource-constrained scheduling search", ("--capacity", True),
         ("--list", "fixed_list", "comma-separated activity ids; decode without searching"), cmd_rcpsp),
        ("tctp", "time-cost trade-off search", ("--indirect-cost", False),
         ("--emit-front", "emit_front", "write this run's non-dominated set as CSV"), cmd_tctp),
    ):
        p_search = sub.add_parser(name, help=text)
        p_search.add_argument("--instance", required=True)
        p_search.add_argument(problem_flag, type=int, required=required)
        p_search.add_argument("--algo", choices=ALGORITHMS)  # unset: ga
        p_search.add_argument("--seed", type=int)
        p_search.add_argument("--max-evals", type=_positive_int)  # unset: the config's max_evaluations
        p_search.add_argument(output_flag, dest=dest, help=output_text)
        p_search.add_argument("--format", choices=FORMATS, default="table")
        p_search.add_argument("--trace", help="write per-evaluation best-so-far CSV here")
        p_search.add_argument("--config", help="algorithm config file (JSON); defaults to $METASCHED_CONFIG")
        for flag, _, _, kind, flag_text in CONFIG_FLAGS:
            p_search.add_argument(flag, type=kind, help=flag_text)
        p_search.set_defaults(handler=handler)

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
    p_inst.add_argument("--format", choices=FORMATS, default="table")
    p_inst.set_defaults(handler=cmd_instances)

    return parser


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


def _id_set(text: str) -> range | set[int]:
    """An inclusive id range like 1-8, or comma-separated ids."""
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            ids = range(int(lo), int(hi) + 1)
        else:
            ids = {int(x) for x in text.split(",")}
        if len(ids):  # overflows for a range of more than sys.maxsize ids
            return ids
    except (ValueError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(
        f"expected an id range like 1-8 or ids like 1,3,5, got {text!r}"
    )


# Algorithm config flags: (flag, algorithm, config field, argparse type, help).
CONFIG_FLAGS = (
    ("--sa-initial-temp", "sa", "initial_temperature", float, None),
    ("--sa-cooling", "sa", "cooling_factor", float, None),
    ("--sa-steps", "sa", "steps_per_temperature", int, None),
    ("--ts-tenure", "ts", "tabu_tenure", int, None),
    ("--ts-sample", "ts", "neighborhood_sample", _sample_size, "neighborhood sample size or 'full'"),
    ("--ts-stagnation", "ts", "stagnation_limit", int, None),
    ("--ga-pop", "ga", "population_size", int, None),
    ("--ga-crossover", "ga", "crossover_rate", float, None),
    ("--ga-mutation", "ga", "mutation_rate", float, None),
    ("--ga-tournament", "ga", "tournament_size", int, None),
    ("--ga-elitism", "ga", "elitism_count", int, None),
)


def resolve_configs(args) -> dict[str, object]:
    """Config file sections (from --config or $METASCHED_CONFIG) with
    --max-evals and the config flags, where given, applied on top."""
    path = args.config or os.environ.get("METASCHED_CONFIG")
    sections = load_json(Path(path).read_text(encoding="utf-8"), f"malformed config file {path!r}") if path else {}
    budget = {} if args.max_evals is None else {"max_evaluations": args.max_evals}
    overrides = {name: dict(budget) for name in ALGORITHMS}
    for flag, algorithm, key, _, _ in CONFIG_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides[algorithm][key] = value
    return algorithm_configs(sections, overrides)


def _search(args, problem):
    """Run `--algo` (ga when unset) on `problem` under the resolved configs;
    write `--trace`."""
    algo = args.algo or "ga"
    _, run = ALGORITHMS[algo]
    result = run(problem, resolve_configs(args)[algo], args.seed)
    if args.trace:
        write_csv(args.trace, "eval,best_fitness", result.trajectory)
    return result


def _emit(fmt: str, payload, csv_header: str, csv_rows, table_lines) -> None:
    """Print a result in `--format` `fmt`: `payload` as JSON, `csv_rows`
    under `csv_header`, or `table_lines`."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        print(csv_text(csv_header, csv_rows), end="")
    else:
        for line in table_lines:
            print(line)


def cmd_cpm(args, parser) -> int:
    result = compute_cpm(load_network(args.instance))
    columns = ("activity", "es", "ef", "ls", "lf", "tf")
    rows = [
        (aid, r.early_start, r.early_finish, r.late_start, r.late_finish, r.total_float)
        for aid, r in sorted(result.rows.items())
    ]
    critical = sorted(result.critical)
    _emit(
        args.format,
        {"rows": [dict(zip(columns, row)) for row in rows], "makespan": result.makespan, "critical": critical},
        ",".join(columns),
        rows,
        [
            *(
                " ".join(f"{x:>{width}}" for x, width in zip(row, (8, 5, 5, 5, 5, 5)))
                for row in [("Activity", "ES", "EF", "LS", "LF", "TF"), *rows]
            ),
            f"makespan: {result.makespan}",
            f"critical: {', '.join(map(str, critical))}",
        ],
    )
    return 0


def cmd_rcpsp(args, parser) -> int:
    net = load_network(args.instance)
    if args.fixed_list:
        flags = ("--trace", "--seed", "--algo", "--max-evals", "--config", *(flag for flag, *_ in CONFIG_FLAGS))
        given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]
        if given:
            verb, pronoun = ("needs", "it") if len(given) == 1 else ("need", "them")
            parser.error(f"{', '.join(given)} {verb} a search run (omit {pronoun} with --list)")
        order = tuple(int(x) for x in args.fixed_list.split(","))
    else:
        if args.seed is None:
            parser.error("--seed is required for stochastic runs (omit only with --list)")
        order = _search(args, rcpsp_problem(net, args.capacity)).best
    schedule = serial_sgs(net, args.capacity, order)
    peak = resource_profile(net, schedule).peak
    critical = sorted(constrained_critical(net, args.capacity, order))
    starts = {str(aid): schedule.start_times[aid] for aid in sorted(schedule.start_times)}
    _emit(
        args.format,
        {
            "makespan": schedule.makespan,
            "start_times": starts,
            "critical": critical,
            "peak_usage": peak,
            "list": list(order),
        },
        "activity,start,critical,makespan,peak_usage",
        [(aid, t, int(aid in critical), schedule.makespan, peak) for aid, t in sorted(schedule.start_times.items())],
        [
            f"makespan: {schedule.makespan}",
            f"start times: {starts}",
            f"critical: {', '.join(map(str, critical))}",
            f"peak usage: {peak}",
        ],
    )
    return 0


def _read_tctp(args) -> tuple[dict, bool]:
    """The parsed instance document, and whether neither `--indirect-cost`
    nor the document gives an indirect cost."""
    document = load_json(instance_text(args.instance))
    return document, args.indirect_cost is None and "indirect_cost_per_day" not in document


def cmd_tctp(args, parser) -> int:
    document, lacks_indirect_cost = _read_tctp(args)
    if lacks_indirect_cost:
        parser.error("--indirect-cost is required (instance file carries none)")
    if args.seed is None:
        parser.error("--seed is required for stochastic runs")
    instance = parse_tctp_instance(document, indirect_cost_override=args.indirect_cost)
    result = _search(args, tctp_problem(instance))
    if args.emit_front:
        write_csv(
            args.emit_front,
            "duration,cost,modes",
            ((p.duration, p.cost, "-".join(map(str, p.modes))) for p in result.archive.points),
        )
    payload = {
        "modes": {str(aid): idx for aid, idx in sorted(zip(instance.network.ids, result.best))},
        "duration": result.best_duration,
        "direct_cost": result.best_cost,
        "total_cost": result.best_fitness,
    }
    _emit(
        args.format,
        payload,
        "duration,direct_cost,total_cost,modes",
        [(result.best_duration, result.best_cost, payload["total_cost"], "-".join(map(str, result.best)))],
        [
            f"best modes: {payload['modes']}",
            f"duration: {payload['duration']} days",
            f"direct cost: {payload['direct_cost']}",
            f"total cost: {payload['total_cost']}",
        ],
    )
    return 0


def cmd_bench(args, parser) -> int:
    spec = ExperimentSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    report = run_experiment(spec)
    write_report(report, args.out)
    print(f"wrote report.json, summary.csv, front.csv to {args.out}")
    return 0


def cmd_oracle(args, parser) -> int:
    from .oracle import exhaustive_rcpsp, exhaustive_tctp, longest_path_makespan
    if args.kind == "rcpsp" and args.capacity is None:
        parser.error("oracle rcpsp requires --capacity")
    if args.kind == "tctp":
        document, lacks_indirect_cost = _read_tctp(args)
        instance = parse_tctp_instance(document, indirect_cost_override=0 if lacks_indirect_cost else args.indirect_cost)
        if args.activities:
            net = induced_subnetwork(instance.network, args.activities)
            instance = replace(instance, network=net, options={aid: instance.options[aid] for aid in net.ids})
        result = exhaustive_tctp(instance)
        print("front (duration, direct_cost):")
        for duration, cost in result.front:
            print(f"  {duration},{cost}")
        print(f"minimum total cost at I={instance.indirect_cost_per_day}: {result.min_total_cost}")
        return 0
    net = load_network(args.instance)
    if args.activities:
        net = induced_subnetwork(net, args.activities)
    if args.kind == "cpm":
        print(f"makespan: {longest_path_makespan(net)}")
    else:
        print(f"optimal makespan: {exhaustive_rcpsp(net, args.capacity)}")
    return 0


def cmd_instances(args, parser) -> int:
    if args.action == "export":
        if not args.name or not args.path:
            parser.error("instances export requires <name> and <path>")
        export_bundled(args.name, args.path)
        print(f"wrote {args.name} to {args.path}")
        return 0
    catalogue = list_bundled_instances()
    _emit(
        args.format,
        catalogue,
        "name,format,activities,description",
        [(i["name"], i["format"], i["activities"], i["description"]) for i in catalogue],
        [f"{i['name']}: {i['activities']} activities ({i['format']}) - {i['description']}" for i in catalogue],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
