"""Resource-constrained scheduling on the bundled network.

The earliest-start schedule needs up to 10 units of the single resource at
once. With only 7 available the project must be re-sequenced; this demo
decodes a naive priority list, then lets each metaheuristic search for a
shorter one under the same 20,000-evaluation budget.

Usage: python demos/constrained_schedule.py
"""

from metasched.cpm import compute_cpm
from metasched.instances import load_network
from metasched.problems import rcpsp_problem
from metasched.rcpsp import repair_precedence, resource_profile, serial_sgs
from metasched.search import GaConfig, SaConfig, TsConfig, run_ga, run_sa, run_ts

CAPACITY = 7
SEED = 1


def main() -> None:
    net = load_network("table1")
    cpm = compute_cpm(net)

    early = serial_sgs(net, capacity=17, order=repair_precedence(net, net.ids))
    peak = resource_profile(net, early).peak
    print(f"unconstrained makespan: {cpm.makespan} days, peak usage {peak} units")
    print(f"available capacity:     {CAPACITY} units -> rescheduling required\n")

    # A classic priority rule: schedule in ascending total-float order
    # (repaired into a precedence-feasible list first).
    by_float = tuple(
        sorted(net.ids, key=lambda aid: (cpm.rows[aid].total_float, aid))
    )
    rule_list = repair_precedence(net, by_float)
    rule = serial_sgs(net, CAPACITY, rule_list)
    print(f"min-float priority rule: makespan {rule.makespan} days")

    problem = rcpsp_problem(net, CAPACITY)
    runs = [
        ("simulated annealing", run_sa(problem, SaConfig(), SEED)),
        ("tabu search", run_ts(problem, TsConfig(), SEED)),
        ("genetic algorithm", run_ga(problem, GaConfig(), SEED)),
    ]
    for name, result in runs:
        print(
            f"{name:<20} makespan {result.best_duration} days "
            f"({result.evaluations_used} evaluations, seed {SEED})"
        )
    best = min(runs, key=lambda item: item[1].best_duration)[1]
    print(f"\nbest activity list found: {best.best}")
    schedule = serial_sgs(net, CAPACITY, best.best)
    print(f"start times: { {aid: schedule.start_times[aid] for aid in sorted(net.ids)} }")


if __name__ == "__main__":
    main()
