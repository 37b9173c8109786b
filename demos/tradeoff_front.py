"""Time-cost trade-off on the bundled 18-activity instance.

Every activity offers up to five (duration, cost) options: finishing faster
costs more. A daily indirect cost turns this into a single scalar objective
(duration * rate + direct cost); sweeping the rate traces out the trade-off
curve, and the search archive collects the non-dominated points it visits.

Usage: python demos/tradeoff_front.py
"""

from dataclasses import replace

from metasched.instances import load_tctp
from metasched.problems import tctp_problem
from metasched.search import GaConfig, run_ga
from metasched.tctp import ParetoArchive, archive_insert

SEED = 3


def main() -> None:
    instance = load_tctp("table2", indirect_cost=0)
    cheapest_direct = sum(min(o.direct_cost for o in opts) for opts in instance.options.values())
    print(f"activities: {len(instance.network.ids)}, cheapest direct cost {cheapest_direct}\n")

    pooled = ParetoArchive()
    print(f"{'indirect/day':>12} {'best duration':>14} {'direct cost':>12} {'total':>10}")
    for indirect in (0, 100, 230, 500, 1000, 5000):
        problem = tctp_problem(replace(instance, indirect_cost_per_day=indirect))
        result = run_ga(problem, GaConfig(max_evaluations=10_000), SEED)
        print(
            f"{indirect:>12} {result.best_duration:>14} {result.best_cost:>12} "
            f"{result.best_fitness:>10}"
        )
        for point in result.archive.points:
            pooled = archive_insert(pooled, point)

    print("\npooled non-dominated front (duration, direct cost):")
    for point in pooled.points:
        print(f"  {point.duration:>4} days  {point.cost:>8}")

    cheapest = pooled.points[-1]
    modes = dict(zip(instance.network.ids, cheapest.modes))
    print(f"\nmode vector at the cheapest point: {modes}")


if __name__ == "__main__":
    main()
