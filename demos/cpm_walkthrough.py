"""Critical path walkthrough on the bundled 17-activity network.

Runs the forward and backward passes, prints the full float table, and shows
why lengthening a critical activity moves the project end while lengthening a
slack one does not.

Usage: python demos/cpm_walkthrough.py
"""

from dataclasses import replace

from metasched.cpm import compute_cpm
from metasched.instances import load_network


def main() -> None:
    net = load_network("table1")
    result = compute_cpm(net)

    print("Activity  ES   EF   LS   LF   TF")
    for aid in net.ids:
        r = result.rows[aid]
        marker = "  <- critical" if aid in result.critical else ""
        print(
            f"{aid:>8} {r.early_start:>4} {r.early_finish:>4} "
            f"{r.late_start:>4} {r.late_finish:>4} {r.total_float:>4}{marker}"
        )
    print(f"\nproject makespan: {result.makespan} days")
    print(f"critical chain:   {' -> '.join(str(a) for a in sorted(result.critical))}")

    # Sensitivity: +1 day on a critical activity vs. +1 day on a slack one.
    for aid in (17, 13):
        longer = tuple(replace(b, duration=b.duration + 1) if b.id == aid else b for b in net.activities)
        bumped = compute_cpm(replace(net, activities=longer)).makespan
        kind = "critical" if aid in result.critical else "slack"
        print(
            f"lengthening {kind} activity {aid} by one day: "
            f"makespan {result.makespan} -> {bumped}"
        )


if __name__ == "__main__":
    main()
