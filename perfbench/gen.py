"""Seeded generator of activity-on-arrow project networks (aoa-v1 documents).

The parameters follow ProGen (Kolisch, Sprecher & Drexl 1995, Management
Science 41(10)), adapted to one renewable resource and to activity-on-arrow
form:

- network complexity: arcs (activities) per event node, Pascoe's coefficient;
- resource factor: probability that an activity demands the resource at all;
- resource strength: where the capacity sits between the largest single
  demand (0) and the peak usage of the earliest-start schedule (1);
- duration range: inclusive bounds of the uniformly drawn durations.

Every arc runs from a lower to a higher node number, so the network is
acyclic by construction; every node but the first has an incoming arc and
every node but the last an outgoing one. `window` bounds how far an arc may
jump ahead and so sets the depth of the network (about nodes / (window / 2)
event levels).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

AOA_FORMAT = "aoa-v1"
MAX_DEMAND = 10  # demands of resource-using activities are drawn from 1..MAX_DEMAND


def generate_aoa(
    n: int,
    seed: int,
    complexity: float = 1.5,
    resource_factor: float = 1.0,
    resource_strength: float = 0.5,
    durations: tuple[int, int] = (1, 10),
    window: int = 8,
) -> dict:
    """Return one aoa-v1 document (as a dict) with `n` activities.

    The document also carries `capacity`, derived from the resource strength,
    and the generation parameters under `generator`; metasched's parser
    ignores both. The same arguments always give the same document.
    """
    dmin, dmax = durations
    if n < 1 or not 1 <= dmin <= dmax or window < 1:
        raise ValueError("need n >= 1, 1 <= dmin <= dmax, window >= 1")
    if complexity < 1 or not 0 <= resource_factor <= 1 or not 0 <= resource_strength <= 1:
        raise ValueError("need complexity >= 1 and factor, strength in [0, 1]")
    rng = random.Random(seed)
    nodes = max(2, round(n / complexity))

    pairs: list[tuple[int, int]] = []
    has_out = [False] * nodes
    for v in range(1, nodes):
        u = v - 1 - rng.randrange(min(window, v))
        pairs.append((u, v))
        has_out[u] = True
    for u in range(nodes - 1):
        if not has_out[u]:
            pairs.append((u, u + 1 + rng.randrange(min(window, nodes - 1 - u))))
    if len(pairs) > n:
        raise ValueError(f"complexity {complexity} too low: {len(pairs)} arcs needed for {n}")
    while len(pairs) < n:
        u = rng.randrange(nodes - 1)
        pairs.append((u, u + 1 + rng.randrange(min(window, nodes - 1 - u))))
    rng.shuffle(pairs)

    arcs = []
    for i, (u, v) in enumerate(pairs, start=1):
        demand = rng.randint(1, MAX_DEMAND) if rng.random() < resource_factor else 0
        arcs.append(
            {"id": i, "start": u, "end": v, "duration": rng.randint(dmin, dmax), "demand": demand}
        )

    r_min = max(a["demand"] for a in arcs)
    r_max = max(r_min, _earliest_start_peak(arcs, nodes))
    return {
        "format": AOA_FORMAT,
        "name": f"gen-n{n}-s{seed}",
        "description": "generated activity-on-arrow network",
        "capacity": r_min + round(resource_strength * (r_max - r_min)),
        "generator": {
            "n": n,
            "seed": seed,
            "complexity": complexity,
            "resource_factor": resource_factor,
            "resource_strength": resource_strength,
            "durations": [dmin, dmax],
            "window": window,
        },
        "arcs": arcs,
    }


def write_document(document: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def _earliest_start_peak(arcs: list[dict], nodes: int) -> int:
    """Peak resource usage when every activity starts at its earliest time."""
    event = [0] * nodes
    for a in sorted(arcs, key=lambda a: a["start"]):  # node order is topological
        event[a["end"]] = max(event[a["end"]], event[a["start"]] + a["duration"])
    deltas: dict[int, int] = {}
    for a in arcs:
        start = event[a["start"]]
        deltas[start] = deltas.get(start, 0) + a["demand"]
        deltas[start + a["duration"]] = deltas.get(start + a["duration"], 0) - a["demand"]
    peak = usage = 0
    for t in sorted(deltas):
        usage += deltas[t]
        peak = max(peak, usage)
    return peak
