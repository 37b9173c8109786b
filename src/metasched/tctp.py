"""Pareto dominance and the non-dominated (duration, cost) archive that the
time-cost trade-off search keeps of the mode vectors it visits."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter


@dataclass(frozen=True)
class ParetoPoint:
    duration: int
    cost: int
    modes: tuple

    @property
    def objectives(self) -> tuple[int, int]:
        return (self.duration, self.cost)


@dataclass(frozen=True)
class ParetoArchive:
    """Pairwise non-dominated (duration, cost) points, sorted by duration.

    Immutable; `archive_insert` returns a new archive. Equal (duration, cost)
    duplicates are kept singly (first inserted wins).
    """

    points: tuple[ParetoPoint, ...] = ()

    def covers(self, duration: int, cost: int) -> bool:
        """Whether some point is no worse than (duration, cost) in both objectives;
        costs fall as durations rise, so the last point no longer than `duration` decides."""
        i = bisect_right(self.points, duration, key=attrgetter("duration"))
        return i > 0 and self.points[i - 1].cost <= cost


def dominates(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Weak dominance with at least one strict inequality; minimization both ways."""
    return a[0] <= b[0] and a[1] <= b[1] and a != b


def archive_insert(archive: ParetoArchive, candidate: ParetoPoint) -> ParetoArchive:
    if archive.covers(candidate.duration, candidate.cost):
        return archive
    kept = [p for p in archive.points if not dominates(candidate.objectives, p.objectives)]
    kept.append(candidate)
    kept.sort(key=lambda p: (p.duration, p.cost))
    return ParetoArchive(points=tuple(kept))

