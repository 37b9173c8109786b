"""The non-dominated (duration, cost) archive of the mode vectors the time-cost
trade-off search visits; `ParetoArchive.covers` is its one dominance test."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def archive_insert(archive: ParetoArchive, candidate: ParetoPoint) -> ParetoArchive:
    """`archive` itself when it covers `candidate`, else `candidate` in place of the
    points it dominates: the run, from the first point no shorter, that costs no less."""
    if archive.covers(candidate.duration, candidate.cost):
        return archive
    points = archive.points
    i = j = bisect_left(points, candidate.duration, key=attrgetter("duration"))
    while j < len(points) and points[j].cost >= candidate.cost:
        j += 1
    return ParetoArchive(points=(*points[:i], candidate, *points[j:]))
