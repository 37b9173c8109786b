import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.oracle import longest_path_makespan
from metasched.problems import tctp_problem
from metasched.tctp import ParetoArchive, ParetoPoint, archive_insert

# Per-option-index (duration, direct cost) totals when every activity uses the
# same option, for the bundled 18-activity instance.
UNIFORM_TOTALS = {
    1: (100, 169820),
    2: (128, 136705),
    3: (159, 107650),
    4: (166, 101178),
    5: (169, 99740),
}


class TestEvaluate:
    def test_uniform_mode_totals(self, table2):
        evaluate = tctp_problem(table2).evaluate
        for idx, (duration, direct) in UNIFORM_TOTALS.items():
            # The indirect cost is zero here, so the total is the direct cost.
            assert evaluate((idx,) * len(table2.network.ids)) == (direct, duration, direct), f"option {idx}"

    def test_indirect_cost_enters_total(self, table2):
        priced = replace(table2, indirect_cost_per_day=230)
        total, _, _ = tctp_problem(priced).evaluate((1,) * len(priced.network.ids))
        assert total == 100 * 230 + 169820

    def test_min_direct_cost(self, table2):
        """The mode vector of each activity's cheapest option costs the sum of
        the cheapest options' costs."""
        options = [table2.options[aid] for aid in table2.network.ids]
        cheapest = tuple(1 + min(range(len(opts)), key=lambda k: opts[k].direct_cost) for opts in options)
        assert tctp_problem(table2).evaluate(cheapest)[2] == 99740

    @pytest.mark.parametrize("indirect", [0, 230, 10**6])
    def test_search_evaluator_agrees(self, table2, indirect):
        """`evaluate` against the oracle's longest path over the chosen
        options' durations plus the summed direct costs."""
        priced = replace(table2, indirect_cost_per_day=indirect)
        problem = tctp_problem(priced)
        rng = random.Random(indirect)
        for _ in range(500):
            candidate = problem.initial(rng)
            chosen = [priced.options[aid][idx - 1] for aid, idx in zip(priced.network.ids, candidate)]
            duration = longest_path_makespan(
                priced.network, {aid: o.duration for aid, o in zip(priced.network.ids, chosen)}
            )
            direct = sum(o.direct_cost for o in chosen)
            assert problem.evaluate(candidate) == (duration * indirect + direct, duration, direct)


def _point(duration, cost):
    return ParetoPoint(duration=duration, cost=cost, modes=())


def _no_worse(a, b) -> bool:
    """Whether (duration, cost) `a` is no worse than `b` in both objectives."""
    return a[0] <= b[0] and a[1] <= b[1]


def _filter_and_sort(points: tuple, candidate: ParetoPoint) -> tuple:
    """An archive update that scans every point and sorts: `candidate`, unless
    some point is no worse, in place of the points it strictly dominates."""
    c = candidate.objectives
    if any(_no_worse(p.objectives, c) for p in points):
        return points
    kept = [p for p in points if not (_no_worse(c, p.objectives) and c != p.objectives)]
    kept.append(candidate)
    kept.sort(key=lambda p: (p.duration, p.cost))
    return tuple(kept)


class TestArchive:
    def test_insert_into_empty(self):
        archive = archive_insert(ParetoArchive(), _point(5, 10))
        assert [(p.duration, p.cost) for p in archive.points] == [(5, 10)]

    def test_dominated_candidate_ignored(self):
        archive = archive_insert(ParetoArchive(), _point(5, 10))
        assert archive_insert(archive, _point(6, 11)) is archive

    def test_duplicate_kept_singly(self):
        archive = archive_insert(ParetoArchive(), _point(5, 10))
        assert archive_insert(archive, _point(5, 10)) is archive

    def test_candidate_evicts_dominated_points(self):
        archive = ParetoArchive()
        for p in [(5, 10), (7, 8), (9, 6)]:
            archive = archive_insert(archive, _point(*p))
        archive = archive_insert(archive, _point(5, 6))
        assert [(p.duration, p.cost) for p in archive.points] == [(5, 6)]

    def test_insert_does_not_mutate_original(self):
        original = archive_insert(ParetoArchive(), _point(5, 10))
        archive_insert(original, _point(1, 1))
        assert [(p.duration, p.cost) for p in original.points] == [(5, 10)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=30
        )
    )
    def test_archive_invariants(self, raw_points):
        archive = ParetoArchive()
        for duration, cost in raw_points:
            archive = archive_insert(archive, _point(duration, cost))
        objs = [p.objectives for p in archive.points]
        # Pairwise non-dominated, unique, sorted by duration.
        assert len(set(objs)) == len(objs)
        assert objs == sorted(objs)
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                assert i == j or not _no_worse(a, b)
        # Every inserted point is dominated-or-equalled by something kept.
        for raw in raw_points:
            assert any(_no_worse(o, raw) for o in objs)
        # `covers` answers every query as a scan over all points would.
        for d in range(42):
            for c in range(42):
                assert archive.covers(d, c) == any(p.duration <= d and p.cost <= c for p in archive.points)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=20
        ),
        st.randoms(use_true_random=False),
    )
    def test_archive_order_independent(self, raw_points, rng):
        archive_a = ParetoArchive()
        for p in raw_points:
            archive_a = archive_insert(archive_a, _point(*p))
        shuffled = list(raw_points)
        rng.shuffle(shuffled)
        archive_b = ParetoArchive()
        for p in shuffled:
            archive_b = archive_insert(archive_b, _point(*p))
        assert [p.objectives for p in archive_a.points] == [
            p.objectives for p in archive_b.points
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                ParetoPoint,
                duration=st.integers(1, 12),
                cost=st.integers(1, 12),
                modes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
            ),
            max_size=40,
        )
    )
    def test_insert_equals_filter_and_sort(self, candidates):
        """The staircase update keeps the very points, modes included, that a
        full scan and sort keeps, so it also keeps the first of equal points."""
        archive, reference = ParetoArchive(), ()
        for candidate in candidates:
            archive = archive_insert(archive, candidate)
            reference = _filter_and_sort(reference, candidate)
            assert archive.points == reference
