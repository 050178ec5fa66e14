"""``PunctuationGrid`` against brute-force enumeration of window starts and
ends — the one place fixed punctuations are computed."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import PunctuationGrid

HORIZON = 4_000


def punctuations(schedules, horizon=HORIZON):
    """Every window start and end up to ``horizon``, one window at a time."""
    points = set()
    for origin, length, slide in schedules:
        start = origin
        while start <= horizon:
            points.add(start)
            if start + length <= horizon:
                points.add(start + length)
            start += slide
    return sorted(points)


def schedule(origins):
    """``(origin, length, slide)``: tumbling, or sliding with a slide that
    may or may not divide the length."""
    return st.tuples(
        origins, st.integers(1, 40), st.integers(1, 40), st.booleans()
    ).map(
        lambda draw: (
            draw[0],
            draw[1] * 10,
            draw[1] * 10 if draw[3] else min(draw[1], draw[2]) * 10,
        )
    )


MIXES = st.one_of(
    # one shared origin (a deployment), zero or not
    st.sampled_from([0, 300, 1_700]).flatmap(
        lambda origin: st.lists(schedule(st.just(origin)), min_size=1, max_size=5)
    ),
    # one origin per tracker (queries attached at runtime)
    st.lists(schedule(st.integers(0, 900)), min_size=1, max_size=5),
    st.just([(0, 400, 100), (0, 400, 200)]),
    st.just([(300, 250, 100), (300, 1_000, 1_000)]),
)


class TestAgainstEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(schedules=MIXES, times=st.lists(st.integers(-50, HORIZON - 500),
                                           min_size=1, max_size=30))
    def test_after_index_bounds(self, schedules, times):
        grid = PunctuationGrid(schedules)
        points = punctuations(schedules)
        for time in times:
            below = [p for p in points if p <= time]
            above = [p for p in points if p > time]
            assert grid.after(time) == above[0]
            assert grid.bounds(time) == (below[-1] if below else None, above[0])
            # indices number the cells in time order: equal inside a
            # cell, larger past every punctuation
            assert grid.index(time) >= len(below)
            assert grid.index(above[0] - 1) == grid.index(time)
            assert grid.index(above[0]) > grid.index(time)

    @settings(max_examples=100, deadline=None)
    @given(origin=st.sampled_from([0, 300, 1_700]),
           steps=st.lists(st.sampled_from([50, 100, 200, 400, 2_000]),
                          min_size=1, max_size=4),
           time=st.integers(0, HORIZON - 500))
    def test_nesting_periods_index_consecutively(self, origin, steps, time):
        """Tumbling windows whose lengths divide one another share the
        finest one's punctuations: the index counts them exactly."""
        schedules = [(origin, step, step) for step in steps]
        grid = PunctuationGrid(schedules)
        assert len(grid.progressions) == 1
        assert grid.index(time) == len(
            [p for p in punctuations(schedules) if p <= time]
        )

    def test_window_ends_only_exist_from_the_first_window_on(self):
        grid = PunctuationGrid([(0, 250, 100)])
        assert [grid.after(t) for t in (0, 100, 200, 250, 300)] == [
            100, 200, 250, 300, 350
        ]
        assert grid.bounds(120) == (100, 200)

    def test_empty_grid_has_no_punctuation(self):
        grid = PunctuationGrid()
        assert grid.after(0) is None
        assert grid.index(5_000) == 0
        assert grid.bounds(7) == (None, None)


class TestValueEquality:
    def test_equal_schedules_make_equal_grids(self):
        one = PunctuationGrid([(0, 400, 100), (0, 1_000, 1_000)])
        other = PunctuationGrid(iter([(0, 1_000, 1_000), (0, 400, 100), (0, 200, 100)]))
        assert one == other
        assert one != PunctuationGrid([(0, 400, 100), (50, 1_000, 1_000)])
        assert one != PunctuationGrid([(0, 450, 100)])
        assert one != object()

    def test_a_subscriber_inside_a_finer_schedule_adds_nothing(self):
        assert PunctuationGrid([(0, 100, 100), (0, 1_000, 1_000)]) == (
            PunctuationGrid([(0, 100, 100)])
        )
