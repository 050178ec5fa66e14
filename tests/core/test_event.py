"""Tests for event records and stream helpers."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import AggregationEngine
from repro.core.errors import NaNValueError, OutOfOrderError
from repro.core.event import (
    Event,
    Watermark,
    ensure_ordered,
    holds_nan,
    merge_streams,
)
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction


class TestEvent:
    def test_fields(self):
        event = Event(5, "speed", 88.0, "trip_end")
        assert (event.time, event.key, event.value, event.marker) == (
            5,
            "speed",
            88.0,
            "trip_end",
        )

    def test_immutable(self):
        event = Event(1, "a", 1.0)
        with pytest.raises(AttributeError):
            event.time = 2  # type: ignore[misc]

    def test_marker_defaults_none(self):
        assert Event(1, "a", 1.0).marker is None


class TestNaNIsRefused:
    """NaN is refused where a value enters: by :class:`Event`, and by
    ``process_columns``, the one entry that takes values without one."""

    def test_an_event_refuses_nan(self):
        with pytest.raises(NaNValueError, match="t=7"):
            Event(7, "a", math.nan)
        with pytest.raises(ValueError):
            Event(7, "a", -math.nan, "end")

    def test_special_floats_are_values(self):
        for value in (math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-310):
            assert repr(Event(1, "a", value).value) == repr(value)

    def test_the_stream_that_made_sharing_visible_cannot_be_built(self):
        """4 000 events 1 ms apart, uniform on [0, 100) with 2 % NaN: the
        stream on which adding an unrelated query once moved 9 of 12
        MEDIAN/MAX/MIN rows."""
        rng = random.Random(7)
        rows = [
            (i, math.nan if rng.random() < 0.02 else rng.uniform(0.0, 100.0))
            for i in range(4_000)
        ]
        first = next(i for i, (_, value) in enumerate(rows) if math.isnan(value))
        built = []
        with pytest.raises(NaNValueError, match=f"t={first}:"):
            for time, value in rows:
                built.append(Event(time, "k", value))
        assert len(built) == first

    @staticmethod
    def engine():
        query = Query.of("s", WindowSpec.tumbling(10), AggFunction.MAX)
        return AggregationEngine([query])

    def test_a_column_holding_a_nan_is_refused_before_any_row_lands(self):
        engine = self.engine()
        with pytest.raises(NaNValueError):
            engine.process_columns([0, 5, 20], ["a"] * 3, [1.0, math.nan, 2.0])
        assert engine.stats.events == 0
        assert list(engine.close(100)) == []

    def test_a_column_holding_both_infinities_is_taken(self):
        engine = self.engine()
        engine.process_columns([0, 5, 20], ["a"] * 3, [-math.inf, math.inf, 0.0])
        assert engine.stats.events == 3
        assert [r.value for r in engine.close(100)] == [math.inf, 0.0]


def test_holds_nan_tells_a_nan_from_both_infinities():
    assert not holds_nan([-math.inf, 0.0, math.inf])
    assert not holds_nan([1.0, 2.0])
    assert not holds_nan([])
    assert holds_nan([1.0, math.nan, 0.5])
    assert holds_nan([-math.inf, math.nan, math.inf])


class TestEnsureOrdered:
    def test_passes_ordered(self):
        events = [Event(t, "a", 0.0) for t in (1, 1, 2, 5)]
        assert list(ensure_ordered(events)) == events

    def test_raises_on_regress(self):
        events = [Event(2, "a", 0.0), Event(1, "a", 0.0)]
        with pytest.raises(OutOfOrderError):
            list(ensure_ordered(events))


class TestMergeStreams:
    def test_merges_by_time(self):
        a = [Event(1, "a", 0.0), Event(4, "a", 0.0)]
        b = [Event(2, "b", 0.0), Event(3, "b", 0.0)]
        merged = list(merge_streams(a, b))
        assert [e.time for e in merged] == [1, 2, 3, 4]

    @given(
        st.lists(st.lists(st.integers(0, 1_000), max_size=30), max_size=4)
    )
    def test_merge_is_ordered_and_complete(self, time_lists):
        streams = [
            [Event(t, f"s{i}", 0.0) for t in sorted(times)]
            for i, times in enumerate(time_lists)
        ]
        merged = list(merge_streams(*streams))
        assert [e.time for e in merged] == sorted(
            t for times in time_lists for t in times
        )

    def test_ties_are_stable_by_stream(self):
        a = [Event(5, "a", 0.0)]
        b = [Event(5, "b", 0.0)]
        assert [e.key for e in merge_streams(a, b)] == ["a", "b"]


def test_watermark_record():
    assert Watermark(42).time == 42
