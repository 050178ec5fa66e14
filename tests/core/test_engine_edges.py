"""Engine edge cases: degenerate streams, identical timestamps, extremes."""

from __future__ import annotations

import pytest

from repro.conformance.oracle import naive_results
from repro.core.engine import AggregationEngine
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure


def run(queries, events):
    engine = AggregationEngine(queries)
    for event in events:
        engine.process(event)
    return engine.close()


class TestDegenerateStreams:
    def test_empty_stream(self):
        queries = [Query.of("q", WindowSpec.tumbling(100), AggFunction.SUM)]
        sink = run(queries, [])
        assert len(sink) == 0

    def test_single_event(self):
        queries = [
            Query.of("t", WindowSpec.tumbling(100), AggFunction.SUM),
            Query.of("s", WindowSpec.session(50), AggFunction.MAX),
        ]
        sink = run(queries, [Event(10, "a", 3.0)])
        assert [(r.query_id, r.value) for r in sorted(sink, key=lambda r: r.query_id)] == [
            ("s", 3.0),
            ("t", 3.0),
        ]

    def test_all_events_same_timestamp(self):
        events = [Event(100, "a", float(i)) for i in range(50)]
        queries = [
            Query.of("t", WindowSpec.tumbling(10), AggFunction.COUNT),
            Query.of(
                "c",
                WindowSpec.tumbling(20, measure=WindowMeasure.COUNT),
                AggFunction.COUNT,
            ),
        ]
        sink = run(queries, events)
        assert sum(r.value for r in sink.for_query("t")) == 50
        counts = [r.value for r in sink.for_query("c")]
        assert counts == [20, 20, 10]

    def test_no_matching_events(self):
        events = [Event(t, "other", 1.0) for t in range(0, 1_000, 10)]
        queries = [
            Query.of(
                "q",
                WindowSpec.tumbling(100),
                AggFunction.SUM,
                selection=Selection(key="wanted"),
            )
        ]
        assert len(run(queries, events)) == 0

    def test_huge_time_jump(self):
        events = [Event(0, "a", 1.0), Event(10_000_000, "a", 2.0)]
        queries = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)]
        sink = run(queries, events)
        assert len(sink) == 2  # only the two non-empty windows emitted

    def test_negative_values(self):
        events = [Event(t, "a", -float(t)) for t in range(0, 100, 10)]
        queries = [
            Query.of("min", WindowSpec.tumbling(1_000), AggFunction.MIN),
            Query.of("med", WindowSpec.tumbling(1_000), AggFunction.MEDIAN),
        ]
        sink = run(queries, events)
        assert sink.for_query("min")[0].value == -90.0
        assert sink.for_query("med")[0].value == -45.0


class TestBoundaryEvents:
    def test_event_on_window_boundary_goes_to_next_window(self):
        events = [Event(0, "a", 1.0), Event(100, "a", 2.0), Event(250, "a", 4.0)]
        queries = [Query.of("q", WindowSpec.tumbling(100), AggFunction.SUM)]
        sink = run(queries, events)
        by_start = {r.start: r.value for r in sink}
        assert by_start == {0: 1.0, 100: 2.0, 200: 4.0}

    def test_session_boundary_event_starts_new_session(self):
        gap = 100
        events = [Event(0, "a", 1.0), Event(100, "a", 2.0)]
        queries = [Query.of("q", WindowSpec.session(gap), AggFunction.SUM)]
        sink = run(queries, events)
        assert [r.value for r in sink] == [1.0, 2.0]

    def test_marker_event_included_in_its_window(self):
        events = [
            Event(0, "a", 1.0),
            Event(10, "a", 2.0, "end"),
            Event(20, "a", 4.0),
        ]
        queries = [
            Query.of("q", WindowSpec.user_defined(end_marker="end"), AggFunction.SUM)
        ]
        sink = run(queries, events)
        assert [r.value for r in sink] == [3.0, 4.0]

    def test_start_marker_windows_ignore_outside_events(self):
        events = [
            Event(0, "a", 1.0),          # before any trip: dropped
            Event(10, "a", 2.0, "go"),   # trip opens (inclusive)
            Event(20, "a", 4.0),
            Event(30, "a", 8.0, "end"),  # trip closes (inclusive)
            Event(40, "a", 16.0),        # between trips: dropped
        ]
        queries = [
            Query.of(
                "q",
                WindowSpec.user_defined(end_marker="end", start_marker="go"),
                AggFunction.SUM,
            )
        ]
        sink = run(queries, events)
        assert [r.value for r in sink] == [14.0]


class TestSelectionIsolation:
    def test_disjoint_ranges_share_group_with_exact_results(self):
        events = [Event(t, "k", float(t % 100)) for t in range(0, 3_000, 7)]
        fast = Query.of(
            "fast",
            WindowSpec.tumbling(500),
            AggFunction.COUNT,
            selection=Selection(lo=80.0),
        )
        slow = Query.of(
            "slow",
            WindowSpec.tumbling(500),
            AggFunction.COUNT,
            selection=Selection(hi=25.0),
        )
        engine = AggregationEngine([fast, slow])
        for event in events:
            engine.process(event)
        sink = engine.close()
        assert engine.group_count == 1
        for query in (fast, slow):
            expected = naive_results(query, events)
            got = [
                (r.start, r.end, r.value) for r in sink.for_query(query.query_id)
            ]
            assert got == [(s, e, v) for s, e, v, _ in expected]

    def test_value_range_and_key_combined(self):
        events = [
            Event(0, "speed", 90.0),
            Event(10, "speed", 50.0),
            Event(20, "temp", 95.0),
        ]
        query = Query.of(
            "q",
            WindowSpec.tumbling(1_000),
            AggFunction.COUNT,
            selection=Selection(key="speed", lo=80.0),
        )
        sink = run([query], events)
        assert sink.for_query("q")[0].value == 1
