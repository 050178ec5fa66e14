"""Tests for window deduplication: identical windows share one instance."""

from __future__ import annotations

import pytest

from repro.core.engine import AggregationEngine
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction

from tests.conftest import make_stream


def run(queries, events):
    engine = AggregationEngine(queries)
    for event in events:
        engine.process(event)
    return engine, engine.close()


class TestDeduplication:
    def test_identical_windows_share_an_instance(self):
        queries = [
            Query.of(f"q{i}", WindowSpec.tumbling(500), AggFunction.AVERAGE)
            for i in range(100)
        ]
        events = make_stream(300, dt_choices=(10,))
        engine, sink = run(queries, events)
        # One tracker, one window instance per 500ms — but 100 results.
        runtime = engine.groups[0]
        assert len(runtime.fixed) == 1
        assert engine.stats.windows_closed * 100 == engine.stats.results
        first_window_results = [r for r in sink if r.start == events[0].time]
        assert len(first_window_results) == 100
        assert len({r.value for r in first_window_results}) == 1

    def test_different_functions_share_window_not_result(self):
        spec = WindowSpec.tumbling(1_000)
        queries = [
            Query.of("avg", spec, AggFunction.AVERAGE),
            Query.of("sum", spec, AggFunction.SUM),
            Query.of("max", spec, AggFunction.MAX),
        ]
        events = [Event(0, "a", 2.0), Event(100, "a", 4.0), Event(1_500, "a", 0.0)]
        engine, sink = run(queries, events)
        assert len(engine.groups[0].fixed) == 1
        assert sink.for_query("avg")[0].value == 3.0
        assert sink.for_query("sum")[0].value == 6.0
        assert sink.for_query("max")[0].value == 4.0

    def test_different_selections_do_not_share(self):
        spec = WindowSpec.tumbling(1_000)
        queries = [
            Query.of("a", spec, AggFunction.SUM, selection=Selection(key="a")),
            Query.of("b", spec, AggFunction.SUM, selection=Selection(key="b")),
        ]
        engine, _ = run(queries, [Event(0, "a", 1.0), Event(1_500, "b", 1.0)])
        assert len(engine.groups[0].fixed) == 2

    def test_different_lengths_do_not_share(self):
        queries = [
            Query.of("a", WindowSpec.tumbling(1_000), AggFunction.SUM),
            Query.of("b", WindowSpec.tumbling(2_000), AggFunction.SUM),
        ]
        engine, _ = run(queries, [Event(0, "a", 1.0), Event(2_500, "a", 1.0)])
        assert len(engine.groups[0].fixed) == 2

    def test_session_subscribers_share_gap_tracking(self):
        queries = [
            Query.of(f"s{i}", WindowSpec.session(300), AggFunction.COUNT)
            for i in range(5)
        ]
        events = [Event(0, "a", 1.0), Event(100, "a", 1.0), Event(1_000, "a", 1.0)]
        engine, sink = run(queries, events)
        assert len(engine.groups[0].sessions) == 1
        for i in range(5):
            counts = [r.value for r in sink.for_query(f"s{i}")]
            assert counts == [2, 1]


class TestRuntimeInteraction:
    def test_removed_subscriber_stops_receiving(self):
        spec = WindowSpec.tumbling(500)
        queries = [
            Query.of("keep", spec, AggFunction.SUM),
            Query.of("drop", spec, AggFunction.SUM),
        ]
        engine = AggregationEngine(queries)
        engine.process(Event(0, "a", 1.0))
        engine.remove_query("drop")
        engine.process(Event(600, "a", 2.0))
        sink = engine.close()
        assert len(sink.for_query("keep")) == 2
        assert len(sink.for_query("drop")) == 0  # window was still open

    def test_drain_removal_finishes_open_windows(self):
        """Sec 3.2: removal may 'wait for the last window to end'."""
        spec = WindowSpec.tumbling(500)
        engine = AggregationEngine([Query.of("q", spec, AggFunction.SUM)])
        engine.process(Event(0, "a", 1.0))
        engine.remove_query("q", drain=True)
        engine.process(Event(100, "a", 2.0))   # still in the open window
        engine.process(Event(700, "a", 4.0))   # a new window q never joins
        sink = engine.close()
        results = sink.for_query("q")
        assert [r.value for r in results] == [3.0]  # open window completed

    def test_drain_removal_with_shared_tracker(self):
        spec = WindowSpec.tumbling(500)
        engine = AggregationEngine(
            [
                Query.of("keep", spec, AggFunction.SUM),
                Query.of("drop", spec, AggFunction.SUM),
            ]
        )
        engine.process(Event(0, "a", 1.0))
        engine.remove_query("drop", drain=True)
        engine.process(Event(700, "a", 2.0))
        sink = engine.close()
        assert len(sink.for_query("drop")) == 1  # the draining window only
        assert len(sink.for_query("keep")) == 2

    def test_late_subscriber_joins_next_window(self):
        spec = WindowSpec.tumbling(500)
        engine = AggregationEngine([Query.of("early", spec, AggFunction.SUM)])
        engine.process(Event(0, "a", 1.0))
        engine.add_query(Query.of("late", spec, AggFunction.SUM))
        engine.process(Event(100, "a", 2.0))   # still window [0, 500)
        engine.process(Event(600, "a", 4.0))   # window [500, 1000)
        sink = engine.close()
        assert [r.value for r in sink.for_query("early")] == [3.0, 4.0]
        assert [r.value for r in sink.for_query("late")] == [4.0]

    @pytest.mark.parametrize("change", ["join", "leave_drain", "leave_now", "swap"])
    def test_subscriber_change_on_a_shared_sliding_tracker(self, change):
        """A query joins or leaves a sliding tracker whose windows overlap
        by 16: every subscriber's rows are those of an engine running that
        query alone, cut to the windows it was subscribed to.  Each window
        merges the kinds of the subscribers it opened with — a join adds
        SUM and COUNT to a MAX tracker, a draining leaver keeps its kind
        after leaving, a ``drain=False`` leaver is stripped from the windows
        it had joined, and in a swap the windows of the leaver and of the
        joiner, as many subscribers each, close one after the other."""
        spec = WindowSpec.sliding(400, 25)
        stay = Query.of("stay", spec, AggFunction.MAX)
        joiner = Query.of("joiner", spec, AggFunction.AVERAGE)
        leaver = Query.of(
            "leaver", spec,
            AggFunction.COUNT if change == "leave_now" else AggFunction.SUM,
        )
        events = make_stream(1_500, dt_choices=(2, 5, 9))
        cut = 600
        at = events[cut - 1].time
        engine = AggregationEngine([stay] if change == "join" else [stay, leaver])
        engine.process_batch(events[:cut])
        if change != "join":
            engine.remove_query("leaver", drain=change != "leave_now")
        if change in ("join", "swap"):
            engine.add_query(joiner)
        engine.process_batch(events[cut:])
        engine.close()
        assert len(engine.groups[0].fixed) == 1

        subscribed = {
            "stay": lambda r: True,
            "joiner": lambda r: r.start > at,
            "leaver": (
                (lambda r: r.end <= at) if change == "leave_now"
                else (lambda r: r.start <= at)
            ),
        }
        for query in (stay, joiner, leaver):
            alone = AggregationEngine([query])
            alone.process_batch(events)
            expected = [r for r in alone.close() if subscribed[query.query_id](r)]
            if query is joiner and change not in ("join", "swap"):
                expected = []
            if query is leaver and change == "join":
                expected = []
            assert [
                (r.start, r.end, repr(r.value), r.event_count)
                for r in engine.sink.for_query(query.query_id)
            ] == [
                (r.start, r.end, repr(r.value), r.event_count) for r in expected
            ], query.query_id

    def test_scaling_many_identical_queries_is_cheap(self):
        """10k identical queries: one shared tracker, per-query work only
        at result materialization (the paper's 'millions of queries')."""
        queries = [
            Query.of(f"q{i}", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)
            for i in range(10_000)
        ]
        events = [Event(t, "a", 1.0) for t in range(0, 2_000, 50)]
        engine, sink = run(queries, events)
        assert engine.stats.calculations == 2 * len(events)  # sum + count
        assert engine.stats.windows_closed == 2
        assert engine.stats.results == 20_000
