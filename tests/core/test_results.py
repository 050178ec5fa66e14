"""Tests for result records and sinks."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.results import ResultSink, WindowResult


def result(qid="q", start=0, end=100, value=1.0, count=1):
    return WindowResult(
        query_id=qid, start=start, end=end, value=value, event_count=count
    )


class TestResultSink:
    def test_keeps_results_by_default(self):
        sink = ResultSink()
        sink.emit(result())
        sink.emit(result(qid="p"))
        assert len(sink) == 2
        assert [r.query_id for r in sink] == ["q", "p"]

    def test_keep_false_counts_only(self):
        sink = ResultSink(keep=False)
        for _ in range(5):
            sink.emit(result())
        assert len(sink) == 5
        assert list(sink) == []

    def test_for_query_filters(self):
        sink = ResultSink()
        sink.emit(result(qid="a"))
        sink.emit(result(qid="b"))
        sink.emit(result(qid="a", start=100))
        assert [r.start for r in sink.for_query("a")] == [0, 100]
        assert sink.for_query("nope") == []

    def test_str_shows_bounds_and_value(self):
        text = str(result(qid="avg", start=5, end=10, value=2.5, count=3))
        assert "avg" in text and "[5..10)" in text and "2.5" in text and "n=3" in text


class TestWindowResultContract:
    """One frozen, slotted, hashable record, however it is built."""

    def test_keyword_and_positional_builds_agree(self):
        shed = (("local-0", 10, 20),)
        by_keyword = WindowResult(
            query_id="q", start=0, end=100, value=-0.0, event_count=3,
            emitted_at=105, shed_slices=shed, completeness=0.5,
        )
        by_position = WindowResult("q", 0, 100, -0.0, 3, 105, shed, 0.5)
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert repr(by_keyword) == repr(by_position) == (
            "WindowResult(query_id='q', start=0, end=100, value=-0.0, "
            "event_count=3, emitted_at=105, "
            "shed_slices=(('local-0', 10, 20),), completeness=0.5)"
        )
        assert by_keyword != dataclasses.replace(by_keyword, value=0.5)

    def test_defaults_apply(self):
        bare = WindowResult("q", 0, 100, None)
        assert (bare.event_count, bare.emitted_at, bare.shed_slices,
                bare.completeness) == (0, 0, (), 1.0)
        assert not bare.degraded

    def test_frozen_and_slotted(self):
        record = result()
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.value = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.start
        assert not hasattr(record, "__dict__")

    def test_dataclass_helpers(self):
        record = result(value=2.5, count=4)
        assert [f.name for f in dataclasses.fields(WindowResult)] == [
            "query_id", "start", "end", "value", "event_count", "emitted_at",
            "shed_slices", "completeness",
        ]
        assert dataclasses.asdict(record) == {
            "query_id": "q", "start": 0, "end": 100, "value": 2.5,
            "event_count": 4, "emitted_at": 0, "shed_slices": (),
            "completeness": 1.0,
        }
        moved = dataclasses.replace(record, start=100, end=200)
        assert (moved.start, moved.end, moved.value) == (100, 200, 2.5)
        assert record.start == 0


class TestWindowTrackers:
    """Direct unit tests for the tracker state machines."""

    def test_fixed_tracker_schedule(self):
        from repro.core.query import Query, WindowSpec
        from repro.core.types import AggFunction
        from repro.core.windows import FixedWindowTracker

        query = Query.of("q", WindowSpec.sliding(1_000, 250), AggFunction.SUM)
        tracker = FixedWindowTracker(query, ctx=0)
        assert tracker.bootstrap(100) == 100
        # the schedule is its origin: starts at 100 + k * 250
        assert (tracker.origin, tracker.length, tracker.slide) == (100, 1_000, 250)
        assert not tracker.windows and tracker.opened == 0

    def test_session_tracker_generations(self):
        from repro.core.query import Query, WindowSpec
        from repro.core.types import AggFunction
        from repro.core.windows import SessionWindowTracker

        query = Query.of("s", WindowSpec.session(300), AggFunction.SUM)
        tracker = SessionWindowTracker(query, ctx=0)
        tracker.touch(100)
        first_generation = tracker.generation
        assert tracker.tentative_end == 400
        tracker.touch(250)
        assert tracker.generation == first_generation + 1
        assert tracker.tentative_end == 550

    def test_subscription_lifecycle(self):
        from repro.core.query import Query, WindowSpec
        from repro.core.types import AggFunction
        from repro.core.windows import FixedWindowTracker

        spec = WindowSpec.tumbling(100)
        q1 = Query.of("q1", spec, AggFunction.SUM)
        q2 = Query.of("q2", spec, AggFunction.AVERAGE)
        tracker = FixedWindowTracker(q1, ctx=0)
        tracker.subscribe(q2)
        assert tracker.snapshot() == (q1, q2)
        assert not tracker.unsubscribe("q1")
        assert tracker.unsubscribe("q2")  # now empty

    def test_count_tracker_sliding(self):
        from repro.core.query import Query, WindowSpec
        from repro.core.types import AggFunction, WindowMeasure
        from repro.core.windows import CountWindowTracker, WindowInstance

        query = Query.of(
            "c",
            WindowSpec.sliding(4, 2, measure=WindowMeasure.COUNT),
            AggFunction.SUM,
        )
        tracker = CountWindowTracker(query, ctx=0)
        full_log = []
        for i in range(8):
            if tracker.opens_now():
                window = WindowInstance(
                    uid=i,
                    queries=tracker.snapshot(),
                    ctx=0,
                    start=i,
                    end=None,
                    first_slice=0,
                    start_count=tracker.seen,
                )
                tracker.open_windows.append(window)
            full_log += [w.start_count for w in tracker.record()]
        # Windows of 4 events starting every 2: close after events 4, 6, 8.
        assert full_log == [0, 2, 4]
