"""Tests for the engine's *work* under sharing: calculations, slices, stats.

These encode the mechanisms behind Figures 8 and 9: sharing changes how
much work is done per event, which the stats counters expose.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine, required_kinds
from repro.core.errors import EngineError, QueryError
from repro.core.event import Event
from repro.core.functions import FunctionSpec
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind, SharingPolicy

from tests.conftest import make_stream

K = OperatorKind


def run(queries, events, policy=SharingPolicy.FULL):
    engine = AggregationEngine(queries, config=EngineConfig(policy=policy))
    for event in events:
        engine.process(event)
    engine.close()
    return engine


class TestCalculationSharing:
    def test_avg_plus_sum_two_ops_vs_three(self):
        """Fig 9b: Desis runs 2 operators per event, DeSW-style runs 3."""
        events = make_stream(400)
        queries = [
            Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE),
            Query.of("sum", WindowSpec.tumbling(700), AggFunction.SUM),
        ]
        shared = run(queries, events, SharingPolicy.FULL)
        split = run(queries, events, SharingPolicy.SAME_FUNCTION)
        n = len(events)
        assert shared.stats.calculations == 2 * n  # sum + count once
        assert split.stats.calculations == 3 * n  # (sum+count) + sum

    def test_many_quantiles_one_sort(self):
        """Fig 9d: 50 quantile queries -> 1 operator per event under Desis."""
        events = make_stream(300)
        queries = [
            Query.of(
                f"q{i}",
                WindowSpec.tumbling(500),
                AggFunction.QUANTILE,
                quantile=(i + 1) / 51,
            )
            for i in range(50)
        ]
        shared = run(queries, events, SharingPolicy.FULL)
        split = run(queries, events, SharingPolicy.SAME_FUNCTION)
        n = len(events)
        assert shared.stats.calculations == n
        assert split.stats.calculations == 50 * n
        assert shared.group_count == 1
        assert split.group_count == 50

    def test_quantile_plus_max_share_sort(self):
        """Fig 9g: quantile and max share the non-decomposable sort."""
        events = make_stream(300)
        queries = [
            Query.of("q", WindowSpec.tumbling(500), AggFunction.QUANTILE, quantile=0.9),
            Query.of("m", WindowSpec.tumbling(500), AggFunction.MAX),
        ]
        shared = run(queries, events, SharingPolicy.FULL)
        assert shared.stats.calculations == len(events)  # one ndsort insert


class TestSliceCounts:
    def test_concurrent_tumbling_windows_share_slices(self):
        """Fig 8b: slice count is bounded by distinct punctuations, not by
        the number of concurrent windows."""
        events = make_stream(2_000, dt_choices=(10,))
        lengths = [1_000 * i for i in range(1, 11)]
        queries = [
            Query.of(f"q{i}", WindowSpec.tumbling(length), AggFunction.AVERAGE)
            for i, length in enumerate(lengths)
        ]
        one = run([queries[0]], events)
        many = run(queries, events)
        # Punctuations of lengths 2..10s are a subset of the 1s schedule,
        # so the shared slice count stays exactly the single-query count.
        assert many.stats.slices_closed == one.stats.slices_closed
        assert many.stats.results > one.stats.results

    def test_unshared_buckets_multiply_slices(self):
        events = make_stream(1_000, dt_choices=(10,))
        queries = [
            Query.of(f"q{i}", WindowSpec.tumbling(1_000 * (i + 1)), AggFunction.SUM)
            for i in range(5)
        ]
        shared = run(queries, events, SharingPolicy.FULL)
        isolated = run(queries, events, SharingPolicy.NONE)
        assert isolated.stats.slices_closed > shared.stats.slices_closed


class TestRequiredKinds:
    def test_subset_selection(self):
        q = Query.of("a", WindowSpec.tumbling(10), AggFunction.AVERAGE)
        planned = (K.SUM, K.COUNT, K.NON_DECOMPOSABLE_SORT)
        assert required_kinds(q, planned) == (K.SUM, K.COUNT)

    def test_dsort_substitution(self):
        q = Query.of("a", WindowSpec.tumbling(10), AggFunction.MIN)
        assert required_kinds(q, (K.NON_DECOMPOSABLE_SORT,)) == (
            K.NON_DECOMPOSABLE_SORT,
        )

    def test_missing_operator_raises(self):
        q = Query.of("a", WindowSpec.tumbling(10), AggFunction.AVERAGE)
        with pytest.raises(EngineError):
            required_kinds(q, (K.SUM,))


class TestRuntimeQueries:
    def test_add_query_mid_stream(self):
        events = make_stream(600, dt_choices=(10,))
        engine = AggregationEngine(
            [Query.of("q0", WindowSpec.tumbling(500), AggFunction.SUM)]
        )
        half = len(events) // 2
        for event in events[:half]:
            engine.process(event)
        engine.add_query(
            Query.of("q1", WindowSpec.tumbling(300), AggFunction.MEDIAN)
        )
        for event in events[half:]:
            engine.process(event)
        sink = engine.close()
        assert sink.for_query("q0")  # original query unaffected
        late = sink.for_query("q1")
        assert late
        # The late query only sees events from its arrival on.
        assert min(r.start for r in late) >= events[half - 1].time

    def test_add_duplicate_id_rejected(self):
        engine = AggregationEngine(
            [Query.of("q0", WindowSpec.tumbling(500), AggFunction.SUM)]
        )
        with pytest.raises(QueryError):
            engine.add_query(
                Query.of("q0", WindowSpec.tumbling(100), AggFunction.SUM)
            )

    def test_remove_query_mid_stream(self):
        events = make_stream(600, dt_choices=(10,))
        engine = AggregationEngine(
            [
                Query.of("keep", WindowSpec.tumbling(500), AggFunction.SUM),
                Query.of("drop", WindowSpec.tumbling(500), AggFunction.SUM),
            ]
        )
        half = len(events) // 2
        for event in events[:half]:
            engine.process(event)
        engine.remove_query("drop")
        for event in events[half:]:
            engine.process(event)
        sink = engine.close()
        kept = sink.for_query("keep")
        dropped = sink.for_query("drop")
        assert max(r.end for r in kept) > events[half].time
        assert all(r.end <= events[half].time for r in dropped)

    def test_close_twice_raises(self):
        engine = AggregationEngine(
            [Query.of("q", WindowSpec.tumbling(10), AggFunction.SUM)]
        )
        engine.process(Event(0, "a", 1.0))
        engine.close()
        with pytest.raises(EngineError):
            engine.close()

    def test_a_closed_engine_takes_nothing_more(self):
        # Every entry point refuses, and neither the returned sink nor the
        # counters move.
        engine = AggregationEngine(
            [Query.of("q", WindowSpec.tumbling(10), AggFunction.SUM)]
        )
        for t in (0, 10, 20):
            engine.process(Event(t, "a", 1.0))
        sink = engine.close()
        results, stats = list(sink.results), replace(engine.stats)
        assert len(results) == 3
        for call in (
            lambda: engine.process(Event(30, "a", 1.0)),
            lambda: engine.process_batch([Event(30, "a", 1.0)]),
            lambda: engine.process_many([Event(30, "a", 1.0)]),
            lambda: engine.process_columns([30], ["a"], [1.0]),
            lambda: engine.advance(40),
            lambda: engine.close(),
            lambda: engine.add_query(
                Query.of("late", WindowSpec.tumbling(10), AggFunction.COUNT)
            ),
            lambda: engine.remove_query("q"),
        ):
            with pytest.raises(EngineError, match="already closed"):
                call()
        assert sink.results == results
        assert engine.stats == stats
        assert [q.query_id for q in engine.plan.queries] == ["q"]

    def test_added_query_new_group_when_incompatible(self):
        engine = AggregationEngine(
            [Query.of("q0", WindowSpec.tumbling(100), AggFunction.SUM)],
            config=EngineConfig(policy=SharingPolicy.SAME_FUNCTION),
        )
        engine.process(Event(0, "a", 1.0))
        engine.add_query(
            Query.of("q1", WindowSpec.tumbling(100), AggFunction.AVERAGE)
        )
        assert engine.group_count == 2
        engine.process(Event(50, "a", 2.0))
        engine.process(Event(250, "a", 3.0))
        sink = engine.close()
        assert sink.for_query("q1")


class TestEmitEmpty:
    def test_empty_windows_suppressed_by_default(self):
        events = [Event(0, "a", 1.0), Event(5_000, "a", 2.0)]
        queries = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)]
        engine = AggregationEngine(queries)
        for event in events:
            engine.process(event)
        sink = engine.close()
        assert len(sink.for_query("q")) == 2  # only the two non-empty windows

    def test_emit_empty_true_emits_all(self):
        events = [Event(0, "a", 1.0), Event(5_000, "a", 2.0)]
        queries = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)]
        engine = AggregationEngine(queries, config=EngineConfig(emit_empty=True))
        for event in events:
            engine.process(event)
        sink = engine.close()
        results = sink.for_query("q")
        assert len(results) == 6  # windows 0..5s inclusive of the open one
        assert sum(1 for r in results if r.event_count == 0) == 4
