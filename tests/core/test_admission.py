"""One admission path: a query enters an engine the same way at
construction and at runtime (``QueryPlan.admit``, then
``GroupRuntime.add_query``), so a running query's operator kinds never
change and building an engine stays linear in its query count."""

from __future__ import annotations

import time

from repro.core.engine import AggregationEngine
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind
from repro.harness import tumbling_queries

SECOND = WindowSpec.tumbling(1_000)


def ingest(engine, start, stop):
    """One event every 10 ms in ``[start, stop]``, valued at its time."""
    for t in range(start, stop + 1, 10):
        engine.process(Event(t, "k", float(t)))


def value(sink, query_id, start):
    (row,) = [r for r in sink.for_query(query_id) if r.start == start]
    return row.value


class TestRuntimeAdmission:
    def test_min_keeps_reading_the_sort_it_was_planned_on(self):
        """MIN reads the group's non-decomposable sort.  Adding MAX after
        the MEDIAN that planned it is gone must not append the decomposable
        sort: the open window's first slices never computed one."""
        engine = AggregationEngine([
            Query.of("qm", SECOND, AggFunction.MEDIAN),
            Query.of("qmin", SECOND, AggFunction.MIN),
        ])
        ingest(engine, 0, 1_490)
        engine.remove_query("qm")
        engine.add_query(Query.of("qmax", SECOND, AggFunction.MAX))
        ingest(engine, 1_500, 2_490)
        sink = engine.close()
        assert value(sink, "qmin", 1_000) == 1_000.0
        assert engine.groups[0].operators == (OperatorKind.NON_DECOMPOSABLE_SORT,)
        assert value(sink, "qmax", 2_000) == 2_490.0

    def test_readding_a_draining_id_leaves_its_windows_alone(self):
        """A draining MEDIAN window finalizes by the query it was opened
        for, not by a new query that took the same id."""
        engine = AggregationEngine([
            Query.of("q0", SECOND, AggFunction.SUM),
            Query.of("q1", SECOND, AggFunction.MEDIAN),
        ])
        ingest(engine, 0, 1_490)
        engine.remove_query("q1", drain=True)
        engine.add_query(Query.of("q1", SECOND, AggFunction.SUM))
        ingest(engine, 1_500, 2_490)
        sink = engine.close()
        assert value(sink, "q1", 1_000) == 1_495.0
        assert value(sink, "q1", 2_000) == sum(range(2_000, 2_491, 10))

    def test_a_deduplicating_context_added_at_runtime_deduplicates(self):
        """Runtime admission takes a new context's deduplication operator
        along with its selection, as construction does."""
        engine = AggregationEngine([Query.of("q0", SECOND, AggFunction.COUNT)])
        engine.process(Event(0, "k", 1.0))
        engine.add_query(Query.of(
            "qd", SECOND, AggFunction.COUNT,
            selection=Selection(deduplicate=True),
        ))
        for t in (1_000, 1_000, 1_500, 1_500):
            engine.process(Event(t, "k", 2.0))
        sink = engine.close()
        assert value(sink, "qd", 1_000) == 2
        assert value(sink, "q0", 1_000) == 4
        assert engine.stats.duplicates_dropped == 2


class TestScale:
    def test_adds_at_one_stream_time_cut_at_most_once(self):
        """Queries joining existing contexts and kinds cut no slice of
        their own; new window lengths all start at the one stream time."""
        engine = AggregationEngine(tumbling_queries(10))
        ingest(engine, 0, 4_990)
        before = engine.stats.slices_closed
        for i in range(500):
            engine.add_query(Query.of(
                f"n{i}", WindowSpec.tumbling(1_000 * (i % 20 + 1)),
                AggFunction.AVERAGE,
            ))
        engine.advance(4_990)
        assert engine.stats.slices_closed - before <= 1
        ingest(engine, 5_000, 25_990)
        sink = engine.close()
        assert sink.for_query("n0") and sink.for_query("n19")

    def test_construction_is_linear(self):
        """Ten times the queries build in well under thirty times the
        time: linear gives ~10, a per-query copy of every subscriber ~50."""

        def build(n):
            queries = tumbling_queries(n)
            started = time.perf_counter()
            AggregationEngine(queries)
            return time.perf_counter() - started

        small = min(build(10_000) for _ in range(3))
        assert build(100_000) / small < 30
