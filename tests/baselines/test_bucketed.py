"""Correctness tests for CeBuffer and DeBucket against the oracle."""

from __future__ import annotations

import pytest

from repro.baselines import CeBufferProcessor, DeBucketProcessor
from repro.conformance.oracle import naive_results
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure

from tests.conftest import make_stream

SYSTEMS = [CeBufferProcessor, DeBucketProcessor]

FUNCTIONS = [
    (AggFunction.SUM, None),
    (AggFunction.AVERAGE, None),
    (AggFunction.MAX, None),
    (AggFunction.MEDIAN, None),
    (AggFunction.QUANTILE, 0.75),
]


def run(cls, queries, events):
    processor = cls(queries)
    for event in events:
        processor.process(event)
    processor.close()
    return processor


def assert_matches_oracle(cls, queries, events):
    processor = run(cls, queries, events)
    for query in queries:
        expected = naive_results(query, events)
        got = [
            (r.start, r.end, r.value, r.event_count)
            for r in processor.sink.for_query(query.query_id)
        ]
        assert len(got) == len(expected), query.query_id
        for g, e in zip(sorted(got), sorted(expected, key=lambda x: (x[0], x[1]))):
            assert g[0] == e[0] and g[1] == e[1] and g[3] == e[3]
            if e[2] is None:
                assert g[2] is None
            else:
                assert g[2] == pytest.approx(e[2])
    return processor


@pytest.mark.parametrize("cls", SYSTEMS)
class TestAgainstOracle:
    @pytest.mark.parametrize("fn,quantile", FUNCTIONS)
    def test_tumbling(self, cls, fn, quantile):
        events = make_stream(500)
        queries = [Query.of("q", WindowSpec.tumbling(400), fn, quantile=quantile)]
        assert_matches_oracle(cls, queries, events)

    def test_sliding(self, cls):
        events = make_stream(500)
        queries = [Query.of("q", WindowSpec.sliding(600, 150), AggFunction.AVERAGE)]
        assert_matches_oracle(cls, queries, events)

    def test_session(self, cls):
        events = make_stream(500, gap_every=71, gap_dt=2_500)
        queries = [Query.of("q", WindowSpec.session(600), AggFunction.SUM)]
        assert_matches_oracle(cls, queries, events)

    def test_user_defined(self, cls):
        events = make_stream(400, marker_every=60)
        queries = [
            Query.of(
                "q", WindowSpec.user_defined(end_marker="trip_end"), AggFunction.MAX
            )
        ]
        assert_matches_oracle(cls, queries, events)

    def test_count_based(self, cls):
        events = make_stream(400)
        queries = [
            Query.of(
                "q",
                WindowSpec.tumbling(32, measure=WindowMeasure.COUNT),
                AggFunction.AVERAGE,
            )
        ]
        assert_matches_oracle(cls, queries, events)

    def test_selection(self, cls):
        events = make_stream(500, keys=("a", "b", "c"))
        queries = [
            Query.of(
                "q",
                WindowSpec.tumbling(300),
                AggFunction.COUNT,
                selection=Selection(key="b"),
            )
        ]
        assert_matches_oracle(cls, queries, events)

    def test_multiple_concurrent_queries(self, cls):
        events = make_stream(600, gap_every=80, gap_dt=2_500)
        queries = [
            Query.of("t1", WindowSpec.tumbling(300), AggFunction.SUM),
            Query.of("t2", WindowSpec.tumbling(700), AggFunction.AVERAGE),
            Query.of("sl", WindowSpec.sliding(500, 200), AggFunction.MAX),
            Query.of("se", WindowSpec.session(600), AggFunction.MEDIAN),
        ]
        assert_matches_oracle(cls, queries, events)


class TestWorkAccounting:
    def test_no_sharing_multiplies_inserts(self):
        """Two identical avg queries double DeBucket's work, unlike Desis."""
        from repro.baselines import DesisProcessor

        events = make_stream(300)
        queries = [
            Query.of("a", WindowSpec.tumbling(400), AggFunction.AVERAGE),
            Query.of("b", WindowSpec.tumbling(400), AggFunction.AVERAGE),
        ]
        debucket = run(DeBucketProcessor, queries, events)
        desis = run(DesisProcessor, queries, events)
        assert debucket.stats.calculations == 2 * desis.stats.calculations

    def test_cebuffer_counts_buffer_iterations(self):
        events = make_stream(300)
        queries = [Query.of("a", WindowSpec.tumbling(400), AggFunction.SUM)]
        cebuffer = run(CeBufferProcessor, queries, events)
        # Every event is iterated exactly once across the tumbling buffers.
        assert cebuffer.stats.calculations == len(events)

    def test_overlapping_sliding_windows_buffer_repeatedly(self):
        events = make_stream(300, dt_choices=(10,))
        queries = [Query.of("a", WindowSpec.sliding(1_000, 250), AggFunction.SUM)]
        cebuffer = run(CeBufferProcessor, queries, events)
        # Each event lives in ~4 overlapping windows; far more than one
        # calculation per event happens.
        assert cebuffer.stats.calculations > 3 * len(events)

    def test_bucket_slice_accounting(self):
        """Fig 8b: bucketed systems produce one slice per window."""
        events = make_stream(400)
        queries = [Query.of("a", WindowSpec.tumbling(200), AggFunction.SUM)]
        debucket = run(DeBucketProcessor, queries, events)
        assert debucket.stats.slices_closed == debucket.stats.windows_closed
