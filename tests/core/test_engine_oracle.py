"""Engine-vs-oracle correctness tests: every window type and function.

Each test runs the full sliced, shared engine and the naive oracle on the
same stream and compares every emitted window (bounds, value, and event
count).  This is the central correctness evidence for the aggregation
engine.
"""

from __future__ import annotations

import pytest

from repro.conformance.oracle import naive_results
from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, SharingPolicy, WindowMeasure

from tests.conftest import make_stream


def run_engine(queries, events, *, policy=SharingPolicy.FULL):
    engine = AggregationEngine(queries, config=EngineConfig(policy=policy))
    for event in events:
        engine.process(event)
    return engine.close(), engine


def assert_matches_oracle(queries, events, *, policy=SharingPolicy.FULL):
    sink, engine = run_engine(queries, events, policy=policy)
    for query in queries:
        expected = naive_results(query, events)
        got = [
            (r.start, r.end, r.value, r.event_count)
            for r in sink.for_query(query.query_id)
        ]
        assert len(got) == len(expected), (
            f"{query.query_id}: {len(got)} results, oracle says {len(expected)}"
        )
        for (gs, ge, gv, gn), (es, ee, ev_, en) in zip(got, expected):
            assert (gs, ge, gn) == (es, ee, en), query.query_id
            if ev_ is None:
                assert gv is None
            else:
                assert gv == pytest.approx(ev_), query.query_id
    return engine


FUNCTIONS = [
    (AggFunction.SUM, None),
    (AggFunction.COUNT, None),
    (AggFunction.AVERAGE, None),
    (AggFunction.MAX, None),
    (AggFunction.MIN, None),
    (AggFunction.MEDIAN, None),
    (AggFunction.QUANTILE, 0.25),
]


class TestTumbling:
    @pytest.mark.parametrize("fn,quantile", FUNCTIONS)
    def test_every_function(self, fn, quantile):
        events = make_stream(600)
        queries = [Query.of("q", WindowSpec.tumbling(500), fn, quantile=quantile)]
        assert_matches_oracle(queries, events)

    def test_multiple_lengths(self):
        events = make_stream(800)
        queries = [
            Query.of(f"q{i}", WindowSpec.tumbling(100 * i), AggFunction.AVERAGE)
            for i in range(1, 8)
        ]
        assert_matches_oracle(queries, events)

    def test_with_selection(self):
        events = make_stream(700, keys=("a", "b", "c"))
        queries = [
            Query.of(
                "qa",
                WindowSpec.tumbling(400),
                AggFunction.SUM,
                selection=Selection(key="a"),
            ),
            Query.of(
                "qb",
                WindowSpec.tumbling(400),
                AggFunction.SUM,
                selection=Selection(key="b"),
            ),
        ]
        engine = assert_matches_oracle(queries, events)
        # Disjoint key selections share one group with two contexts.
        assert engine.group_count == 1

    def test_product_and_geomean(self):
        events = [
            e for e in make_stream(300, value_mod=7)
        ]
        # Shift values into [1, 8) so products stay finite and positive.
        events = [
            type(e)(e.time, e.key, e.value + 1.0, e.marker) for e in events
        ]
        queries = [
            Query.of("p", WindowSpec.tumbling(50), AggFunction.PRODUCT),
            Query.of("g", WindowSpec.tumbling(50), AggFunction.GEOMETRIC_MEAN),
        ]
        assert_matches_oracle(queries, events)

    def test_negative_geomean_window_is_none_and_spares_the_others(self):
        """One negative value makes its window's geometric mean undefined
        (``None``, engine and oracle alike); the run goes on, and a SUM
        beside it reads the rows it reads alone."""
        events = [
            type(e)(e.time, e.key, e.value + 1.0, e.marker)
            for e in make_stream(300, value_mod=7)
        ]
        events[40] = type(events[40])(events[40].time, "a", -2.0)
        total = Query.of("s", WindowSpec.tumbling(50), AggFunction.SUM)
        queries = [
            total,
            Query.of("g", WindowSpec.tumbling(50), AggFunction.GEOMETRIC_MEAN),
        ]
        sink, _ = run_engine(queries, events)
        alone, _ = run_engine([total], events)
        assert sink.for_query("s") == alone.for_query("s")
        undefined = [r for r in sink.for_query("g") if r.value is None]
        assert len(undefined) == 1
        assert undefined[0].start <= events[40].time < undefined[0].end
        assert_matches_oracle(queries, events)


class TestSliding:
    @pytest.mark.parametrize("fn,quantile", FUNCTIONS)
    def test_every_function(self, fn, quantile):
        events = make_stream(600)
        queries = [
            Query.of("q", WindowSpec.sliding(600, 150), fn, quantile=quantile)
        ]
        assert_matches_oracle(queries, events)

    def test_slide_larger_than_length(self):
        """Sampling windows: slide > length leaves gaps between windows."""
        events = make_stream(600)
        queries = [Query.of("q", WindowSpec.sliding(100, 300), AggFunction.SUM)]
        assert_matches_oracle(queries, events)

    def test_many_overlapping_slides(self):
        events = make_stream(500)
        queries = [
            Query.of(f"q{i}", WindowSpec.sliding(1_000, 100 + 50 * i), AggFunction.MAX)
            for i in range(5)
        ]
        assert_matches_oracle(queries, events)


class TestSession:
    @pytest.mark.parametrize("fn,quantile", FUNCTIONS)
    def test_every_function(self, fn, quantile):
        events = make_stream(600, gap_every=83, gap_dt=2_000)
        queries = [Query.of("q", WindowSpec.session(500), fn, quantile=quantile)]
        assert_matches_oracle(queries, events)

    def test_per_key_sessions(self):
        events = make_stream(700, keys=("a", "b"), gap_every=61, gap_dt=3_000)
        queries = [
            Query.of(
                "sa",
                WindowSpec.session(800),
                AggFunction.COUNT,
                selection=Selection(key="a"),
            ),
            Query.of(
                "sb",
                WindowSpec.session(800),
                AggFunction.COUNT,
                selection=Selection(key="b"),
            ),
        ]
        assert_matches_oracle(queries, events)

    def test_session_closed_by_time_passing_not_only_matches(self):
        """A non-matching event advancing time still closes an idle session."""
        from repro.core.event import Event

        events = [
            Event(0, "a", 1.0),
            Event(100, "a", 2.0),
            Event(5_000, "b", 9.0),  # key b: closes a's session by time
            Event(5_100, "a", 3.0),
        ]
        queries = [
            Query.of(
                "s",
                WindowSpec.session(300),
                AggFunction.SUM,
                selection=Selection(key="a"),
            )
        ]
        sink, _ = run_engine(queries, events)
        results = sink.for_query("s")
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 400, 3.0),
            (5_100, 5_100, 3.0),
        ]


class TestUserDefined:
    @pytest.mark.parametrize("fn,quantile", FUNCTIONS)
    def test_every_function(self, fn, quantile):
        events = make_stream(600, marker_every=75)
        queries = [
            Query.of(
                "q", WindowSpec.user_defined(end_marker="trip_end"), fn,
                quantile=quantile,
            )
        ]
        assert_matches_oracle(queries, events)

    def test_back_to_back_windows(self):
        events = make_stream(400, marker_every=50)
        queries = [
            Query.of(
                "q", WindowSpec.user_defined(end_marker="trip_end"), AggFunction.MAX
            )
        ]
        sink, _ = run_engine(queries, events)
        results = sink.for_query("q")
        # Windows are contiguous in sequence: 8 complete trips of 50 events.
        assert len(results) == 8
        assert all(r.event_count == 50 for r in results)


class TestCountBased:
    @pytest.mark.parametrize("fn,quantile", FUNCTIONS)
    def test_tumbling_count(self, fn, quantile):
        events = make_stream(600)
        queries = [
            Query.of(
                "q",
                WindowSpec.tumbling(64, measure=WindowMeasure.COUNT),
                fn,
                quantile=quantile,
            )
        ]
        assert_matches_oracle(queries, events)

    def test_sliding_count(self):
        events = make_stream(500)
        queries = [
            Query.of(
                "q",
                WindowSpec.sliding(100, 25, measure=WindowMeasure.COUNT),
                AggFunction.AVERAGE,
            )
        ]
        assert_matches_oracle(queries, events)

    def test_count_with_selection_counts_matching_only(self):
        events = make_stream(600, keys=("a", "b"))
        queries = [
            Query.of(
                "q",
                WindowSpec.tumbling(40, measure=WindowMeasure.COUNT),
                AggFunction.SUM,
                selection=Selection(key="a"),
            )
        ]
        assert_matches_oracle(queries, events)


class TestMixedWorkload:
    """The Fig 3 scenario: five window types in one query-group."""

    def queries(self):
        return [
            Query.of("qa", WindowSpec.tumbling(900), AggFunction.MAX),
            Query.of("qb", WindowSpec.sliding(1_200, 300), AggFunction.MEDIAN),
            Query.of("qc", WindowSpec.session(700), AggFunction.SUM),
            Query.of(
                "qd", WindowSpec.user_defined(end_marker="trip_end"), AggFunction.COUNT
            ),
            Query.of(
                "qe",
                WindowSpec.tumbling(50, measure=WindowMeasure.COUNT),
                AggFunction.AVERAGE,
            ),
        ]

    def test_one_group_correct_results(self):
        events = make_stream(900, gap_every=111, gap_dt=2_500, marker_every=80)
        engine = assert_matches_oracle(self.queries(), events)
        assert engine.group_count == 1

    def test_policies_produce_identical_results(self):
        """Sharing changes work, never answers: all policies agree."""
        events = make_stream(500, gap_every=90, gap_dt=2_500)
        queries = [q for q in self.queries() if q.query_id != "qd"]
        outputs = []
        for policy in SharingPolicy:
            sink, _ = run_engine(queries, events, policy=policy)
            outputs.append(
                sorted((r.query_id, r.start, r.end, r.value) for r in sink)
            )
        assert all(out == outputs[0] for out in outputs[1:])
