"""Property-based tests: random streams and queries vs the oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.oracle import naive_results
from repro.core.engine import AggregationEngine
from repro.core.errors import OutOfOrderError
from repro.core.event import Event
from repro.core.functions import FunctionSpec
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, SharingPolicy, WindowMeasure


@st.composite
def streams(draw, min_events=5, max_events=120):
    n = draw(st.integers(min_events, max_events))
    deltas = draw(
        st.lists(
            st.integers(0, 400), min_size=n, max_size=n
        )
    )
    keys = draw(
        st.lists(st.sampled_from(["a", "b"]), min_size=n, max_size=n)
    )
    values = draw(
        st.lists(
            st.integers(-50, 50).map(float), min_size=n, max_size=n
        )
    )
    markers = draw(
        st.lists(
            st.sampled_from([None, None, None, "end"]), min_size=n, max_size=n
        )
    )
    events = []
    t = 0
    for dt, key, value, marker in zip(deltas, keys, values, markers):
        t += dt
        events.append(Event(t, key, value, marker))
    return events


@st.composite
def window_specs(draw):
    kind = draw(st.sampled_from(["tumbling", "sliding", "session", "userdef", "count"]))
    if kind == "tumbling":
        return WindowSpec.tumbling(draw(st.integers(50, 1_000)))
    if kind == "sliding":
        length = draw(st.integers(100, 1_000))
        slide = draw(st.integers(25, 800))
        return WindowSpec.sliding(length, slide)
    if kind == "session":
        return WindowSpec.session(draw(st.integers(50, 600)))
    if kind == "userdef":
        return WindowSpec.user_defined(end_marker="end")
    return WindowSpec.tumbling(
        draw(st.integers(3, 40)), measure=WindowMeasure.COUNT
    )


@st.composite
def query_lists(draw, max_queries=4):
    n = draw(st.integers(1, max_queries))
    queries = []
    for i in range(n):
        spec = draw(window_specs())
        fn = draw(
            st.sampled_from(
                [
                    AggFunction.SUM,
                    AggFunction.COUNT,
                    AggFunction.AVERAGE,
                    AggFunction.MIN,
                    AggFunction.MAX,
                    AggFunction.MEDIAN,
                ]
            )
        )
        selection = draw(
            st.sampled_from([Selection(), Selection(key="a"), Selection(key="b")])
        )
        queries.append(
            Query(
                query_id=f"q{i}",
                window=spec,
                function=FunctionSpec(fn),
                selection=selection,
            )
        )
    return queries


def _run(queries, events, policy=SharingPolicy.FULL):
    engine = AggregationEngine(queries, policy=policy)
    for event in events:
        engine.process(event)
    return engine.close()


@settings(max_examples=120, deadline=None)
@given(events=streams(), queries=query_lists())
def test_engine_matches_oracle_on_random_workloads(events, queries):
    sink = _run(queries, events)
    for query in queries:
        expected = naive_results(query, events)
        got = [
            (r.start, r.end, r.value, r.event_count)
            for r in sink.for_query(query.query_id)
        ]
        assert len(got) == len(expected), query.query_id
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[1] == e[1] and g[3] == e[3]
            if e[2] is None:
                assert g[2] is None
            else:
                assert g[2] == pytest.approx(e[2])


@settings(max_examples=60, deadline=None)
@given(events=streams(), queries=query_lists(max_queries=3))
def test_policies_agree_on_random_workloads(events, queries):
    """Sharing policy affects cost only, never results."""
    baseline = sorted(
        (r.query_id, r.start, r.end, r.event_count, r.value)
        for r in _run(queries, events, SharingPolicy.FULL)
    )
    for policy in (SharingPolicy.SAME_FUNCTION, SharingPolicy.NONE):
        other = sorted(
            (r.query_id, r.start, r.end, r.event_count, r.value)
            for r in _run(queries, events, policy)
        )
        assert other == baseline


@settings(max_examples=60, deadline=None)
@given(events=streams(min_events=10), queries=query_lists(max_queries=3))
def test_watermarks_are_transparent(events, queries):
    """Interleaving advance() calls never changes the emitted results."""
    plain = sorted(
        (r.query_id, r.start, r.end, r.value) for r in _run(queries, events)
    )
    engine = AggregationEngine(queries)
    for index, event in enumerate(events):
        engine.process(event)
        if index % 7 == 0:
            engine.advance(event.time)
    ticked = sorted(
        (r.query_id, r.start, r.end, r.value) for r in engine.close()
    )
    assert ticked == plain


@settings(max_examples=40, deadline=None)
@given(events=streams(min_events=20))
def test_slice_store_is_bounded(events):
    """Slice GC keeps the store bounded by open-window coverage."""
    queries = [
        Query.of("t", WindowSpec.tumbling(200), AggFunction.SUM),
        Query.of("s", WindowSpec.sliding(400, 100), AggFunction.AVERAGE),
    ]
    engine = AggregationEngine(queries)
    for event in events:
        engine.process(event)
        for group in engine.groups:
            # 400ms sliding window over >=100ms slices: never more than a
            # handful of live slices plus bookkeeping slack.
            assert len(group.store) <= 64
    engine.close()


def test_out_of_order_event_raises():
    queries = [Query.of("t", WindowSpec.tumbling(100), AggFunction.SUM)]
    engine = AggregationEngine(queries)
    engine.process(Event(1_000, "a", 1.0))
    with pytest.raises(OutOfOrderError):
        engine.process(Event(999, "a", 1.0))


def test_out_of_order_watermark_raises():
    queries = [Query.of("t", WindowSpec.tumbling(100), AggFunction.SUM)]
    engine = AggregationEngine(queries)
    engine.process(Event(1_000, "a", 1.0))
    with pytest.raises(OutOfOrderError):
        engine.advance(500)
