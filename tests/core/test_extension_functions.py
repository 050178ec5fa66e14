"""Tests for the user-defined operator extension: variance and stddev.

Sec 4.2.1: "for complex aggregation functions, users can define new
operators to break down functions".  Variance/stddev decompose into
{sum, count, sum_of_squares}, so they share per-event work with
average/sum/count queries and push down in decentralized mode.
"""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.conformance.oracle import naive_results
from repro.core.engine import AggregationEngine
from repro.core.functions import FunctionSpec, is_decomposable, plan_operators
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind, SharingPolicy

from tests.conftest import make_stream

K = OperatorKind


class TestDecomposition:
    def test_variance_operators(self):
        plan = plan_operators([FunctionSpec(AggFunction.VARIANCE)])
        assert set(plan) == {K.SUM, K.COUNT, K.SUM_OF_SQUARES}

    def test_shares_with_average(self):
        """avg + variance + stddev need only one extra operator over avg."""
        plan = plan_operators(
            [
                FunctionSpec(AggFunction.AVERAGE),
                FunctionSpec(AggFunction.VARIANCE),
                FunctionSpec(AggFunction.STDDEV),
            ]
        )
        assert set(plan) == {K.SUM, K.COUNT, K.SUM_OF_SQUARES}

    def test_decomposable(self):
        assert is_decomposable(FunctionSpec(AggFunction.VARIANCE))
        assert is_decomposable(FunctionSpec(AggFunction.STDDEV))


class TestCorrectness:
    @pytest.mark.parametrize("fn", [AggFunction.VARIANCE, AggFunction.STDDEV])
    def test_matches_oracle(self, fn):
        events = make_stream(500)
        queries = [Query.of("q", WindowSpec.tumbling(400), fn)]
        engine = AggregationEngine(queries)
        for event in events:
            engine.process(event)
        sink = engine.close()
        expected = naive_results(queries[0], events)
        got = [(r.start, r.end, r.value) for r in sink.for_query("q")]
        assert len(got) == len(expected)
        for (gs, ge, gv), (es, ee, ev, _) in zip(got, expected):
            assert (gs, ge) == (es, ee)
            assert gv == pytest.approx(ev, abs=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=60,
        )
    )
    def test_variance_matches_statistics(self, values):
        from repro.core.event import Event

        events = [Event(i, "a", v) for i, v in enumerate(values)]
        queries = [
            Query.of("q", WindowSpec.tumbling(len(values) + 1), AggFunction.VARIANCE)
        ]
        engine = AggregationEngine(queries)
        for event in events:
            engine.process(event)
        (result,) = engine.close().for_query("q")
        assert result.value == pytest.approx(
            statistics.pvariance(values), abs=1e-6, rel=1e-6
        )

    def test_shared_calculations_with_average(self):
        events = make_stream(400)
        queries = [
            Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE),
            Query.of("var", WindowSpec.tumbling(700), AggFunction.VARIANCE),
            Query.of("std", WindowSpec.tumbling(900), AggFunction.STDDEV),
        ]
        engine = AggregationEngine(queries)
        for event in events:
            engine.process(event)
        engine.close()
        # Three operators per event serve all three queries.
        assert engine.stats.calculations == 3 * len(events)


class TestIntegration:
    def test_parser_accepts_stddev(self):
        from repro.interface import parse_query

        query = parse_query(
            "SELECT STDDEV(value) FROM stream WINDOW TUMBLING 5s", query_id="q"
        )
        assert query.function.fn is AggFunction.STDDEV

    def test_decentralized_variance_parity(self):
        from repro.cluster import ClusterConfig, DesisCluster
        from repro.core.event import merge_streams
        from repro.network.topology import three_tier

        from tests.cluster.test_desis_parity import TICK, make_streams

        queries = [Query.of("v", WindowSpec.tumbling(1_000), AggFunction.VARIANCE)]
        streams = make_streams(3, 300)
        result = DesisCluster(
            queries, three_tier(3, 1), config=ClusterConfig(tick_interval=TICK)
        ).run(streams)
        merged = list(merge_streams(*streams.values()))
        engine = AggregationEngine(queries)
        engine.advance(0)
        for event in merged:
            engine.process(event)
        sink = engine.close(((merged[-1].time // TICK) + 1) * TICK)
        got = sorted(
            (r.start, r.end, r.event_count, round(float(r.value), 9))
            for r in result.sink
        )
        expected = sorted(
            (r.start, r.end, r.event_count, round(float(r.value), 9))
            for r in sink
        )
        assert got == expected
