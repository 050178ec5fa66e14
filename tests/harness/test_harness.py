"""Tests for the experiment harness and reporting helpers."""

from __future__ import annotations

import pytest

from repro.baselines import CENTRALIZED_SYSTEMS, DesisProcessor
from repro.core.types import AggFunction
from repro.harness import (
    fmt_ms,
    fmt_rate,
    print_table,
    quantile_queries,
    run_processor,
    run_systems,
    tumbling_queries,
)

from tests.conftest import make_stream


class TestQueryBuilders:
    def test_tumbling_queries_spread_lengths(self):
        queries = tumbling_queries(10)
        lengths = [q.window.length for q in queries]
        assert lengths[0] == 1_000
        assert lengths[-1] == 10_000
        assert lengths == sorted(lengths)

    def test_single_query(self):
        (query,) = tumbling_queries(1)
        assert query.window.length == 1_000

    def test_quantile_queries_are_distinct(self):
        queries = quantile_queries(100)
        assert len({q.function.quantile for q in queries}) == 100


class TestRunners:
    def test_run_processor_collects_stats(self):
        stats = run_processor(
            DesisProcessor, tumbling_queries(3), make_stream(400)
        )
        assert stats.name == "Desis"
        assert stats.results > 0
        assert stats.calculations > 0
        assert stats.events_per_second > 0
        assert stats.latency is None

    def test_run_processor_with_latency(self):
        stats = run_processor(
            DesisProcessor,
            tumbling_queries(2),
            make_stream(600),
            measure_latency=True,
            sample_every=50,
        )
        assert stats.latency is not None
        assert stats.latency.count > 0

    def test_run_systems_covers_all(self):
        rows = run_systems(
            CENTRALIZED_SYSTEMS, tumbling_queries(2), make_stream(300)
        )
        assert {r.name for r in rows} == set(CENTRALIZED_SYSTEMS)
        # All systems agree on results produced.
        assert len({r.results for r in rows}) == 1


class TestReporting:
    def test_fmt_rate(self):
        assert fmt_rate(2_500_000) == "2.50 M ev/s"
        assert fmt_rate(2_500) == "2.5 K ev/s"
        assert fmt_rate(25) == "25 ev/s"

    def test_fmt_ms(self):
        assert fmt_ms(0.0123) == "12.300 ms"

    def test_print_table(self, capsys):
        print_table("Fig X", ["system", "rate"], [["Desis", "1 M"], ["Scotty", "2 K"]])
        out = capsys.readouterr().out
        assert "Fig X" in out
        assert "Desis" in out and "Scotty" in out
