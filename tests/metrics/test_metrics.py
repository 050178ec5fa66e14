"""Tests for throughput, latency, and network metrics."""

from __future__ import annotations

import pytest

from repro.baselines import CeBufferProcessor, DesisProcessor
from repro.core.errors import ReproError
from repro.core.event import Event
from repro.core.query import Query, WindowSpec
from repro.core.results import WindowResult
from repro.core.types import AggFunction, NodeRole
from repro.harness import fmt_bytes
from repro.metrics import (
    LatencyProbe,
    event_time_latencies,
    measure_throughput,
    modeled_sustainable_throughput,
    summarize,
)
from repro.network.simnet import NetworkStats

from tests.conftest import make_stream


def queries():
    return [Query.of("q", WindowSpec.tumbling(500), AggFunction.AVERAGE)]


class TestThroughput:
    def test_measure_counts_events_and_results(self):
        events = make_stream(500)
        result = measure_throughput(DesisProcessor(queries()), events)
        assert result.events == 500
        assert result.results > 0
        assert result.events_per_second > 0

    def test_close_time_split_out_of_process_time(self):
        events = make_stream(500)
        result = measure_throughput(DesisProcessor(queries()), events)
        assert result.process_seconds > 0
        assert result.close_seconds > 0
        assert result.seconds == pytest.approx(
            result.process_seconds + result.close_seconds
        )
        # the sustained rate bills the ingest loop only
        assert result.events_per_second == pytest.approx(
            result.events / result.process_seconds
        )

    def test_modeled_sustainable_is_minimum(self):
        assert modeled_sustainable_throughput(node_rates=[5e6, 2e6, 9e6]) == 2e6

    def test_bandwidth_cap_applies(self):
        # 1 Gbit/s ~ 125e6 B/s over 31-byte events -> ~4M events/s cap.
        capped = modeled_sustainable_throughput(
            node_rates=[10e6],
            bytes_per_event=31.0,
            link_bandwidth_bytes_per_s=125e6,
        )
        assert capped == pytest.approx(125e6 / 31.0)

    def test_empty_rates_rejected(self):
        with pytest.raises(ReproError):
            modeled_sustainable_throughput(node_rates=[])


class TestLatencyProbe:
    def test_collects_samples(self):
        events = make_stream(1_000)
        probe = LatencyProbe(sample_every=50)
        processor = DesisProcessor(queries(), sink=probe)
        for event in events:
            probe.on_ingest(event)
            processor.process(event)
        processor.close()
        summary = probe.summary()
        assert summary.count > 0
        assert 0 <= summary.p50 <= summary.p95 <= summary.p99 <= summary.max

    def test_cebuffer_latency_is_higher(self):
        """Fig 6a: buffer iteration at window end shows up as latency."""
        events = make_stream(8_000, dt_choices=(2,))
        big_window = [Query.of("q", WindowSpec.tumbling(4_000), AggFunction.AVERAGE)]

        def run(cls):
            probe = LatencyProbe(sample_every=200)
            processor = cls(big_window, sink=probe)
            for event in events:
                probe.on_ingest(event)
                processor.process(event)
            processor.close()
            return probe.summary()

        slow = run(CeBufferProcessor)
        fast = run(DesisProcessor)
        assert slow.count and fast.count
        # Not asserting a ratio (timing noise) but CeBuffer cannot be
        # dramatically faster at p95 than the incremental engine.
        assert slow.p95 >= fast.p95 * 0.5

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.count == 0 and summary.max == 0.0

    def test_percentiles_use_nearest_rank(self):
        # p99 of 10 samples is the 10th-smallest (ceil(0.99 * 10) = 10),
        # not the 9th that floor-indexing used to return.
        summary = summarize([float(i) for i in range(1, 11)])
        assert summary.p50 == 5.0
        assert summary.p95 == 10.0
        assert summary.p99 == 10.0
        # p50 of 2 samples is the 1st (ceil(0.5 * 2) = 1), never the min
        # by accident of flooring q * (n - 1) to index 0.
        assert summarize([1.0, 100.0]).p50 == 1.0
        assert summarize([7.0]).p50 == 7.0
        assert summarize([7.0]).p99 == 7.0

    def test_pending_samples_expire_past_the_horizon(self):
        probe = LatencyProbe(sample_every=1, expiry_horizon_ms=1_000)
        probe.on_ingest(Event(time=0, key="a", value=1.0))
        probe.on_ingest(Event(time=500, key="a", value=1.0))
        probe.on_ingest(Event(time=2_000, key="a", value=1.0))  # evicts 0, 500
        assert probe.expired_samples == 2
        assert [t for t, _ in probe._pending] == [2_000]
        # an expired sample can no longer match a late result
        probe.emit(WindowResult("q", 0, 100, 1.0, 1, emitted_at=100))
        assert probe.samples == []

    def test_no_horizon_keeps_everything(self):
        probe = LatencyProbe(sample_every=1, expiry_horizon_ms=None)
        probe.on_ingest(Event(time=0, key="a", value=1.0))
        probe.on_ingest(Event(time=10**9, key="a", value=1.0))
        assert probe.expired_samples == 0
        assert len(probe._pending) == 2


class TestEventTimeLatency:
    def test_positive_latencies_only(self):
        from repro.core.results import ResultSink

        sink = ResultSink()
        sink.emit(WindowResult("q", 0, 100, 1.0, 1, emitted_at=150))
        sink.emit(WindowResult("q", 0, 500, 1.0, 1, emitted_at=400))  # forced
        assert event_time_latencies(sink) == [50.0]

    def test_emit_at_window_end_counts_as_zero(self):
        from repro.core.results import ResultSink

        sink = ResultSink()
        sink.emit(WindowResult("q", 0, 100, 1.0, 1, emitted_at=100))
        assert event_time_latencies(sink) == [0.0]

    def test_empty_sink(self):
        from repro.core.results import ResultSink

        assert event_time_latencies(ResultSink()) == []


class TestNetworkBreakdown:
    def test_rollup(self):
        stats = NetworkStats(
            bytes_by_link={("a", "b"): 100, ("b", "c"): 40},
            messages_by_link={("a", "b"): 2, ("b", "c"): 1},
            bytes_from_role={NodeRole.LOCAL: 100, NodeRole.INTERMEDIATE: 40},
            data_bytes_from_role={NodeRole.LOCAL: 90, NodeRole.INTERMEDIATE: 40},
            control_bytes=10,
        )
        assert stats.local_bytes == 90
        assert stats.intermediate_bytes == 40
        assert stats.total_bytes == 140
        assert stats.data_bytes == 130

    def test_data_bytes_with_reliability_counters(self):
        # data_bytes stays total - control even when repair traffic is
        # in play: retransmits bill data, acks bill control.
        stats = NetworkStats(
            bytes_by_link={("a", "b"): 500},
            messages_by_link={("a", "b"): 5},
            bytes_from_role={NodeRole.LOCAL: 500},
            data_bytes_from_role={NodeRole.LOCAL: 420},
            control_bytes=80,
            drops=3,
            retransmits=2,
            retransmit_bytes=60,
            acks=4,
            ack_bytes=40,
            duplicates=1,
            duplicate_data_bytes=30,
            dedup_dropped=1,
        )
        assert stats.data_bytes == 420
        # goodput identity: payload minus repair and duplicate bytes
        assert (
            stats.goodput_data_bytes
            == stats.data_bytes - stats.retransmit_bytes - 30
        )

    def test_bandwidth_cap_ignored_without_both_inputs(self):
        assert (
            modeled_sustainable_throughput(
                node_rates=[5e6], bytes_per_event=31.0
            )
            == 5e6
        )
        assert (
            modeled_sustainable_throughput(
                node_rates=[5e6], link_bandwidth_bytes_per_s=125e6
            )
            == 5e6
        )
        # zero-sized events can never saturate the link
        assert (
            modeled_sustainable_throughput(
                node_rates=[5e6],
                bytes_per_event=0.0,
                link_bandwidth_bytes_per_s=125e6,
            )
            == 5e6
        )

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512.0 B"
        assert fmt_bytes(2_048) == "2.0 KB"
        assert fmt_bytes(3 * 1024**3) == "3.0 GB"

    def test_fmt_bytes_boundaries(self):
        assert fmt_bytes(0) == "0.0 B"
        assert fmt_bytes(1023) == "1023.0 B"
        assert fmt_bytes(1024) == "1.0 KB"
        assert fmt_bytes(1023.9) == "1023.9 B"
        assert fmt_bytes(1536) == "1.5 KB"
        assert fmt_bytes(-2_048) == "-2.0 KB"
        assert fmt_bytes(2 * 1024**4) == "2.0 TB"
