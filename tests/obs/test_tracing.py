"""Tests for the slice-lifecycle trace recorder and window provenance.

A window's provenance is its span tree (:mod:`repro.obs.spans`); the
tests here check what the tree keeps of the raw ring.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, DesisCluster
from repro.core.query import Query, WindowSpec
from repro.core.results import WindowResult
from repro.core.types import AggFunction
from repro.network.simnet import FaultPlan
from repro.network.topology import three_tier
from repro.obs import (
    NULL_RECORDER,
    TraceRecorder,
    build_window_trace,
    render_trace_jsonl,
)

from tests.cluster.test_desis_parity import TICK, make_streams


class TestRecorder:
    def test_records_in_sequence_order(self):
        recorder = TraceRecorder()
        recorder.record("slice.close", 100, node="n0", group=0, index=0)
        recorder.record("window.emit", 200, node="n0", group=0)
        events = list(recorder.events())
        assert [e.seq for e in events] == [1, 2]
        assert [e.at for e in events] == [100, 200]

    def test_filters_by_kind_group_node(self):
        recorder = TraceRecorder()
        recorder.record("slice.close", 1, node="a", group=0)
        recorder.record("slice.close", 2, node="b", group=1)
        recorder.record("window.emit", 3, node="a", group=0)
        assert len(list(recorder.events("slice.close"))) == 2
        assert len(list(recorder.events(group=1))) == 1
        assert len(list(recorder.events("slice.close", node="a"))) == 1

    def test_ring_buffer_evicts_oldest_and_counts(self):
        recorder = TraceRecorder(capacity=3)
        for i in range(5):
            recorder.record("slice.close", i, node="n", group=0)
        assert len(recorder) == 3
        assert recorder.dropped == 2
        assert [e.at for e in recorder.events()] == [2, 3, 4]
        assert next(iter(recorder.events())).seq == 3  # seq keeps counting

    def test_clear_resets(self):
        recorder = TraceRecorder(capacity=2)
        for i in range(4):
            recorder.record("x", i)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.dropped == 0

    def test_first_eviction_warns_once(self, caplog):
        recorder = TraceRecorder(capacity=2)
        with caplog.at_level("WARNING", logger="repro.obs.tracing"):
            for i in range(6):
                recorder.record("x", i)
        warnings = [
            r for r in caplog.records if "ring buffer full" in r.getMessage()
        ]
        assert len(warnings) == 1  # 4 evictions, one warning
        assert "capacity=2" in warnings[0].getMessage()
        assert recorder.dropped == 4

    def test_clear_rearms_the_eviction_warning(self, caplog):
        recorder = TraceRecorder(capacity=1)
        with caplog.at_level("WARNING", logger="repro.obs.tracing"):
            recorder.record("x", 0)
            recorder.record("x", 1)
            recorder.clear()
            recorder.record("x", 2)
            recorder.record("x", 3)
        warnings = [
            r for r in caplog.records if "ring buffer full" in r.getMessage()
        ]
        assert len(warnings) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_null_recorder_is_shared_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.record("slice.close", 1, node="n", group=0)
        assert len(NULL_RECORDER) == 0


class TestExplainWindow:
    def _trace_one_window(self):
        recorder = TraceRecorder()
        recorder.record("slice.close", 90, node="local-0", group=0,
                        index=0, start=0, end=100)
        recorder.record("slice.close", 95, node="local-1", group=0,
                        index=0, start=0, end=100)
        recorder.record("slice.close", 95, node="local-1", group=1,
                        index=0, start=0, end=100)  # other group: excluded
        recorder.record("partial.ship", 100, node="local-0", group=0,
                        first_seq=0, records=1, start=0, end=100)
        recorder.record("net.retransmit", 101, link="local-0->root", seq=0,
                        attempt=1)
        recorder.record("root.consume", 105, node="root", group=0,
                        records=2, start=0, end=100)
        recorder.record("window.emit", 106, node="root", group=0,
                        query_id="q", start=0, end=100, event_count=7)
        recorder.record("slice.close", 190, node="local-0", group=0,
                        index=1, start=100, end=200)  # later slice: excluded
        return recorder

    def test_provenance_contents(self):
        recorder = self._trace_one_window()
        result = WindowResult("q", 0, 100, 1.0, 7, emitted_at=106)
        trace = build_window_trace(recorder, result)
        slices = trace.named("slice")
        assert [s.node for s in slices] == ["local-0", "local-1"]
        assert [s.name for s in trace.spans[1:] if s.name != "slice"] == [
            "ship", "retransmit", "consume"
        ]
        assert [r.attrs["link"] for r in trace.named("retransmit")] == [
            "local-0->root"
        ]
        assert trace.emitted_at == 106
        assert trace.root.attrs["event_count"] == 7

    def test_untraced_window_raises(self):
        recorder = self._trace_one_window()
        missing = WindowResult("q", 500, 600, 1.0, 1, emitted_at=601)
        with pytest.raises(KeyError):
            build_window_trace(recorder, missing)

    def test_empty_span_slice_counts_once(self):
        recorder = TraceRecorder()
        recorder.record("slice.close", 100, node="n", group=0,
                        index=0, start=100, end=100)  # boundary cut, no span
        recorder.record("window.emit", 101, node="root", group=0,
                        query_id="q", start=0, end=200, event_count=0)
        trace = build_window_trace(
            recorder, WindowResult("q", 0, 200, 0.0, 0, emitted_at=101)
        )
        assert len(trace.named("slice")) == 1
        # ... but not for a window the empty cut sits outside of
        recorder.record("window.emit", 201, node="root", group=0,
                        query_id="q", start=200, end=400, event_count=0)
        trace = build_window_trace(
            recorder, WindowResult("q", 200, 400, 0.0, 0, emitted_at=201)
        )
        assert trace.named("slice") == []


QUERIES = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)]


def run_traced(streams, **cfg):
    cfg.setdefault("tick_interval", TICK)
    cfg.setdefault("trace", True)
    cluster = DesisCluster(
        QUERIES, three_tier(3, 1), config=ClusterConfig(**cfg)
    )
    return cluster.run({k: list(v) for k, v in streams.items()})


class TestClusterTracing:
    def test_trace_off_by_default(self):
        streams = make_streams(3, 200)
        result = run_traced(streams, trace=False)
        assert result.recorder is NULL_RECORDER
        assert len(result.recorder) == 0

    def test_traced_run_captures_full_lifecycle(self):
        streams = make_streams(3, 400)
        result = run_traced(streams)
        kinds = {e.kind for e in result.recorder.events()}
        assert {"slice.close", "partial.ship", "merge.release",
                "root.consume", "window.emit"} <= kinds

    def test_window_provenance_on_faulty_run(self):
        """The acceptance scenario: full provenance under >=1% drop."""
        streams = make_streams(3, 1_500)
        result = run_traced(
            streams,
            fault_plan=FaultPlan(seed=3, drop_rate=0.05),
            node_timeout=10**9,
        )
        assert result.network.retransmits > 0
        assert len(result.sink) > 1
        trace = build_window_trace(result.recorder, result.sink.results[-1])
        slices = trace.named("slice")
        assert sorted({s.node for s in slices}) == [
            "local-0", "local-1", "local-2"
        ]
        hops = [s for s in trace.spans if s.name in ("ship", "merge", "consume")]
        assert slices and hops
        # hop timestamps are simulated ms, causally ordered
        assert all(h.end <= trace.emitted_at for h in hops)
        assert trace.named("retransmit")

    def test_same_seed_traces_are_byte_identical(self):
        streams = make_streams(3, 800)
        kwargs = dict(
            fault_plan=FaultPlan(seed=9, drop_rate=0.05, jitter_ms=3.0),
            node_timeout=10**9,
        )
        first = run_traced(streams, **kwargs)
        second = run_traced(streams, **kwargs)
        assert len(first.recorder) > 0
        assert render_trace_jsonl(first.recorder) == render_trace_jsonl(
            second.recorder
        )
