"""Tests for causal span trees built over the flat trace recorder."""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterConfig, DesisCluster
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.network.simnet import FaultPlan
from repro.network.topology import three_tier
from repro.obs import (
    TraceRecorder,
    build_window_trace,
    build_window_traces,
    render_spans_jsonl,
    write_spans_jsonl,
)

from tests.cluster.test_desis_parity import TICK, make_streams

QUERIES = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)]


def run_traced(streams, **cfg):
    cfg.setdefault("tick_interval", TICK)
    cfg.setdefault("trace", True)
    cluster = DesisCluster(
        QUERIES, three_tier(3, 1), config=ClusterConfig(**cfg)
    )
    return cluster.run({k: list(v) for k, v in streams.items()})


class TestSpanTreeShape:
    @pytest.fixture(scope="class")
    def traced(self):
        streams = make_streams(3, 1_200)
        result = run_traced(streams)
        return result, build_window_traces(result.recorder, result.sink.results)

    def test_one_trace_per_explainable_window(self, traced):
        result, traces = traced
        assert len(traces) == len(result.sink.results)
        assert {t.trace_id for t in traces} == {
            f"{r.query_id}:{r.start}:{r.end}" for r in result.sink.results
        }

    def test_root_covers_ingest_to_emit(self, traced):
        _, traces = traced
        for trace in traces:
            root = trace.root
            assert root.name == "window"
            assert root.parent_id is None
            assert root.start == trace.ingested_at
            assert root.end == trace.emitted_at
            assert trace.latency == root.duration >= 0

    def test_children_sorted_and_parented(self, traced):
        _, traces = traced
        for trace in traces:
            ids = {trace.root.span_id}
            previous = -1
            for span in trace.spans[1:]:
                assert span.span_id > previous  # recorder-seq order
                previous = span.span_id
                assert span.parent_id in ids or span.parent_id == trace.root.span_id
                ids.add(span.span_id)
            # every child's parent is some earlier span in the same tree
            for span in trace.spans[1:]:
                assert span.parent_id in ids

    def test_expected_span_names_present(self, traced):
        _, traces = traced
        names = {s.name for t in traces for s in t.spans}
        # "send" spans come from the reliable channel, which only engages
        # under a fault plan (see TestSpanDeterminism).
        assert {"window", "slice", "ship", "transit",
                "merge", "consume"} <= names

    def test_transit_span_covers_the_hop(self, traced):
        _, traces = traced
        transits = [
            s for t in traces for s in t.spans if s.name == "transit"
        ]
        assert transits
        for span in transits:
            assert span.duration >= 0  # sender release -> delivery
            assert "->" in span.attrs.get("link", "")

    def test_untraced_window_raises_keyerror(self, traced):
        result, _ = traced

        class Fake:
            query_id, start, end = "nope", 0, 100

        with pytest.raises(KeyError):
            build_window_trace(result.recorder, Fake())


class TestSharedCloseSpans:
    def test_one_reuse_event_serves_every_subscriber(self):
        """AVG and MAX over one sliding schedule close together at the
        root: one ``merge.reuse`` event per close, found from either
        query's window, and ``root.consume`` says how many cells a batch
        touched."""
        queries = [
            Query.of("avg", WindowSpec.sliding(2_000, 500), AggFunction.AVERAGE),
            Query.of("max", WindowSpec.sliding(2_000, 500), AggFunction.MAX),
        ]
        cluster = DesisCluster(
            queries, three_tier(3, 1),
            config=ClusterConfig(tick_interval=TICK, trace=True),
        )
        result = cluster.run({k: list(v) for k, v in make_streams(3, 600).items()})
        reuses = list(result.recorder.events("merge.reuse"))
        assert {tuple(e.data["query_ids"]) for e in reuses} == {("avg", "max")}
        assert len(reuses) * 2 == len(result.sink.results)
        for row in result.sink.results:
            trace = build_window_trace(result.recorder, row)
            (reuse,) = [s for s in trace.spans if s.name == "reuse"]
            assert reuse.attrs["start"] == row.start
        consumes = list(result.recorder.events("root.consume"))
        assert consumes and all(
            1 <= e.data["cells"] <= e.data["records"] for e in consumes
        )


class TestSpanDeterminism:
    KWARGS = dict(
        fault_plan=None,
        node_timeout=10**9,
    )

    def _render(self, streams, seed):
        result = run_traced(
            streams,
            fault_plan=FaultPlan(
                seed=seed, drop_rate=0.05, jitter_ms=3.0, reorder_rate=0.1
            ),
            node_timeout=10**9,
        )
        traces = build_window_traces(result.recorder, result.sink.results)
        assert traces
        return render_spans_jsonl(traces)

    def test_same_seed_span_trees_byte_identical(self):
        streams = make_streams(3, 1_000)
        assert self._render(streams, 9) == self._render(streams, 9)

    def test_different_seed_span_trees_differ(self):
        streams = make_streams(3, 1_000)
        assert self._render(streams, 9) != self._render(streams, 10)

    def test_retransmits_attach_to_their_send(self):
        streams = make_streams(3, 1_500)
        result = run_traced(
            streams,
            fault_plan=FaultPlan(seed=3, drop_rate=0.08),
            node_timeout=10**9,
        )
        assert result.network.retransmits > 0
        traces = build_window_traces(result.recorder, result.sink.results)
        names = {s.name for t in traces for s in t.spans}
        assert "send" in names  # reliable channel engaged
        retrans = [
            (t, s) for t in traces for s in t.spans if s.name == "retransmit"
        ]
        assert retrans
        for trace, span in retrans:
            by_id = {s.span_id: s for s in trace.spans}
            parent = by_id[span.parent_id]
            assert parent.name in ("send", "window")
            if parent.name == "send":
                assert parent.attrs["link"] == span.attrs["link"]
                assert parent.attrs["seq"] == span.attrs["seq"]


class TestSpansJsonl:
    def test_round_trips_as_json_lines(self, tmp_path):
        streams = make_streams(3, 600)
        result = run_traced(streams)
        traces = build_window_traces(result.recorder, result.sink.results)
        out = tmp_path / "spans.jsonl"
        written = write_spans_jsonl(traces, str(out))
        assert written == len(traces)
        lines = out.read_text().splitlines()
        assert len(lines) == len(traces)
        for line, trace in zip(lines, traces):
            doc = json.loads(line)
            assert doc["trace_id"] == trace.trace_id
            assert doc["latency"] == trace.latency
            assert doc["spans"][0]["name"] == "window"
            assert len(doc["spans"]) == len(trace.spans)

    def test_empty_trace_list_writes_empty_file(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        assert write_spans_jsonl([], str(out)) == 0
        assert out.read_text() == ""

    def test_hand_built_trace(self):
        recorder = TraceRecorder()
        recorder.record("slice.close", 90, node="local-0", group=0,
                        index=0, start=0, end=100)
        recorder.record("partial.ship", 100, node="local-0", group=0,
                        first_seq=0, records=1, start=0, end=100)
        recorder.record("root.consume", 105, node="root", group=0,
                        records=1, start=0, end=100)
        recorder.record("window.emit", 106, node="root", group=0,
                        query_id="q", start=0, end=100, event_count=7)

        class Res:
            query_id, start, end = "q", 0, 100

        trace = build_window_trace(recorder, Res())
        assert trace.ingested_at == 0 and trace.emitted_at == 106
        by_name = {s.name: s for s in trace.spans}
        assert by_name["slice"].parent_id == trace.root.span_id
        assert by_name["ship"].parent_id == by_name["slice"].span_id
        # no transit recorded -> consume falls back to the root parent
        assert by_name["consume"].parent_id == trace.root.span_id
