"""Tests for critical-path latency attribution and its exports."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import ClusterConfig, DesisCluster
from repro.core.engine import AggregationEngine
from repro.core.event import Event
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import three_tier
from repro.obs import (
    STAGES,
    MetricsRegistry,
    TraceRecorder,
    build_window_trace,
    build_window_traces,
    compute_critical_path,
    compute_critical_paths,
    publish_span_metrics,
    render_chrome_trace,
    render_spans_jsonl,
    render_waterfall,
    top_slowest,
)

from repro.obs.exporters import render_trace_jsonl
from tests.cluster.test_desis_parity import TICK, make_streams
from tests.cluster.test_pinned_deployments import record_multiset_sha

QUERIES = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)]


def run_traced(streams, **cfg):
    cfg.setdefault("tick_interval", TICK)
    cfg.setdefault("trace", True)
    cluster = DesisCluster(
        QUERIES, three_tier(3, 1), config=ClusterConfig(**cfg)
    )
    return cluster.run({k: list(v) for k, v in streams.items()})


def traced_paths(result):
    return compute_critical_paths(
        build_window_traces(result.recorder, result.sink.results)
    )


def assert_exact_attribution(path):
    """The tentpole invariant: stages sum to the emission latency."""
    assert sum(path.stage_totals().values()) == path.latency
    previous_end = path.ingested_at
    for segment in path.segments:
        assert segment.duration > 0
        assert segment.start == previous_end  # contiguous, earliest-first
        previous_end = segment.end
    if path.segments:
        assert path.segments[-1].end == path.emitted_at


class TestExactStageSum:
    def test_clean_cluster_run(self):
        streams = make_streams(3, 1_200)
        result = run_traced(streams)
        paths = traced_paths(result)
        assert len(paths) == len(result.sink.results)
        for path in paths:
            assert_exact_attribution(path)
            assert set(path.stage_totals()) == set(STAGES)

    def test_faulty_cluster_run_includes_retransmit_stage(self):
        streams = make_streams(3, 2_000)
        result = run_traced(
            streams,
            fault_plan=FaultPlan(
                seed=3, drop_rate=0.08, jitter_ms=3.0, reorder_rate=0.1
            ),
            node_timeout=10**9,
        )
        assert result.network.retransmits > 0
        paths = traced_paths(result)
        assert paths
        for path in paths:
            assert_exact_attribution(path)
        assert any(
            path.stage_totals()["retransmit"] > 0 for path in paths
        ), "no window was gated by a retransmitted hop"

    def test_engine_only_run(self):
        recorder = TraceRecorder()
        engine = AggregationEngine(QUERIES, recorder=recorder)
        for i in range(4_000):
            engine.process(Event(time=i, key="k", value=float(i % 7)))
        results = list(engine.close())
        assert len(results) > 2
        for result in results:
            path = compute_critical_path(build_window_trace(recorder, result))
            assert_exact_attribution(path)
            totals = path.stage_totals()
            # no network stages on a single engine
            assert totals["network"] == totals["retransmit"] == 0
            assert totals["root-assembly"] == 0

    def test_untraced_window_raises_keyerror(self):
        recorder = TraceRecorder()

        class Fake:
            query_id, start, end = "q", 0, 100

        with pytest.raises(KeyError):
            compute_critical_path(build_window_trace(recorder, Fake()))


class TestTopSlowest:
    def test_orders_by_latency_then_id(self):
        streams = make_streams(3, 1_500)
        result = run_traced(streams)
        traces = build_window_traces(result.recorder, result.sink.results)
        top = top_slowest(traces, n=3)
        assert len(top) == 3
        latencies = [p.latency for p in top]
        assert latencies == sorted(latencies, reverse=True)
        everything = top_slowest(traces, n=10**6)
        assert len(everything) == len(result.sink.results)
        assert everything[0].latency >= everything[-1].latency


class TestSpanMetrics:
    def test_publish_span_metrics(self):
        streams = make_streams(3, 1_200)
        result = run_traced(streams)
        paths = traced_paths(result)
        registry = MetricsRegistry()
        publish_span_metrics(registry, paths)
        assert registry.value("span.windows") == len(paths)
        stage_sum = sum(
            registry.value("span.stage_ms", stage=stage) for stage in STAGES
        )
        assert stage_sum == sum(p.latency for p in paths)
        histogram = registry.histogram("span.latency_ms")
        assert histogram.count == len(paths)
        assert histogram.sum == float(sum(p.latency for p in paths))


class TestRenderings:
    @pytest.fixture(scope="class")
    def traced(self):
        streams = make_streams(3, 1_200)
        result = run_traced(streams)
        return result

    def test_waterfall_lists_every_segment(self, traced):
        path = compute_critical_path(
            build_window_trace(traced.recorder, traced.sink.results[-1])
        )
        text = render_waterfall(path)
        lines = text.splitlines()
        assert f"{path.latency} ms" in lines[0]
        assert len(lines) == 1 + len(path.segments)
        for line, segment in zip(lines[1:], path.segments):
            assert segment.stage in line
            assert f"{segment.duration:>7} ms" in line
            assert "#" in line

    def test_waterfall_is_deterministic(self, traced):
        path = compute_critical_path(
            build_window_trace(traced.recorder, traced.sink.results[-1])
        )
        assert render_waterfall(path) == render_waterfall(path)

    def test_chrome_trace_export(self, traced):
        traces = build_window_traces(
            traced.recorder, traced.sink.results
        )
        document = json.loads(render_chrome_trace(traces))
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == sum(len(t.spans) for t in traces)
        thread_names = {m["args"]["name"] for m in metadata}
        assert {"root", "local-0"} <= thread_names
        for event in spans:
            assert event["ts"] % 1000 == 0  # sim-ms -> microseconds
            assert event["dur"] >= 0
            assert "trace_id" in event["args"]

    def test_chrome_trace_is_deterministic(self, traced):
        traces = build_window_traces(traced.recorder, traced.sink.results)
        assert render_chrome_trace(traces) == render_chrome_trace(traces)


class TestPinnedTraces:
    """Exact critical paths and span trees of three seeded runs.

    The stage-sum tests above hold an invariant; these pin the exact
    segments and spans, so a refactor of the span or path builders that
    moves one millisecond or one parent link fails here.  Every attribute
    is an integer or a string, so the digests do not depend on the
    interpreter's float arithmetic.
    """

    PINNED_QUERIES = [
        Query.of("t", WindowSpec.tumbling(1_000), AggFunction.SUM),
        Query.of("s", WindowSpec.sliding(2_000, 500), AggFunction.MIN),
    ]
    RUNS = {
        "clean": {},
        "faulty": dict(
            fault_plan=FaultPlan(
                seed=3, drop_rate=0.08, jitter_ms=3.0, reorder_rate=0.1
            ),
            node_timeout=10**9,
        ),
        "crash-recover": dict(
            fault_plan=FaultPlan(
                seed=2,
                crashes=(
                    CrashWindow("mid-0", 8_000, 12_000, lose_state=True),
                ),
            ),
            node_timeout=10**9,
            checkpoint_interval=3_000,
        ),
        # a slow link and a tight credit window: stalls and sheds
        "overload": dict(
            fault_plan=FaultPlan(seed=7),
            node_timeout=10**9,
            channel_credit_bytes=1_500,
            channel_credit_frames=6,
            staging_limit=4,
            latency_ms=20.0,
            bandwidth_bytes_per_ms=0.2,
        ),
    }
    #: run -> (windows, sha256 of the paths' to_dict(), sha256 of the
    #: spans, sha256 of the trace's records as a multiset)
    PINS = {
        "clean": (
            50,
            "ac9a8e3f8c0e130368ddb30d7f717f7c74b8fe825bc30ed2c5f678ec9e88c866",
            "56064c007a3be2c8dd4f6a32dada92a1c5343071706c6672873244e245bbc512",
            "3c24412de2aa2c00d92bfadbf5f00fadfc23ae98a38e3eaf133bf04665049839",
        ),
        "faulty": (
            50,
            "f2ed12f741d3664a7d740a0cb78ed2b86b81ae7c0d6637778a319cd9e759339b",
            "dcbd7c521bc2b4d7c09051a4f9902459b65e112d16c8453a7b7ca8f8ac5a5cad",
            "293c4682789127f1b091d6154e021efd0563ba9780a28cea21fe0da5e56190ab",
        ),
        "crash-recover": (
            50,
            "596cf776295d1481622bc2eda47c235449cac8682a3a3e3c56c927b797ef26cd",
            "53c8dd5aa4fe69da9c6ae8ec19414120be5c48d43908807d2b488b5bf3e08533",
            "6a79c0987b08a68dce58d144e2bc48d91c7ec62376947f8ea52528435a33d818",
        ),
        "overload": (
            50,
            "b3599778141170dc8fdc7ecf9b719e35bfb95ff5597c4c026c0b5f84d7e135bb",
            "e9c845a39a8c637decc8a4865fa520f8c285304aad802f2321b6c0e2f720e4ba",
            "f81cf1ac9c735f2429087cfba9b33dcbadb076da5a25e29652d1d232c459e599",
        ),
    }

    @staticmethod
    def _digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_paths_and_spans_are_pinned(self, run):
        cfg = dict(self.RUNS[run], tick_interval=TICK, trace=True)
        result = DesisCluster(
            self.PINNED_QUERIES, three_tier(3, 1), config=ClusterConfig(**cfg)
        ).run({k: list(v) for k, v in make_streams(3, 2_000).items()})
        traces = build_window_traces(result.recorder, result.sink.results)
        paths = compute_critical_paths(traces)
        assert len(traces) == len(paths) == len(result.sink.results)
        stages = {stage for path in paths for stage in path.stage_totals()
                  if path.stage_totals()[stage]}
        spans = {span.name for trace in traces for span in trace.spans}
        expected = {
            "clean": result.network.retransmits == 0,
            "faulty": "retransmit" in stages,
            "crash-recover": result.recoveries == 1 and "recover" in spans,
            "overload": "credit-stall" in stages and "shed" in spans,
        }
        assert expected[run]
        got = (
            len(paths),
            self._digest(json.dumps([path.to_dict() for path in paths])),
            self._digest(render_spans_jsonl(traces)),
            record_multiset_sha(render_trace_jsonl(result.recorder)),
        )
        assert got == self.PINS[run]


class TestWalkBranches:
    def test_stall_and_shed_are_carved_out_of_queue(self):
        """A credit stall and a shed on the shipping node, both after the
        gating cut, split its queue time; the walk is exact."""
        recorder = TraceRecorder()
        recorder.record("slice.close", 90, node="local-0", group=0,
                        index=0, start=0, end=100)
        recorder.record("buffer.shed", 93, node="local-0", group=0,
                        start=0, end=100, records=1)
        recorder.record("credit.stall", 96, node="local-0",
                        link="local-0->root")
        recorder.record("partial.ship", 100, node="local-0", group=0,
                        first_seq=0, records=1, start=0, end=100)
        recorder.record("net.transit", 110, group=0, link="local-0->root",
                        first_seq=0, start=0, end=100)
        recorder.record("root.consume", 112, node="root", group=0,
                        records=1, start=0, end=100)
        recorder.record("window.emit", 115, node="root", group=0,
                        query_id="q", start=0, end=100, event_count=3)

        class Res:
            query_id, start, end = "q", 0, 100

        path = compute_critical_path(build_window_trace(recorder, Res()))
        assert [
            (s.stage, s.start, s.end, s.node or s.link)
            for s in path.segments
        ] == [
            ("slicing", 0, 90, "local-0"),
            ("queue", 90, 93, "local-0"),
            ("shed", 93, 96, "local-0"),
            ("credit-stall", 96, 100, "local-0"),
            ("network", 100, 110, "local-0->root"),
            ("merge", 110, 112, "root"),
            ("root-assembly", 112, 115, "root"),
        ]
