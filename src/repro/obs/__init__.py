"""Observability: metrics registry, slice-lifecycle tracing, exporters.

See DESIGN.md ("Observability") for the metric name catalogue and the
trace event schema.  The package is dependency-free and safe to import
from every layer; the shared :data:`NULL_RECORDER` keeps instrumented
hot paths free when tracing is off.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    publish_cluster_result,
    publish_conformance_counters,
    publish_engine_stats,
    publish_latency_summary,
    publish_network_stats,
    publish_shard_stats,
)
from repro.obs.tracing import (
    NULL_RECORDER,
    TraceEvent,
    TraceRecorder,
    WindowProvenance,
)
from repro.obs.spans import (
    Span,
    WindowTrace,
    build_window_trace,
    build_window_traces,
    render_spans_jsonl,
    write_spans_jsonl,
)
from repro.obs.critical_path import (
    STAGES,
    CriticalPath,
    StageSegment,
    compute_critical_path,
    compute_critical_paths,
    publish_span_metrics,
    render_chrome_trace,
    render_waterfall,
    top_slowest,
    write_chrome_trace,
)
from repro.obs.exporters import (
    metrics_to_dict,
    render_metrics_json,
    render_prometheus,
    render_report,
    render_trace_jsonl,
    write_metrics,
    write_trace_jsonl,
)
from repro.obs.log import configure_logging, get_logger, kv

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "publish_cluster_result",
    "publish_conformance_counters",
    "publish_engine_stats",
    "publish_latency_summary",
    "publish_network_stats",
    "publish_shard_stats",
    "NULL_RECORDER",
    "TraceEvent",
    "TraceRecorder",
    "WindowProvenance",
    "Span",
    "WindowTrace",
    "build_window_trace",
    "build_window_traces",
    "render_spans_jsonl",
    "write_spans_jsonl",
    "STAGES",
    "CriticalPath",
    "StageSegment",
    "compute_critical_path",
    "compute_critical_paths",
    "publish_span_metrics",
    "render_chrome_trace",
    "render_waterfall",
    "top_slowest",
    "write_chrome_trace",
    "metrics_to_dict",
    "render_metrics_json",
    "render_prometheus",
    "render_report",
    "render_trace_jsonl",
    "write_metrics",
    "write_trace_jsonl",
    "configure_logging",
    "get_logger",
    "kv",
]
