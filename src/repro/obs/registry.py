"""A labeled metrics registry and bridges from the existing stat structs.

The evaluation (Sec 6) is built on measurements that so far lived in
disconnected ad-hoc structs — :class:`~repro.core.engine.EngineStats`,
:class:`~repro.network.simnet.NetworkStats`, per-node CPU samples.  The
registry gives them one namespace with stable metric names, so a run can
be exported (Prometheus text, JSON) and two runs can be diffed
counter-by-counter.

Three instrument kinds cover everything the repo measures:

* :class:`Counter` — monotone totals (``engine.calculations``,
  ``net.retransmits``);
* :class:`Gauge` — point-in-time values and high-water marks
  (``engine.peak_live_slices``, ``node.cpu_seconds``);
* :class:`Histogram` — fixed-bucket distributions (event-time latency).

Metrics are identified by ``(name, labels)``; labels are plain string
pairs (``net.bytes{link="local-0->mid-0"}``).  The ``publish_*`` bridges
snapshot the existing structs into a registry under the stable names
documented in DESIGN.md — call them once per run on a fresh registry (or
a fresh label set): they *add* to counters, so re-publishing the same
struct twice double-counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "publish_engine_stats",
    "publish_network_stats",
    "publish_shard_stats",
    "publish_cluster_result",
    "publish_latency_summary",
    "publish_conformance_counters",
]

#: default histogram buckets (ms): tuned for event-time result latency
DEFAULT_BUCKETS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0,
                   2_500.0, 5_000.0)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (may go up or down)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``counts[i]`` is the number of observations ``<= buckets[i]``
    (cumulative); observations above the last bound only land in the
    implicit ``+Inf`` bucket (``count``).
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"bucket bounds must be sorted, got {buckets!r}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1

    @property
    def value(self) -> float:
        """Mean observation (the scalar summary used in tables)."""
        return self.sum / self.count if self.count else 0.0


@dataclass(slots=True)
class MetricSample:
    """One collected metric: name, labels, kind, and value(s)."""

    name: str
    labels: dict[str, str]
    kind: str
    value: float
    #: histogram detail (``None`` for counters/gauges)
    buckets: list[tuple[float, int]] | None = None
    sum: float | None = None
    count: int | None = None


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create store of labeled metrics.

    The same ``(name, labels)`` always returns the same instrument; asking
    for an existing name with a different instrument kind is an error (a
    name is one kind forever — the invariant every scrape format relies
    on).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._kinds: dict[str, str] = {}

    def _get(self, cls, name: str, labels: dict[str, Any], **kwargs):
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = cls.kind
        elif known != cls.kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {known}, "
                f"cannot re-register as a {cls.kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(**kwargs)
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        metric = self._get(Histogram, name, labels, buckets=buckets)
        if metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already exists with buckets "
                f"{metric.buckets!r}"
            )
        return metric

    def value(self, name: str, **labels: Any) -> float:
        """The current value of one metric (0.0 when never touched)."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric.value if metric is not None else 0.0

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self) -> Iterator[MetricSample]:
        """All metrics in deterministic (name, labels) order."""
        for (name, labels) in sorted(self._metrics):
            metric = self._metrics[(name, labels)]
            sample = MetricSample(
                name=name,
                labels=dict(labels),
                kind=metric.kind,
                value=metric.value,
            )
            if isinstance(metric, Histogram):
                sample.buckets = list(zip(metric.buckets, metric.counts))
                sample.sum = metric.sum
                sample.count = metric.count
            yield sample


# -- bridges from the existing stat structs ------------------------------------


def publish_engine_stats(registry: MetricsRegistry, stats,
                         **labels: Any) -> None:
    """Publish an :class:`~repro.core.engine.EngineStats` snapshot.

    Work counters land as ``engine.*`` counters; the memory high-water
    marks as gauges.  Pass extra labels (``node=...``) to distinguish
    per-node engine stats in a cluster run.
    """
    for name in (
        "events",
        "inserts",
        "calculations",
        "selection_checks",
        "slices_closed",
        "windows_opened",
        "windows_closed",
        "results",
        "duplicates_dropped",
        "merge_ops",
    ):
        registry.counter(f"engine.{name}", **labels).inc(
            getattr(stats, name, 0)
        )
    registry.gauge("engine.peak_live_slices", **labels).set(
        stats.peak_live_slices
    )
    registry.gauge("engine.peak_open_windows", **labels).set(
        stats.peak_open_windows
    )


def publish_shard_stats(registry: MetricsRegistry, shard_stats) -> None:
    """Publish a :class:`~repro.parallel.backend.ShardStats` snapshot.

    Per-shard counters land under ``shard="N"`` labels (events processed,
    rows shipped to the shard, worker CPU busy time, in-shard merge ops,
    peak in-flight frames — the queue-depth signal); reduce-side work
    lands unlabeled
    (``shard.reduce_merge_ops``, ``shard.windows_reduced``,
    ``shard.frames``) plus the parent's two serial-stage CPU times.
    """
    for shard in range(shard_stats.shards):
        label = str(shard)
        registry.counter("shard.events", shard=label).inc(
            shard_stats.events[shard]
        )
        registry.counter("shard.rows_shipped", shard=label).inc(
            shard_stats.rows_shipped[shard]
        )
        registry.counter("shard.merge_ops", shard=label).inc(
            shard_stats.merge_ops[shard]
        )
        registry.gauge("shard.busy_seconds", shard=label).set(
            shard_stats.busy_ns[shard] / 1e9
        )
        registry.gauge("shard.peak_inflight_frames", shard=label).set(
            shard_stats.peak_inflight[shard]
        )
    registry.counter("shard.frames").inc(shard_stats.frames)
    registry.counter("shard.reduce_merge_ops").inc(
        shard_stats.reduce_merge_ops
    )
    registry.counter("shard.windows_reduced").inc(
        shard_stats.windows_reduced
    )
    registry.gauge("shard.parent_seconds").set(shard_stats.parent_ns / 1e9)
    registry.gauge("shard.reduce_seconds").set(shard_stats.reduce_ns / 1e9)


def publish_network_stats(registry: MetricsRegistry, stats) -> None:
    """Publish a :class:`~repro.network.simnet.NetworkStats` snapshot.

    Totals land unlabeled (``net.total_bytes``), per-link traffic under
    ``link="src->dst"``, per-role data traffic under ``role=...``, and
    every reliability counter under its ``net.*`` name.
    """
    registry.counter("net.total_bytes").inc(stats.total_bytes)
    registry.counter("net.data_bytes").inc(stats.data_bytes)
    registry.counter("net.control_bytes").inc(stats.control_bytes)
    registry.counter("net.messages").inc(stats.total_messages)
    registry.counter("net.goodput_data_bytes").inc(stats.goodput_data_bytes)
    for (src, dst), count in stats.bytes_by_link.items():
        registry.counter("net.bytes", link=f"{src}->{dst}").inc(count)
    for (src, dst), count in stats.messages_by_link.items():
        registry.counter("net.link_messages", link=f"{src}->{dst}").inc(count)
    for role, count in stats.bytes_from_role.items():
        registry.counter("net.bytes_from_role", role=role.value).inc(count)
    for role, count in stats.data_bytes_from_role.items():
        registry.counter("net.data_bytes_from_role", role=role.value).inc(count)
    for name in (
        "drops",
        "duplicates",
        "duplicate_data_bytes",
        "retransmits",
        "retransmit_bytes",
        "retransmit_exhausted",
        "acks",
        "ack_bytes",
        "dedup_dropped",
        "credit_stalls",
        "bytes_shed",
        "records_shed",
    ):
        registry.counter(f"net.{name}").inc(getattr(stats, name, 0))
    for name in ("peak_unacked_bytes", "peak_unacked_frames"):
        registry.gauge(f"net.{name}").set(getattr(stats, name, 0))


def publish_cluster_result(registry: MetricsRegistry, result) -> None:
    """Publish a :class:`~repro.cluster.desis.ClusterRunResult`.

    Covers the run totals (``cluster.*``), the full network snapshot, the
    per-node CPU gauges, and every local node's engine stats under
    ``role=local, node=...`` — the per-node-class breakdowns Figures 7,
    11, and 12 are built on.
    """
    registry.counter("cluster.events").inc(result.events)
    registry.counter("cluster.results").inc(len(result.sink))
    registry.gauge("cluster.wall_seconds").set(result.wall_seconds)
    registry.counter("cluster.checkpoints").inc(result.checkpoints)
    registry.counter("cluster.recoveries").inc(result.recoveries)
    registry.counter("net.reroutes").inc(result.reroutes)
    registry.counter("cluster.duplicates_suppressed").inc(
        result.duplicates_suppressed
    )
    registry.counter("cluster.root_merge_ops").inc(result.root_merge_ops)
    # Overload control (DESIGN.md §12): all zero without the opt-in caps.
    registry.counter("cluster.degraded_windows").inc(result.degraded_windows)
    registry.counter("cluster.slices_shed").inc(result.slices_shed)
    registry.gauge("cluster.peak_staging").set(result.peak_staging)
    registry.counter("cluster.slow_consumer_evictions").inc(
        result.slow_consumer_evictions
    )
    registry.counter("obs.trace_dropped").inc(result.recorder.dropped)
    publish_network_stats(registry, result.network)
    for role, seconds in result.cpu_by_role.items():
        registry.gauge("cluster.cpu_seconds", role=role.value).set(seconds)
    for node_id, seconds in result.node_cpu.items():
        registry.gauge("node.cpu_seconds", node=node_id).set(seconds)
    for node_id, stats in result.local_stats.items():
        publish_engine_stats(registry, stats, role="local", node=node_id)
        registry.counter(
            "node.slices_shipped", role="local", node=node_id
        ).inc(stats.slices_closed)


def publish_latency_summary(registry: MetricsRegistry, summary,
                            **labels: Any) -> None:
    """Publish a :class:`~repro.metrics.latency.LatencySummary` (gauges)."""
    registry.gauge("latency.count", **labels).set(summary.count)
    for name in ("mean", "p50", "p95", "p99", "max"):
        registry.gauge(f"latency.{name}", **labels).set(
            getattr(summary, name)
        )
    registry.counter("latency.expired_samples", **labels).inc(
        getattr(summary, "expired_samples", 0)
    )


def publish_conformance_counters(registry: MetricsRegistry, report: dict,
                                 *, shrink_runs: int = 0) -> None:
    """Publish a conformance report's roll-up under ``conformance.*``.

    ``report`` is the dict returned by
    :func:`repro.conformance.run_conformance`; stable names:

    * ``conformance.scenarios`` — scenarios evaluated
    * ``conformance.executions`` — executor configurations run
    * ``conformance.comparisons`` — row-set comparisons performed
    * ``conformance.failures`` — scenarios with at least one mismatch
    * ``conformance.mismatches`` — individual mismatch lines
    * ``conformance.shrink_runs`` — predicate evaluations spent shrinking
    """
    scenarios = report.get("scenarios", ())
    registry.counter("conformance.scenarios").inc(len(scenarios))
    registry.counter("conformance.executions").inc(
        sum(len(v.get("executors", {})) for v in scenarios)
    )
    registry.counter("conformance.comparisons").inc(
        # every non-reference executor is compared at least once
        sum(max(len(v.get("executors", {})) - 1, 0) for v in scenarios)
    )
    registry.counter("conformance.failures").inc(report.get("failed", 0))
    registry.counter("conformance.mismatches").inc(
        sum(len(v.get("failures", ())) for v in scenarios)
    )
    registry.counter("conformance.shrink_runs").inc(shrink_runs)
