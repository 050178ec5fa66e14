"""Every metric the benchmark prints: name, unit, direction, kind, bound.

Kinds:

* ``e2e`` — what a user of the system sees.  ``bound`` is the share of
  the baseline's median by which it may get worse before ``--compare``
  calls it ``regressed``; ``0.0`` means deterministic, compared exactly.
* ``time`` — a layer's seconds, rate or latency (wall-clock, calibrated).
* ``count`` — a layer's work counter; must repeat exactly for a seed.

``gated`` marks the end-to-end metrics that *every* workload reports and
that are never 0 — the ``end_to_end`` list of ``BENCHMARK.json``, which
the driver bounds.  The other end-to-end metrics apply to one or two
workloads only (absent elsewhere, never 0), so ``BENCHMARK.json`` lists
them with the layers; ``--compare`` still applies their bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "METRICS", "E2E", "GATED", "PER_LAYER", "COUNTS"]


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    kind: str  # "e2e" | "time" | "count"
    bound: float | None = None
    gated: bool = False


def _e2e(name, unit, better, bound, gated=False):
    return Metric(name, unit, better, "e2e", bound, gated)


def _time(name, unit, better="lower"):
    return Metric(name, unit, better, "time")


def _count(name, unit="count", better="lower"):
    return Metric(name, unit, better, "count")


_ALL = (
    # -- end to end ---------------------------------------------------------
    _e2e("events_per_s", "ev/s", "higher", 0.15, gated=True),
    _e2e("sustainable_events_per_s", "ev/s", "higher", 0.25, gated=True),
    _e2e("peak_rss_mb", "MB", "lower", 0.10, gated=True),
    _e2e("setup_s", "s", "lower", 0.25, gated=True),
    _e2e("emit_latency_ms_p50", "ms", "lower", 0.15),
    _e2e("emit_latency_ms_p95", "ms", "lower", 0.15),
    _e2e("sim_emit_latency_ms_p50", "ms", "lower", 0.0),
    _e2e("sim_emit_latency_ms_p95", "ms", "lower", 0.0),
    _e2e("wire_bytes_per_event", "B/ev", "lower", 0.0),
    _e2e("failed_share", "share", "lower", 0.0),
    # -- load generator and set-up -------------------------------------------
    _time("datagen.gen_s", "s"),
    _time("datagen.events_per_s", "ev/s", "higher"),
    _time("interface.parse_s", "s"),
    _time("core.analyzer.analyze_s", "s"),
    _count("core.analyzer.groups"),
    _count("core.analyzer.operators_planned"),
    # -- engine, timed from outside ------------------------------------------
    _time("core.engine.insert_s", "s"),
    _time("core.engine.ns_per_event", "ns"),
    _time("core.engine.cut_close_s", "s"),
    _time("core.engine.close_s", "s"),
    _time("core.engine.close_call_ms_p50", "ms"),
    _time("core.engine.close_call_ms_p99", "ms"),
    _count("core.engine.calculations_per_event", "1/ev"),
    _count("core.engine.selection_checks_per_event", "1/ev"),
    _count("core.engine.slices_closed"),
    _count("core.engine.windows_closed"),
    _count("core.engine.merge_ops"),
    _count("core.engine.merge_ops_per_window", "1/window"),
    _count("core.engine.peak_live_slices"),
    _count("core.engine.peak_open_windows"),
    _count("core.engine.results"),
    # -- micro-drivers on the workload's own values and operator kinds -------
    _time("core.operators.insert_many_ns_per_value", "ns"),
    _time("core.slices.insert_run_ns_per_value", "ns"),
    _time("core.operators.insert_ns_per_value", "ns"),
    _time("core.operators.merge_many_us_per_window", "us"),
    _time("core.slices.merge_context_us", "us"),
    _time("core.operators.sort_merge_values_per_s", "1/s", "higher"),
    _time("core.incmerge.cycle_us", "us"),
    _time("core.incmerge.cycle_us_max", "us"),
    # -- network ---------------------------------------------------------------
    _time("network.codec.encode_s", "s"),
    _time("network.codec.decode_s", "s"),
    _count("network.codec.frames"),
    _count("network.codec.bytes", "B"),
    _time("network.codec.encode_mb_per_s", "MB/s", "higher"),
    _time("network.codec.decode_mb_per_s", "MB/s", "higher"),
    _time("network.simnet.sched_s", "s"),
    _count("network.simnet.messages"),
    _count("network.simnet.data_bytes", "B"),
    _count("network.simnet.control_bytes", "B"),
    _count("network.simnet.bytes_from_local", "B"),
    _count("network.simnet.bytes_from_intermediate", "B"),
    # -- cluster roles -----------------------------------------------------------
    _time("cluster.local.busy_s", "s"),
    _time("cluster.local.busy_max_s", "s"),
    _time("cluster.intermediate.busy_s", "s"),
    _time("cluster.root.busy_s", "s"),
    _time("cluster.bottleneck_busy_s", "s"),
    _time("cluster.bottleneck_is_root", "flag", "higher"),
    _count("cluster.root.merge_ops"),
    _count("cluster.local.slices_closed"),
    _count("cluster.local.calculations_per_event", "1/ev"),
    _count("cluster.peak_staging"),
    # -- sharded backend ---------------------------------------------------------
    _time("parallel.backend.parent_s", "s"),
    _time("parallel.backend.worker_busy_max_s", "s"),
    _time("parallel.backend.worker_busy_sum_s", "s"),
    _time("parallel.backend.wait_s", "s"),
    _time("parallel.reduce.reduce_s", "s"),
    _time("parallel.backend.spawn_s", "s"),
    _count("parallel.backend.frames"),
    _time("parallel.backend.peak_inflight", "count"),
    _count("parallel.backend.shard_skew", "ratio"),
    _time("parallel.backend.speedup_vs_inprocess", "ratio", "higher"),
    # -- open-loop paced phase -----------------------------------------------------
    _time("paced.emit_latency_ms_p50", "ms"),
    _time("paced.emit_latency_ms_p95", "ms"),
    _time("paced.emit_latency_ms_p99", "ms"),
    _count("paced.samples"),
    _time("paced.backlog_max_events", "count"),
    _time("paced.generator_lag_ms_max", "ms"),
    _time("paced.offered_events_per_s", "ev/s", "higher"),
    # -- correctness gate and the harness itself -------------------------------------
    _count("check.windows_checked"),
    _count("check.windows_failed"),
    _time("check.check_s", "s"),
    _time("harness.calibration_ops_per_s", "1/s", "higher"),
    _time("harness.raw_events_per_s", "ev/s", "higher"),
    _time("harness.repeat_spread", "share"),
    _time("harness.trace_overhead_share", "share"),
    _time("harness.unattributed_share", "share"),
)

METRICS: dict[str, Metric] = {m.name: m for m in _ALL}
#: the ten end-to-end metrics
E2E = tuple(m.name for m in _ALL if m.kind == "e2e")
#: the end-to-end metrics every workload reports (BENCHMARK.json end_to_end)
GATED = tuple(m.name for m in _ALL if m.gated)
#: BENCHMARK.json per_layer: every layer metric plus the end-to-end
#: metrics that only some workloads have
PER_LAYER = tuple(m.name for m in _ALL if not m.gated)
#: metrics that must be bit-identical between two runs of one seed
COUNTS = tuple(
    m.name for m in _ALL if m.kind == "count" or (m.kind == "e2e" and m.bound == 0.0)
)
