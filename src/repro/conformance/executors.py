"""Executor adapters: one scenario, every engine, one canonical form.

Each adapter runs a :class:`~repro.conformance.scenario.Scenario` through
one implementation — the single-node engine (per-event and batched, both
punctuation modes), the Scotty baseline, the naive oracle,
and the Desis / Disco / Centralized cluster deployments — and normalizes
the emitted windows into canonical rows::

    (query_id, start, end, event_count, value)

sorted by ``(query_id, start, end, event_count)``, so two runs are
comparable regardless of emission order.  User-defined windows open and
terminate at watermark granularity in the decentralized deployments
(Sec 5.1.2), so their decentralized rows legitimately differ from the
centralized ones *and* across shardings; cluster executions flag them in
``incomparable_queries`` and comparisons against a centralized reference
skip them (cluster-vs-cluster comparisons over the same sharding still
check them byte-for-byte).

Disordered scenarios (``max_lateness > 0``) are fed through the standard
:class:`~repro.core.ordering.ReorderBuffer` front-end first — with
``on_late="raise"`` so a scenario whose disorder exceeds its declared
bound fails loudly instead of silently dropping events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines import ScottyProcessor
from repro.cluster import (
    CentralizedCluster,
    ClusterConfig,
    DesisCluster,
    DiscoCluster,
)
from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.event import Event, merge_streams
from repro.core.ordering import ReorderBuffer
from repro.core.types import WindowType
from repro.conformance.oracle import naive_results
from repro.conformance.scenario import NEVER, Scenario

__all__ = [
    "Row",
    "ExecutionResult",
    "canonical_rows",
    "in_order_streams",
    "executor_matrix",
    "run_executor",
]

#: canonical window row: (query_id, start | None, end, event_count, value)
Row = tuple


def canonical_rows(sink) -> list[Row]:
    """Normalize a result sink into sorted canonical rows."""
    rows = [
        (r.query_id, r.start, r.end, r.event_count, r.value) for r in sink
    ]
    rows.sort(key=lambda row: (row[0], -1 if row[1] is None else row[1],
                               row[2], row[3], repr(row[4])))
    return rows


@dataclass(slots=True)
class ExecutionResult:
    """One executor's canonical output plus comparison metadata."""

    name: str
    rows: list[Row]
    #: query ids whose rows cannot be compared against a centralized
    #: reference (user-defined windows in cluster deployments)
    incomparable_queries: frozenset[str] = frozenset()
    #: extra observables (network byte counters, work stats) for
    #: metamorphic relations; never part of row equality
    meta: dict[str, Any] = field(default_factory=dict)


# -- stream plumbing ---------------------------------------------------------


def in_order_streams(scenario: Scenario) -> dict[str, list[Event]]:
    """The scenario's per-node streams after the reorder front-end.

    In-order scenarios pass through untouched.  Disordered scenarios are
    arrival-ordered, pushed through a :class:`ReorderBuffer` with the
    scenario's lateness bound, and come out in exact timestamp order
    (timestamps are globally unique by construction).
    """
    if scenario.max_lateness <= 0:
        return scenario.build_streams()
    out = {}
    for node, arrived in scenario.disordered_streams().items():
        buffer = ReorderBuffer(scenario.max_lateness, on_late="raise")
        released: list[Event] = []
        for event in arrived:
            released.extend(buffer.push(event))
        released.extend(buffer.flush())
        out[node] = released
    return out


def _merged(streams: dict[str, list[Event]]) -> list[Event]:
    return list(merge_streams(*(streams[k] for k in sorted(streams))))


def _final_time(scenario: Scenario, merged: list[Event]) -> int:
    if not merged:
        return scenario.tick_interval
    tick = scenario.tick_interval
    return ((merged[-1].time // tick) + 1) * tick


def _cluster_incomparable(scenario: Scenario) -> frozenset[str]:
    return frozenset(
        q.query_id for q in scenario.queries
        if q.window_type == WindowType.USER_DEFINED.value
    )


# -- centralized adapters ----------------------------------------------------


def run_oracle(scenario: Scenario, streams: dict[str, list[Event]]) -> ExecutionResult:
    merged = _merged(streams)
    final = _final_time(scenario, merged)
    rows: list[Row] = []
    for query in scenario.build_queries():
        for start, end, value, count in naive_results(
            query, merged, final, origin=0
        ):
            rows.append((query.query_id, start, end, count, value))
    rows.sort(key=lambda row: (row[0], -1 if row[1] is None else row[1],
                               row[2], row[3], repr(row[4])))
    return ExecutionResult("oracle", rows)


def _run_engine(scenario, streams, *, name, punctuation_mode,
                batched: bool) -> ExecutionResult:
    merged = _merged(streams)
    engine = AggregationEngine(
        scenario.build_queries(), punctuation_mode=punctuation_mode
    )
    engine.advance(0)  # anchor fixed windows at the global origin
    if batched:
        engine.process_batch(merged)
    else:
        for event in merged:
            engine.process(event)
    sink = engine.close(_final_time(scenario, merged))
    return ExecutionResult(
        name, canonical_rows(sink),
        meta={"calculations": engine.stats.calculations},
    )


def run_engine_reference(scenario, streams) -> ExecutionResult:
    """The differential reference: per-event, heap punctuation."""
    return _run_engine(scenario, streams, name="engine",
                       punctuation_mode="heap", batched=False)


def run_engine_alt_punctuation(scenario, streams) -> ExecutionResult:
    """Opposite punctuation mode — must be byte-identical to the reference."""
    alt = "scan" if scenario.punctuation_mode == "heap" else "heap"
    return _run_engine(scenario, streams, name=f"engine-{alt}",
                       punctuation_mode=alt, batched=False)


def run_engine_batched(scenario, streams) -> ExecutionResult:
    """Batched ingestion — must be byte-identical to the reference."""
    return _run_engine(scenario, streams, name="engine-batch",
                       punctuation_mode=scenario.punctuation_mode,
                       batched=True)


def run_parallel_sharded(scenario, streams) -> ExecutionResult:
    """The multi-core sharded backend (DESIGN.md §13).

    Joins the matrix only for fixed-size time-window scenarios (the
    backend's domain).  Always runs with at least two shards so the
    cross-worker reduce path is actually exercised; ``scenario.shards``
    raises the count when the generator drew a wider fan-out.
    """
    merged = _merged(streams)
    shards = scenario.shards if scenario.shards > 1 else 2
    from repro.parallel import ShardedEngine

    engine = ShardedEngine(
        scenario.build_queries(),
        config=EngineConfig(
            punctuation_mode=scenario.punctuation_mode,
            shards=shards,
        ),
    )
    engine.advance(0)
    engine.process_batch(merged)
    sink = engine.close(_final_time(scenario, merged))
    return ExecutionResult(
        "parallel-sharded",
        canonical_rows(sink),
        meta={"shards": shards, "events": engine.stats.events},
    )


def run_scotty(scenario, streams) -> ExecutionResult:
    merged = _merged(streams)
    processor = ScottyProcessor(scenario.build_queries())
    processor.advance(0)
    processor.process_batch(merged)
    sink = processor.close(_final_time(scenario, merged))
    return ExecutionResult("baseline-scotty", canonical_rows(sink))


# -- cluster adapters --------------------------------------------------------


def _cluster_config(scenario: Scenario, *, fault) -> ClusterConfig:
    return ClusterConfig(
        tick_interval=scenario.tick_interval,
        batch_ms=scenario.batch_ms,
        engine=EngineConfig(punctuation_mode=scenario.punctuation_mode),
        fault_plan=fault,
        checkpoint_interval=scenario.checkpoint_interval,
        node_timeout=NEVER if fault is not None else 15_000,
    )


def _run_cluster(scenario, streams, *, name, deployment, fault=None,
                 topology=None) -> ExecutionResult:
    topo = topology if topology is not None else scenario.build_topology()
    config = _cluster_config(scenario, fault=fault)
    queries = scenario.build_queries()
    if deployment == "desis":
        cluster = DesisCluster(queries, topo, config=config)
    elif deployment == "disco":
        cluster = DiscoCluster(queries, topo, config=config)
    else:
        cluster = CentralizedCluster(queries, topo, ScottyProcessor,
                                     config=config)
    result = cluster.run({k: list(v) for k, v in streams.items()})
    net = result.network
    return ExecutionResult(
        name,
        canonical_rows(result.sink),
        incomparable_queries=_cluster_incomparable(scenario),
        meta={
            "data_bytes": net.data_bytes,
            "goodput_data_bytes": net.goodput_data_bytes,
            "drops": net.drops,
            "retransmits": net.retransmits,
            "retransmit_exhausted": net.retransmit_exhausted,
            "checkpoints": result.checkpoints,
            "recoveries": result.recoveries,
            "duplicates_suppressed": result.duplicates_suppressed,
        },
    )


def run_desis_cluster(scenario, streams) -> ExecutionResult:
    return _run_cluster(scenario, streams, name="cluster-desis",
                        deployment="desis")


def run_desis_cluster_faulty(scenario, streams) -> ExecutionResult:
    return _run_cluster(scenario, streams, name="cluster-desis-faulty",
                        deployment="desis", fault=scenario.build_fault_plan())


def run_desis_cluster_overload(scenario, streams) -> ExecutionResult:
    """The faulty Desis run again, under the scenario's overload caps.

    Meta carries the shed/degradation counters plus a per-row audit:
    every degraded window's ``completeness`` must equal
    ``1 - union(shed_slices ∩ window) / span`` recomputed from its own
    metadata, and a pristine row must carry none.  When nothing was shed
    the rows must be byte-identical to the unbounded faulty run — that
    comparison happens in ``evaluate_scenario``.
    """
    spec = scenario.overload
    config = _cluster_config(scenario, fault=scenario.build_fault_plan())
    config.channel_credit_bytes = spec.channel_credit_bytes
    config.channel_credit_frames = spec.channel_credit_frames
    config.staging_limit = spec.staging_limit
    cluster = DesisCluster(
        scenario.build_queries(), scenario.build_topology(), config=config
    )
    result = cluster.run({k: list(v) for k, v in streams.items()})
    audit: list[str] = []
    for row in result.sink:
        shed = getattr(row, "shed_slices", ())
        completeness = getattr(row, "completeness", 1.0)
        label = f"overload-audit: {row.query_id}[{row.start}..{row.end})"
        if not shed:
            if completeness != 1.0:
                audit.append(
                    f"{label} completeness {completeness} without shed_slices"
                )
            continue
        clipped = sorted(
            (max(s, row.start), min(e, row.end)) for _, s, e in shed
        )
        union, cursor = 0, row.start
        for s, e in clipped:
            s = max(s, cursor)
            if e > s:
                union += e - s
                cursor = e
        expected = max(1.0 - union / max(row.end - row.start, 1), 0.0)
        if abs(completeness - expected) > 1e-12:
            audit.append(
                f"{label} completeness {completeness} != {expected} "
                f"recomputed from shed_slices"
            )
    if (
        scenario.overload.staging_limit is not None
        and result.peak_staging > scenario.overload.staging_limit
    ):
        audit.append(
            f"overload-audit: peak staging {result.peak_staging} exceeded "
            f"the cap {scenario.overload.staging_limit}"
        )
    return ExecutionResult(
        "cluster-desis-overload",
        canonical_rows(result.sink),
        incomparable_queries=_cluster_incomparable(scenario),
        meta={
            "slices_shed": result.slices_shed,
            "degraded_windows": result.degraded_windows,
            "peak_staging": result.peak_staging,
            "audit_failures": audit,
        },
    )


def run_centralized_cluster(scenario, streams) -> ExecutionResult:
    return _run_cluster(scenario, streams, name="cluster-centralized",
                        deployment="centralized")


def run_disco_cluster(scenario, streams) -> ExecutionResult:
    return _run_cluster(scenario, streams, name="cluster-disco",
                        deployment="disco")


# -- the matrix --------------------------------------------------------------

ExecutorFn = Callable[[Scenario, dict[str, list[Event]]], ExecutionResult]


def executor_matrix(scenario: Scenario) -> list[tuple[str, ExecutorFn]]:
    """The applicable executor configurations for ``scenario``, in order.

    The first entry is always the differential reference.  Every scenario
    gets at least six configurations; Disco joins when the query mix is
    inside its supported domain (fixed-size time windows), and the faulty
    Desis run joins when the scenario carries a fault plan.
    """
    matrix: list[tuple[str, ExecutorFn]] = [
        ("engine", run_engine_reference),
        ("oracle", run_oracle),
        ("engine-alt", run_engine_alt_punctuation),
        ("engine-batch", run_engine_batched),
        ("baseline-scotty", run_scotty),
        ("cluster-desis", run_desis_cluster),
        ("cluster-centralized", run_centralized_cluster),
    ]
    if scenario.fixed_time_only:
        matrix.append(("cluster-disco", run_disco_cluster))
        matrix.append(("parallel-sharded", run_parallel_sharded))
    if scenario.fault is not None:
        matrix.append(("cluster-desis-faulty", run_desis_cluster_faulty))
    if scenario.overload is not None and scenario.fault is not None:
        matrix.append(("cluster-desis-overload", run_desis_cluster_overload))
    return matrix


def run_executor(name: str, scenario: Scenario,
                 streams: dict[str, list[Event]] | None = None) -> ExecutionResult:
    """Run one executor by matrix name (used by shrunk repro scripts)."""
    if streams is None:
        streams = in_order_streams(scenario)
    for candidate, fn in executor_matrix(scenario):
        if candidate == name:
            return fn(scenario, streams)
    raise KeyError(f"unknown executor {name!r} for scenario {scenario.name!r}")
