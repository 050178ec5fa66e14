"""Equivalence checkers and metamorphic relations.

Two layers of checking:

1. **Differential**: every executor configuration of a scenario is
   compared against the reference (``engine``: the per-event engine),
   *byte-identical* where the contract is exact (alternate punctuation
   mode, batched ingestion, and fault-plan runs vs their clean twin).
   Value comparison is governed by the per-operator-kind
   :func:`~repro.conformance.oracle.tolerance_for` policy — exact for
   count/extrema/sorted functions, 1e-9 relative for float folds
   whenever the two sides fold in different orders.

2. **Metamorphic**: properties that need no reference implementation —
   re-sharding the same global event multiset over a different number of
   local nodes must not change results; re-dealing the key space over a
   different number of parallel worker processes (DESIGN.md §13) must not
   change results either; submitting the same query twice
   must yield twice the identical rows; a recoverable fault plan must
   leave both the results and the *goodput* (unique delivered payload
   bytes) of the clean reliable run unchanged; on a traced run every
   window's critical-path stage breakdown must sum *exactly* to its
   end-to-end emission latency in sim-ms (see repro.obs.critical_path);
   and a Desis run under overload caps (DESIGN.md §12) that shed nothing
   must be byte-identical to the unbounded faulty run, while a run that
   did shed must account every degraded window's ``completeness``
   exactly from its own ``shed_slices``.

:func:`evaluate_scenario` drives all of it and returns the flat list of
failure descriptions the runner and the shrinker share as their predicate.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster import DesisCluster
from repro.core.engine import AggregationEngine
from repro.core.event import Event, merge_streams
from repro.core.query import Query
from repro.network.simnet import FaultPlan
from repro.network.topology import star
from repro.conformance.executors import (
    ExecutionResult,
    Row,
    canonical_rows,
    executor_matrix,
    in_order_streams,
    _cluster_config,
    _final_time,
    _merged,
)
from repro.conformance.oracle import TolerancePolicy, tolerance_for, values_match
from repro.conformance.scenario import NEVER, Scenario
from repro.obs import build_window_trace, compute_critical_path

__all__ = [
    "compare_results",
    "evaluate_scenario",
    "check_duplicate_query_invariance",
    "check_engine_shard_invariance",
    "check_reshard_invariance",
    "check_fault_goodput",
    "check_span_stage_sum",
]

_MAX_REPORTED = 5  # mismatch lines reported per comparison


# -- row comparison ----------------------------------------------------------


def _drop_queries(rows: list[Row], excluded: frozenset[str]) -> list[Row]:
    if not excluded:
        return rows
    return [row for row in rows if row[0] not in excluded]


def _policies(scenario: Scenario, *,
              cross_fold: bool) -> dict[str, TolerancePolicy]:
    return {
        query.query_id: tolerance_for(query, cross_fold=cross_fold)
        for query in scenario.build_queries()
    }


def compare_results(
    scenario: Scenario,
    left: ExecutionResult,
    right: ExecutionResult,
    *,
    cross_fold: bool = False,
) -> list[str]:
    """Mismatch descriptions between two executions (empty = equivalent).

    Queries flagged incomparable by exactly one side (user-defined windows
    under decentralized, watermark-granular termination) are skipped; when
    both sides flag them (two cluster runs over the same sharding) their
    rows are compared like any other.
    """
    excluded = left.incomparable_queries ^ right.incomparable_queries
    left_rows = _drop_queries(left.rows, excluded)
    right_rows = _drop_queries(right.rows, excluded)
    policies = _policies(scenario, cross_fold=cross_fold)
    label = f"{right.name} vs {left.name}"
    failures: list[str] = []
    if len(left_rows) != len(right_rows):
        failures.append(
            f"{label}: {len(right_rows)} rows, expected {len(left_rows)}"
        )
    for lrow, rrow in zip(left_rows, right_rows):
        lq, ls, le, ln, lv = lrow
        rq, rs, re_, rn, rv = rrow
        policy = policies.get(lq, TolerancePolicy())
        if (lq, ls, le, ln) != (rq, rs, re_, rn):
            failures.append(f"{label}: window {rrow!r}, expected {lrow!r}")
        elif not values_match(lv, rv, policy):
            failures.append(
                f"{label}: {lq}[{ls}..{le}) value {rv!r}, expected {lv!r}"
                f" (rel_tol={policy.rel_tol})"
            )
        if len(failures) >= _MAX_REPORTED:
            failures.append(f"{label}: ... further mismatches suppressed")
            break
    return failures


# -- metamorphic relations ---------------------------------------------------


def check_duplicate_query_invariance(
    scenario: Scenario, streams: dict[str, list[Event]]
) -> list[str]:
    """Submitting the first query twice must not change anything.

    The clone's rows must be byte-identical to the original's, and every
    pre-existing query's rows must match the reference run exactly.
    """
    queries = scenario.build_queries()
    if not queries:
        return []
    original = queries[0]
    clone = Query(
        query_id="__dup__",
        window=original.window,
        function=original.function,
        selection=original.selection,
    )
    merged = _merged(streams)
    engine = AggregationEngine(queries + [clone])
    engine.advance(0)
    for event in merged:
        engine.process(event)
    sink = engine.close(_final_time(scenario, merged))
    original_rows = [
        (r.start, r.end, r.event_count, r.value)
        for r in sink.for_query(original.query_id)
    ]
    clone_rows = [
        (r.start, r.end, r.event_count, r.value)
        for r in sink.for_query("__dup__")
    ]
    if original_rows != clone_rows:
        return [
            "duplicate-query: clone of "
            f"{original.query_id!r} produced {len(clone_rows)} rows vs "
            f"{len(original_rows)}, or differing values"
        ]
    return []


def check_reshard_invariance(
    scenario: Scenario,
    streams: dict[str, list[Event]],
    baseline: ExecutionResult,
) -> list[str]:
    """Re-dealing the same global events over more locals is invisible.

    The global event multiset is redistributed round-robin (preserving
    time order within each node) over ``n_nodes + 1`` locals on a star
    topology; the clean Desis run over that sharding must match the
    scenario's own clean Desis run, float folds within tolerance.
    """
    merged = _merged(streams)
    n = scenario.n_nodes + 1
    resharded: dict[str, list[Event]] = {f"local-{i}": [] for i in range(n)}
    for index, event in enumerate(merged):
        resharded[f"local-{index % n}"].append(event)
    result = DesisCluster(
        scenario.build_queries(), star(n),
        config=_cluster_config(scenario, fault=None),
    ).run(resharded)
    # user-defined windows open per-node, so their rows are legitimately
    # shard-dependent: flag them on this side only, which excludes them
    # from the comparison against the baseline cluster run
    resharded_result = ExecutionResult(
        "cluster-desis-resharded",
        canonical_rows(result.sink),
        incomparable_queries=frozenset(),
    )
    if baseline.incomparable_queries:
        resharded_result = ExecutionResult(
            resharded_result.name,
            _drop_queries(resharded_result.rows,
                          baseline.incomparable_queries),
            incomparable_queries=frozenset(),
        )
        baseline = ExecutionResult(
            baseline.name,
            _drop_queries(baseline.rows, baseline.incomparable_queries),
            incomparable_queries=frozenset(),
            meta=baseline.meta,
        )
    return compare_results(scenario, baseline, resharded_result,
                           cross_fold=True)


def check_engine_shard_invariance(
    scenario: Scenario,
    streams: dict[str, list[Event]],
    baseline: ExecutionResult,
) -> list[str]:
    """Re-sharding the key space across workers is invisible (DESIGN.md §13).

    ``baseline`` is the matrix's ``parallel-sharded`` run over ``S``
    workers; the same scenario over ``S + 1`` workers deals every key to a
    different shard (the routing hash is taken modulo the worker count),
    so the reduce combines per-key state in a genuinely different
    partitioning.  Canonical rows must agree exactly for count/extrema/
    sorted operator kinds and within float-fold tolerance for the rest.
    """
    from repro.core.config import EngineConfig
    from repro.parallel import ShardedEngine

    merged = _merged(streams)
    shards = int(baseline.meta.get("shards", 2)) + 1
    engine = ShardedEngine(
        scenario.build_queries(), config=EngineConfig(shards=shards)
    )
    engine.advance(0)
    engine.process_batch(merged)
    sink = engine.close(_final_time(scenario, merged))
    resharded = ExecutionResult(
        f"parallel-sharded-x{shards}", canonical_rows(sink)
    )
    return compare_results(scenario, baseline, resharded, cross_fold=True)


def check_fault_goodput(
    scenario: Scenario,
    faulty: ExecutionResult,
    clean: ExecutionResult,
) -> list[str]:
    """A recoverable link-fault plan must not change goodput.

    Both runs use the reliable channel (the clean twin runs an all-zero
    plan so envelopes are identical); the faulty run's goodput — data
    bytes minus retransmitted and duplicated copies — must equal the
    clean run's, and the clean run must waste nothing.
    """
    failures = []
    clean_goodput = clean.meta.get("goodput_data_bytes")
    clean_data = clean.meta.get("data_bytes")
    faulty_goodput = faulty.meta.get("goodput_data_bytes")
    if clean_goodput != clean_data:
        failures.append(
            f"goodput: clean reliable run wasted bytes "
            f"(goodput {clean_goodput} != data {clean_data})"
        )
    if faulty_goodput != clean_goodput:
        failures.append(
            f"goodput: faulty run goodput {faulty_goodput} != clean "
            f"{clean_goodput}"
        )
    return failures


def check_span_stage_sum(
    scenario: Scenario, streams: dict[str, list[Event]]
) -> list[str]:
    """Critical-path stages must sum exactly to each window's latency.

    A traced clean Desis run of the scenario; for every emitted window
    the stage segments must be positive, contiguous, and telescope to
    ``emitted_at - first ingest`` in integer sim-ms.  Windows evicted
    from the trace ring are skipped only when eviction actually happened.
    """
    config = replace(_cluster_config(scenario, fault=None), trace=True)
    result = DesisCluster(
        scenario.build_queries(), scenario.build_topology(), config=config
    ).run({k: list(v) for k, v in streams.items()})
    failures: list[str] = []
    for row in result.sink.results:
        label = f"span-sum: {row.query_id}[{row.start}..{row.end})"
        try:
            path = compute_critical_path(build_window_trace(result.recorder, row))
        except KeyError:
            if result.recorder.dropped:
                continue  # evicted from the ring: legitimately gone
            failures.append(f"{label} has no window.emit trace")
            continue
        total = sum(segment.duration for segment in path.segments)
        if total != path.latency:
            failures.append(
                f"{label} stages sum to {total} ms, emission latency is "
                f"{path.latency} ms"
            )
        elif any(segment.duration <= 0 for segment in path.segments):
            failures.append(f"{label} has a non-positive stage segment")
        elif any(
            a.end != b.start
            for a, b in zip(path.segments, path.segments[1:])
        ):
            failures.append(f"{label} stage segments are not contiguous")
        if len(failures) >= _MAX_REPORTED:
            failures.append("span-sum: ... further failures suppressed")
            break
    return failures


def _run_zero_plan_twin(scenario: Scenario,
                        streams: dict[str, list[Event]]) -> ExecutionResult:
    from repro.conformance.executors import _run_cluster

    zero = replace(scenario, fault=None)
    return _run_cluster(
        zero, streams, name="cluster-desis-zeroplan", deployment="desis",
        fault=FaultPlan(seed=0),
    )


# -- the full evaluation -----------------------------------------------------


def evaluate_scenario(
    scenario: Scenario, *, metamorphic: bool = True
) -> tuple[list[str], dict[str, ExecutionResult]]:
    """Run every applicable executor and checker; return the failures.

    Returns ``(failures, executions)`` where ``executions`` maps executor
    name to its :class:`ExecutionResult` (for reporting/digesting).
    """
    streams = in_order_streams(scenario)
    executions: dict[str, ExecutionResult] = {}
    failures: list[str] = []
    for name, fn in executor_matrix(scenario):
        try:
            executions[name] = fn(scenario, streams)
        except Exception as exc:  # a crash is a conformance failure too
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
    reference = executions.get("engine")
    if reference is None:
        return failures, executions

    def against_reference(name: str, *, cross_fold: bool):
        execution = executions.get(name)
        if execution is not None:
            failures.extend(
                compare_results(scenario, reference, execution,
                                cross_fold=cross_fold)
            )

    # the byte-identical contract
    against_reference("engine-batch", cross_fold=False)
    # independently-ordered folds: tolerance on float folds only
    for name in ("oracle", "baseline-scotty", "cluster-desis",
                 "cluster-centralized", "cluster-disco", "parallel-sharded"):
        against_reference(name, cross_fold=True)
    # the faulty run must be byte-identical to its clean twin
    clean = executions.get("cluster-desis")
    faulty = executions.get("cluster-desis-faulty")
    if clean is not None and faulty is not None:
        failures.extend(compare_results(scenario, clean, faulty))
    # overload caps (DESIGN.md §12): shed accounting always holds, and a
    # bounded run that shed nothing is byte-identical to the unbounded one
    overload = executions.get("cluster-desis-overload")
    if overload is not None:
        failures.extend(overload.meta.get("audit_failures", ()))
        if faulty is not None and not overload.meta.get("slices_shed", 0):
            failures.extend(compare_results(scenario, faulty, overload))

    if metamorphic:
        try:
            failures.extend(
                check_duplicate_query_invariance(scenario, streams)
            )
        except Exception as exc:
            failures.append(
                f"duplicate-query: raised {type(exc).__name__}: {exc}"
            )
        if clean is not None:
            try:
                failures.extend(
                    check_reshard_invariance(scenario, streams, clean)
                )
            except Exception as exc:
                failures.append(
                    f"reshard: raised {type(exc).__name__}: {exc}"
                )
        sharded = executions.get("parallel-sharded")
        if sharded is not None:
            try:
                failures.extend(
                    check_engine_shard_invariance(scenario, streams, sharded)
                )
            except Exception as exc:
                failures.append(
                    f"shard-invariance: raised {type(exc).__name__}: {exc}"
                )
        try:
            failures.extend(check_span_stage_sum(scenario, streams))
        except Exception as exc:
            failures.append(
                f"span-sum: raised {type(exc).__name__}: {exc}"
            )
        if (
            faulty is not None
            and scenario.fault is not None
            and scenario.fault.link_faults_only
        ):
            try:
                twin = _run_zero_plan_twin(scenario, streams)
                failures.extend(compare_results(scenario, twin, faulty))
                failures.extend(check_fault_goodput(scenario, faulty, twin))
            except Exception as exc:
                failures.append(
                    f"goodput: raised {type(exc).__name__}: {exc}"
                )
    return failures, executions
