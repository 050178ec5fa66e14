"""Query-count scaling: the abstract's "scale to millions of queries".

Desis' costs split into three tiers:

* **per event** — shared operator executions, independent of query count;
* **per window** — slice merging, shared by all queries of a deduplicated
  window;
* **per query** — only result materialization (the effect dominating
  Fig 13a beyond ~10K queries).

This benchmark grows the query count to one million (queries drawn from a
ten-length tumbling mix, so all land in one query-group with ten shared
window trackers) and shows per-event work stays flat while the analyzer
and the result volume scale linearly.  Queries also come and go at
runtime: joining a running group's contexts and operators subscribes a
query to its tracker and cuts no slice.
"""

from __future__ import annotations

import time as _time

import pytest

from repro.baselines import DesisProcessor
from repro.core.analyzer import analyze
from repro.core.engine import AggregationEngine
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.harness import fmt_rate, print_table, run_processor, tumbling_queries

from conftest import stream

QUERY_COUNTS = (1_000, 100_000, 1_000_000)


def test_analyzer_scales_to_a_million_queries(benchmark):
    rows = []
    for n in QUERY_COUNTS:
        queries = tumbling_queries(n)
        started = _time.perf_counter()
        plan = analyze(queries)
        elapsed = _time.perf_counter() - started
        rows.append([f"{n:,}", len(plan.groups), f"{elapsed:.2f} s"])
    print_table(
        "Query analyzer scaling (full sharing)",
        ["queries", "query-groups", "analyze time"],
        rows,
    )
    assert len(analyze(tumbling_queries(1_000)).groups) == 1
    benchmark.pedantic(
        lambda: analyze(tumbling_queries(100_000)), rounds=1, iterations=1
    )


def test_engine_throughput_flat_to_a_million_queries(benchmark):
    """Per-event cost is per-group, not per-query; only materialized
    results grow."""
    events = stream(20_000)
    rows = []
    collected = {}
    for n in QUERY_COUNTS:
        stats = run_processor(DesisProcessor, tumbling_queries(n), events)
        collected[n] = stats
        rows.append(
            [
                f"{n:,}",
                fmt_rate(stats.events_per_second),
                f"{stats.calculations:,}",
                f"{stats.results:,}",
            ]
        )
    print_table(
        "Desis throughput vs query count (20k events)",
        ["queries", "throughput", "calculations", "results"],
        rows,
    )
    # Shared operators: identical per-event work at any query count.
    assert collected[1_000_000].calculations == collected[1_000].calculations
    # Result materialization is the only per-query cost.
    assert collected[1_000_000].results == 1_000 * collected[1_000].results
    benchmark.pedantic(
        lambda: run_processor(DesisProcessor, tumbling_queries(1_000), events),
        rounds=1,
        iterations=1,
    )


RUNTIME_QUERIES = 5_000


def test_runtime_adds_and_removes():
    """5 000 queries join a running 5 000-query engine at one stream time,
    then leave it: the joins cut no slice, and the engine afterwards does
    the per-event work it did before them."""
    events = stream(45_000, rate=5_000.0)  # 9 s: a third holds 1 s windows
    third = len(events) // 3
    engine = AggregationEngine(tumbling_queries(RUNTIME_QUERIES))
    engine.process_batch(events[:third])
    calculations = engine.stats.calculations
    slices = engine.stats.slices_closed
    added = [
        Query.of(
            f"r{i}", WindowSpec.tumbling(1_000 * (i % 10 + 1)),
            AggFunction.AVERAGE,
        )
        for i in range(RUNTIME_QUERIES)
    ]
    started = _time.perf_counter()
    for query in added:
        engine.add_query(query)
    add_s = _time.perf_counter() - started
    assert engine.stats.slices_closed == slices
    assert engine.group_count == 1
    engine.process_batch(events[third:2 * third])
    during = engine.stats.calculations - calculations
    started = _time.perf_counter()
    for query in added:
        engine.remove_query(query.query_id)
    remove_s = _time.perf_counter() - started
    assert len(engine.plan.queries) == RUNTIME_QUERIES
    calculations = engine.stats.calculations
    engine.process_batch(events[2 * third:3 * third])
    sink = engine.close()
    # Shared operators: per-event work does not depend on who is subscribed.
    assert engine.stats.calculations - calculations == during
    assert sink.for_query("r0")
    print_table(
        f"Runtime query changes ({RUNTIME_QUERIES:,} into {RUNTIME_QUERIES:,})",
        ["step", "total", "per query"],
        [
            ["add", f"{add_s:.2f} s", f"{add_s / RUNTIME_QUERIES * 1e6:.0f} us"],
            [
                "remove", f"{remove_s:.2f} s",
                f"{remove_s / RUNTIME_QUERIES * 1e6:.0f} us",
            ],
        ],
    )
