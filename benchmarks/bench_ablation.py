"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the mechanisms behind them:

* operator sharing on/off with everything else equal (the Table 1
  decomposition, isolated from grouping effects);
* binary vs string codec bytes on identical messages (the Fig 11b gap);
* slice sharing vs per-window buckets at equal window semantics.
"""

from __future__ import annotations

import pytest

from repro.baselines import DeBucketProcessor, DesisProcessor
from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, SharingPolicy
from repro.harness import (
    fmt_bytes,
    fmt_rate,
    print_table,
    run_processor,
    tumbling_queries,
)
from repro.network.codec import BinaryCodec, StringCodec
from repro.network.messages import EventBatchMessage

from conftest import stream

N = 80_000


@pytest.fixture(scope="module")
def events():
    return stream(N)


def test_ablation_operator_sharing(events, benchmark):
    """Same grouping, same engine — only the function mix changes whether
    the planned operator set collapses."""
    shared = [
        Query.of("avg", WindowSpec.tumbling(1_000), AggFunction.AVERAGE),
        Query.of("sum", WindowSpec.tumbling(1_000), AggFunction.SUM),
        Query.of("cnt", WindowSpec.tumbling(1_000), AggFunction.COUNT),
    ]
    full = run_processor(DesisProcessor, shared, events)
    unshared = run_processor(
        lambda qs, sink=None: AggregationEngine(
            qs, config=EngineConfig(policy=SharingPolicy.NONE), sink=sink
        ),
        shared,
        events,
    )
    print_table(
        "Ablation: operator sharing (avg+sum+count)",
        ["plan", "calculations", "throughput"],
        [
            ["shared {sum,count}", f"{full.calculations:,}",
             fmt_rate(full.events_per_second)],
            ["per-query groups", f"{unshared.calculations:,}",
             fmt_rate(unshared.events_per_second)],
        ],
    )
    assert full.calculations == 2 * N
    assert unshared.calculations == 4 * N  # (sum+count) + sum + count
    benchmark.pedantic(
        lambda: run_processor(DesisProcessor, shared, events),
        rounds=1, iterations=1,
    )


def test_ablation_codecs(benchmark):
    """The Fig 11b string penalty, isolated on one identical message."""
    import random

    rng = random.Random(1)
    from repro.core.event import Event

    message = EventBatchMessage(
        sender="local-0",
        covered_to=10_000,
        events=[
            Event(t, f"k{t % 10}", rng.uniform(0, 120)) for t in range(2_000)
        ],
    )
    binary = len(BinaryCodec().encode(message))
    text = len(StringCodec().encode(message))
    print_table(
        "Ablation: codec size on one 2000-event batch",
        ["codec", "bytes", "per event"],
        [
            ["binary", fmt_bytes(binary), f"{binary / 2_000:.1f} B"],
            ["string (Disco)", fmt_bytes(text), f"{text / 2_000:.1f} B"],
        ],
    )
    assert text > 1.2 * binary
    benchmark.pedantic(
        lambda: BinaryCodec().decode(BinaryCodec().encode(message)),
        rounds=3, iterations=1,
    )


def test_ablation_slicing_vs_buckets(events, benchmark):
    """Slice sharing vs per-window buckets on heavily overlapping windows."""
    queries = tumbling_queries(50)
    desis = run_processor(DesisProcessor, queries, events)
    debucket = run_processor(DeBucketProcessor, queries, events)
    print_table(
        "Ablation: slicing vs per-window buckets (50 tumbling windows)",
        ["engine", "inserts+merges (calculations)", "throughput"],
        [
            ["sliced (Desis)", f"{desis.calculations:,}",
             fmt_rate(desis.events_per_second)],
            ["bucketed (DeBucket)", f"{debucket.calculations:,}",
             fmt_rate(debucket.events_per_second)],
        ],
    )
    assert debucket.calculations == 50 * 2 * N
    assert desis.calculations == 2 * N
    benchmark.pedantic(
        lambda: run_processor(DesisProcessor, queries, events),
        rounds=1, iterations=1,
    )
