"""Figure 10: throughput and latency vs slice count and slice size
(Sec 6.3.3).

The workload is a count-based sliding window: slide = slice size, length =
slices x size, so each window is assembled from a configurable number of
slices of configurable size.

* Fig 10a/10b — vary the number of slices per window at fixed slice size:
  Desis/DeSW pay the window-end merge over all slices (throughput drops,
  latency rises); DeBucket's incremental buckets are insensitive;
  CeBuffer degrades because the window (buffer) itself grows.
* Fig 10c/10d — vary the slice size at a fixed slice count: tiny slices
  drown Desis/DeSW in slice bookkeeping.

The paper's takeaway — slicing does not pay off for windows made of very
many or very small slices — appears as those two trends.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    CeBufferProcessor,
    DeBucketProcessor,
    DeSWProcessor,
    DesisProcessor,
)
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.harness import fmt_ms, fmt_rate, print_table, run_processor

from conftest import stream

SYSTEMS = {
    "Desis": DesisProcessor,
    "DeSW": DeSWProcessor,
    "DeBucket": DeBucketProcessor,
    "CeBuffer": CeBufferProcessor,
}

N = 60_000


@pytest.fixture(scope="module")
def events():
    return stream(N, keys=1)


def window_query(slice_size: int, slices_per_window: int,
                 sliced: bool = True) -> list[Query]:
    """The workload per system class.

    Slicing systems see a sliding count window (slide = slice size) whose
    windows are unions of ``slices_per_window`` slices.  The bucketed
    systems do not slice — their equivalent is the same total window
    extent as one tumbling count window whose buffer/bucket simply grows
    (the paper: "their window size will increase if we increase the slice
    size and the slice number").
    """
    total = slice_size * slices_per_window
    if sliced:
        spec = WindowSpec.sliding(total, slice_size, measure=WindowMeasure.COUNT)
    else:
        spec = WindowSpec.tumbling(total, measure=WindowMeasure.COUNT)
    return [Query.of("w", spec, AggFunction.AVERAGE)]


def sweep(events, configurations):
    table = {}
    for name, factory in SYSTEMS.items():
        sliced = name in ("Desis", "DeSW")
        cells = []
        for slice_size, n_slices in configurations:
            stats = run_processor(
                factory,
                window_query(slice_size, n_slices, sliced=sliced),
                events,
                measure_latency=True,
                sample_every=997,
            )
            cells.append(stats)
        table[name] = cells
    return table


def test_fig10ab_slices_per_window(events, benchmark):
    configurations = [(1_000, n) for n in (1, 10, 50)]
    table = sweep(events, configurations)
    print_table(
        "Fig 10a: throughput vs slices per window (slice = 1k events)",
        ["system", *[f"{n} slices" for _, n in configurations]],
        [
            [name, *[fmt_rate(s.events_per_second) for s in cells]]
            for name, cells in table.items()
        ],
    )
    print_table(
        "Fig 10b: p95 latency vs slices per window",
        ["system", *[f"{n} slices" for _, n in configurations]],
        [
            [name, *[fmt_ms(s.latency.p95) for s in cells]]
            for name, cells in table.items()
        ],
    )
    # Desis merges every covering slice at each window end: the merge work
    # per event grows with the slice count (deterministic via results).
    desis = table["Desis"]
    assert desis[2].events_per_second < desis[0].events_per_second
    # CeBuffer iterates the whole (growing) buffer at window end: its
    # latency explodes with the window size even when amortized throughput
    # hides it at this replay scale.
    cebuffer = table["CeBuffer"]
    assert cebuffer[2].latency.p95 > 20 * cebuffer[0].latency.p95
    benchmark.pedantic(
        lambda: run_processor(DesisProcessor, window_query(1_000, 10), events),
        rounds=1, iterations=1,
    )


def test_fig10cd_slice_size(events, benchmark):
    configurations = [(size, 50) for size in (10, 100, 1_000)]
    table = sweep(events, configurations)
    print_table(
        "Fig 10c: throughput vs slice size (50 slices per window)",
        ["system", *[f"{size}-event slices" for size, _ in configurations]],
        [
            [name, *[fmt_rate(s.events_per_second) for s in cells]]
            for name, cells in table.items()
        ],
    )
    print_table(
        "Fig 10d: p95 latency vs slice size",
        ["system", *[f"{size}-event slices" for size, _ in configurations]],
        [
            [name, *[fmt_ms(s.latency.p95) for s in cells]]
            for name, cells in table.items()
        ],
    )
    # Tiny slices mean constant slice churn for the slicing systems.
    desis = table["Desis"]
    assert desis[0].events_per_second < desis[2].events_per_second
    benchmark.pedantic(
        lambda: run_processor(DesisProcessor, window_query(100, 50), events),
        rounds=1, iterations=1,
    )
