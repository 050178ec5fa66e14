"""Shared experiment runners used by the benchmark suite and examples.

These encode the recurring experimental shapes of Section 6: replay a
workload through each system, collect throughput / latency / work
counters, and hand back comparable records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.api import StreamProcessor
from repro.core.event import Event
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.metrics.latency import LatencyProbe, LatencySummary
from repro.metrics.throughput import ThroughputResult, measure_throughput

__all__ = [
    "CentralRunStats",
    "run_processor",
    "run_systems",
    "tumbling_queries",
    "quantile_queries",
]


@dataclass(slots=True)
class CentralRunStats:
    """One system's outcome on one centralized workload."""

    name: str
    throughput: ThroughputResult
    calculations: int
    slices: int
    results: int
    latency: LatencySummary | None = None

    @property
    def events_per_second(self) -> float:
        return self.throughput.events_per_second


def run_processor(
    factory: Callable[[list[Query]], StreamProcessor],
    queries: Sequence[Query],
    events: list[Event],
    *,
    measure_latency: bool = False,
    sample_every: int = 100,
) -> CentralRunStats:
    """Replay ``events`` through a fresh processor and collect its stats.

    With ``measure_latency`` a :class:`LatencyProbe` sampling every
    ``sample_every``-th event is the processor's sink.
    """
    queries = list(queries)
    if measure_latency:
        probe = LatencyProbe(sample_every=sample_every)
        processor = factory(queries, sink=probe)  # type: ignore[call-arg]
        throughput = measure_throughput(
            processor, events, on_ingest=probe.on_ingest
        )
    else:
        processor = factory(queries)
        throughput = measure_throughput(processor, events)
    return CentralRunStats(
        name=getattr(processor, "name", factory.__name__),
        throughput=throughput,
        calculations=processor.stats.calculations,
        slices=processor.stats.slices_closed,
        results=processor.sink.count,
        latency=probe.summary() if measure_latency else None,
    )


def run_systems(
    systems: dict[str, Callable],
    queries: Sequence[Query],
    events: list[Event],
    **kwargs,
) -> list[CentralRunStats]:
    """Run every system of Sec 6.1.1 on the same workload."""
    return [
        run_processor(factory, queries, events, **kwargs)
        for factory in systems.values()
    ]


def tumbling_queries(
    n: int,
    fn: AggFunction = AggFunction.AVERAGE,
    *,
    min_length_ms: int = 1_000,
    max_length_ms: int = 10_000,
    quantile: float | None = None,
) -> list[Query]:
    """``n`` tumbling queries with equally distributed lengths (Sec 6.2.1:
    "windows that have equally distributed lengths from 1 to 10 seconds").

    Lengths cycle over whole multiples of ``min_length_ms``, so every
    window boundary falls on the 1-second punctuation grid and concurrent
    windows share slices fully (the Fig 8b "constant slices" effect).
    """
    steps = max(max_length_ms // min_length_ms, 1)
    queries = []
    for i in range(n):
        length = min_length_ms * (i % steps + 1)
        queries.append(
            Query.of(f"q{i}", WindowSpec.tumbling(length), fn, quantile=quantile)
        )
    return queries


def quantile_queries(n: int, *, length_ms: int = 1_000) -> list[Query]:
    """``n`` distinct quantile queries (Fig 9c: values spread 1..1000)."""
    return [
        Query.of(
            f"q{i}",
            WindowSpec.tumbling(length_ms),
            AggFunction.QUANTILE,
            quantile=(i % 999 + 1) / 1_000,
        )
        for i in range(n)
    ]
