"""Throughput measurement (Sec 6.1).

The paper reports *sustainable* throughput — the rate a system handles
without an ever-growing backlog.  In a replay setting each stage's
processing rate is measured directly, so sustainable throughput is the
minimum over stages, optionally capped by link bandwidth (the Raspberry Pi
experiment's 1G ceiling, Fig 13b/13c).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.baselines.api import StreamProcessor
from repro.core.errors import ReproError
from repro.core.event import Event

__all__ = ["ThroughputResult", "measure_throughput", "modeled_sustainable_throughput"]


@dataclass(slots=True)
class ThroughputResult:
    """Outcome of one replay measurement.

    ``seconds`` is the full replay (ingest loop plus end-of-stream
    ``close()``); ``process_seconds``/``close_seconds`` split the two so
    the one-off flush cost does not pollute sustained-rate numbers.
    """

    events: int
    seconds: float
    results: int
    #: ingest-loop time only
    process_seconds: float
    #: end-of-stream ``close()`` time only
    close_seconds: float

    @property
    def events_per_second(self) -> float:
        """Sustained ingest rate (excludes ``close()``)."""
        elapsed = self.process_seconds
        return self.events / elapsed if elapsed > 0 else 0.0


def measure_throughput(
    processor: StreamProcessor,
    events: Iterable[Event],
    *,
    close: bool = True,
    on_ingest: Callable[[Event], None] | None = None,
) -> ThroughputResult:
    """Replay ``events`` through ``processor`` and time the hot loop.

    ``on_ingest`` sees each event just before the processor does, e.g. a
    :class:`~repro.metrics.latency.LatencyProbe` stamping its ingest time.
    """
    materialized = events if isinstance(events, list) else list(events)
    process = processor.process
    if on_ingest is not None:
        ingested = process

        def process(event: Event) -> None:
            on_ingest(event)
            ingested(event)

    started = _time.perf_counter()
    for event in materialized:
        process(event)
    processed = _time.perf_counter()
    if close:
        processor.close()
    closed = _time.perf_counter()
    return ThroughputResult(
        events=len(materialized),
        seconds=closed - started,
        results=processor.sink.count,
        process_seconds=processed - started,
        close_seconds=closed - processed,
    )


def modeled_sustainable_throughput(
    *,
    node_rates: Iterable[float],
    bytes_per_event: float | None = None,
    link_bandwidth_bytes_per_s: float | None = None,
) -> float:
    """Sustainable throughput = the slowest stage of the pipeline.

    Args:
        node_rates: measured per-node processing rates (events/s); for a
            scale-out tier, pass the tier's aggregate rate.
        bytes_per_event: wire bytes each event costs on the bottleneck
            link (raw event size for centralized shipping; amortized
            partial-result bytes for decentralized aggregation).
        link_bandwidth_bytes_per_s: bandwidth of the bottleneck link.

    Models Fig 13b/13c: Scotty on the Pi cluster is pinned at
    ``bandwidth / bytes_per_event`` (~3.2M events/s over 1G Ethernet)
    while Desis' tiny partial results never hit the cap.
    """
    rates = list(node_rates)
    if not rates:
        raise ReproError("need at least one node rate")
    bottleneck = min(rates)
    if bytes_per_event is not None and link_bandwidth_bytes_per_s is not None:
        if bytes_per_event > 0:
            bottleneck = min(
                bottleneck, link_bandwidth_bytes_per_s / bytes_per_event
            )
    return bottleneck
