"""Measurement utilities: throughput and latency.

Network overhead is read off a run's
:class:`~repro.network.simnet.NetworkStats` directly.
"""

from repro.metrics.latency import (
    LatencyProbe,
    LatencySummary,
    event_time_latencies,
    summarize,
)
from repro.metrics.throughput import (
    ThroughputResult,
    measure_throughput,
    modeled_sustainable_throughput,
)

__all__ = [
    "LatencyProbe",
    "LatencySummary",
    "ThroughputResult",
    "event_time_latencies",
    "measure_throughput",
    "modeled_sustainable_throughput",
    "summarize",
]
