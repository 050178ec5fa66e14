"""Slicing engines under restricted sharing: Desis, Scotty, and DeSW.

All three are the same sliced engine; they differ in the sharing policy the
query analyzer applies and in how punctuations are found (Sec 6.1.1):

* :class:`DesisProcessor` — full sharing, punctuation heap.
* :class:`ScottyProcessor` — shares only between identical aggregation
  functions (the Scotty API's capability) and checks punctuations per
  event, like the original stream-slicing implementation.
* :class:`DeSWProcessor` — shares only between identical functions *and*
  window measures, per-event punctuation checks.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.api import per_event_fallback
from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.event import Event
from repro.core.query import Query
from repro.core.results import ResultSink
from repro.core.types import SharingPolicy
from repro.parallel import ShardedEngine

__all__ = [
    "DesisProcessor",
    "ScottyProcessor",
    "DeSWProcessor",
    "ShardedDesisProcessor",
]


class DesisProcessor(AggregationEngine):
    """Desis: full cross-function sharing with scheduled punctuations."""

    name = "Desis"

    def __init__(self, queries: Iterable[Query], sink: ResultSink | None = None):
        super().__init__(
            queries,
            policy=SharingPolicy.FULL,
            punctuation_mode="heap",
            sink=sink,
        )


class ShardedDesisProcessor(ShardedEngine):
    """Desis on the multi-core sharded backend (DESIGN.md §13).

    Satisfies the same :class:`~repro.baselines.api.StreamProcessor`
    protocol as the in-process systems, so harnesses drive it unchanged.
    Not part of :data:`~repro.baselines.CENTRALIZED_SYSTEMS` by default:
    it only accepts fixed time windows, while the comparison workloads
    may roam the full window vocabulary — ``repro compare --shards N``
    adds it to the table explicitly.
    """

    def __init__(
        self,
        queries: Iterable[Query],
        sink: ResultSink | None = None,
        shards: int = 4,
    ):
        super().__init__(
            queries,
            config=EngineConfig(shards=shards),
            sink=sink,
        )
        self.name = f"Desis x{shards}"


class ScottyProcessor(AggregationEngine):
    """The Scotty baseline: same-function sharing, per-event checks."""

    name = "Scotty"

    def __init__(self, queries: Iterable[Query], sink: ResultSink | None = None):
        super().__init__(
            queries,
            policy=SharingPolicy.SAME_FUNCTION,
            punctuation_mode="scan",
            sink=sink,
        )

    def process_batch(self, events: "list[Event]") -> None:
        # Scotty "checks each arriving event" (Sec 6.2.1): batch input
        # still pays the per-event loop so its cost model is preserved.
        per_event_fallback(self, events)


class DeSWProcessor(AggregationEngine):
    """The DeSW baseline: same function *and* measure, per-event checks."""

    name = "DeSW"

    def __init__(self, queries: Iterable[Query], sink: ResultSink | None = None):
        super().__init__(
            queries,
            policy=SharingPolicy.SAME_FUNCTION_AND_MEASURE,
            punctuation_mode="scan",
            sink=sink,
        )

    def process_batch(self, events: "list[Event]") -> None:
        # Like Scotty, DeSW models an engine without batched ingestion.
        per_event_fallback(self, events)
