"""The Desis user-facing session: the paper's interface component (Sec 3.1).

:class:`DesisSession` ties together the interface, query analyzer, window
manager, and aggregation engine for centralized use, with runtime query
management (Sec 3.2)::

    session = DesisSession()
    session.submit("SELECT AVG(value) FROM stream WINDOW TUMBLING 5s")
    session.submit("SELECT MEDIAN(value) FROM stream WINDOW SESSION GAP 30s")
    for event in events:
        session.process(event)
    for result in session.close():
        print(result)

Behavioural knobs live in one frozen :class:`~repro.core.config.EngineConfig`
(``DesisSession(config=EngineConfig(...))``); ``shards`` is common enough
to keep as sugar (``DesisSession(shards=4)`` runs the multi-core sharded
backend, DESIGN.md §13).

For decentralized deployments build a
:class:`~repro.cluster.desis.DesisCluster` with the same parsed queries.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine, EngineStats
from repro.core.errors import EngineError
from repro.core.event import Event
from repro.core.query import Query
from repro.core.results import ResultSink, WindowResult
from repro.interface.parser import parse_query

__all__ = ["DesisSession"]


class DesisSession:
    """A centralized Desis instance accepting textual or built queries."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        shards: int | None = None,
        recorder=None,
    ) -> None:
        base = config if config is not None else EngineConfig()
        #: the resolved frozen configuration driving this session
        self.config = (
            base if shards is None else base.with_options(shards=shards)
        )
        #: optional slice-lifecycle trace recorder handed to the engine
        #: (see :mod:`repro.obs.tracing`); ``None`` keeps tracing off.
        #: Not supported with ``shards > 1`` — workers run out of process.
        self.recorder = recorder
        if recorder is not None and self.config.shards > 1:
            raise EngineError(
                "tracing is not supported with shards > 1: trace events "
                "would interleave across worker processes"
            )
        self._probe = None
        self._engine = None
        self._pending: list[Query] = []
        self._counter = 0

    @property
    def shards(self) -> int:
        return self.config.shards

    # -- query management ------------------------------------------------------------

    def submit(self, query: str | Query, *, query_id: str | None = None) -> str:
        """Register a query (text or :class:`Query`); returns its id.

        Before the first event arrives queries are collected so the
        analyzer can group them together; afterwards they attach at
        stream time (Sec 3.2) — single-process sessions only: the
        sharded backend freezes the query set at start.
        """
        if isinstance(query, str):
            if query_id is None:
                query_id = f"q{self._counter}"
            parsed = parse_query(query, query_id=query_id)
        else:
            parsed = query
            if query_id is not None and query_id != parsed.query_id:
                raise EngineError("query_id conflicts with the Query object")
        self._counter += 1
        if self._engine is None:
            self._pending.append(parsed)
        elif self.config.shards > 1:
            raise EngineError(
                "cannot add queries to a running sharded session: the "
                "worker schedule is fixed at start (submit before the "
                "first event, or run with shards=1)"
            )
        else:
            self._engine.add_query(parsed)
        return parsed.query_id

    def remove(self, query_id: str, *, drain: bool = False) -> None:
        """Remove a running (or pending) query.

        ``drain=True`` implements the paper's "wait for the last window to
        end" removal mode (Sec 3.2); the default removes immediately.
        """
        if self._engine is None:
            before = len(self._pending)
            self._pending = [q for q in self._pending if q.query_id != query_id]
            if len(self._pending) == before:
                raise EngineError(f"unknown query id: {query_id!r}")
            return
        if self.config.shards > 1:
            raise EngineError(
                "cannot remove queries from a running sharded session"
            )
        self._engine.remove_query(query_id, drain=drain)

    @property
    def queries(self) -> list[Query]:
        if self._engine is None:
            return list(self._pending)
        return self._engine.plan.queries

    # -- processing ------------------------------------------------------------------

    def _ensure_engine(self):
        if self._engine is None:
            sink = None
            if self.config.measure_latency:
                from repro.metrics.latency import LatencyProbe

                sink = self._probe = LatencyProbe(
                    sample_every=self.config.latency_sample_every,
                    keep=True,
                    expiry_horizon_ms=self.config.latency_expiry_horizon_ms,
                )
            if self.config.shards > 1:
                from repro.parallel import ShardedEngine

                self._engine = ShardedEngine(
                    self._pending, config=self.config, sink=sink
                )
            else:
                self._engine = AggregationEngine(
                    self._pending,
                    config=self.config,
                    sink=sink,
                    recorder=self.recorder,
                )
            self._pending = []
        return self._engine

    def process(self, event: Event) -> None:
        engine = self._engine
        if engine is None:
            engine = self._ensure_engine()
        if self._probe is not None:
            self._probe.on_ingest(event)
        engine.process(event)

    def process_many(self, events: Iterable[Event]) -> None:
        engine = self._ensure_engine()
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if self._probe is not None:
            for event in events:
                self._probe.on_ingest(event)
        engine.process_batch(events)

    def advance(self, time: int) -> None:
        self._ensure_engine().advance(time)

    def close(self, at_time: int | None = None) -> ResultSink:
        return self._ensure_engine().close(at_time)

    @property
    def results(self) -> list[WindowResult]:
        if self._engine is None:
            return []
        return list(self._engine.sink)

    @property
    def stats(self) -> EngineStats:
        return self._ensure_engine().stats

    @property
    def shard_stats(self):
        """Per-shard counters (``None`` for single-process sessions)."""
        if self._engine is None or self.config.shards <= 1:
            return None
        return self._engine.shard_stats

    def latency_summary(self):
        """Percentile summary of the probe (``None`` unless measuring).

        The summary carries ``expired_samples`` — samples the bounded
        expiry horizon evicted unmatched — which
        :func:`repro.obs.registry.publish_latency_summary` surfaces as
        the ``latency.expired_samples`` counter.
        """
        if self._probe is None:
            return None
        return self._probe.summary()
