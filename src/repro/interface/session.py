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

An in-process session holds in-order events that fire no punctuation
(those strictly before :meth:`AggregationEngine.quiet_until`) and applies
them as one slice-run batch right before the first event that may, or at
:data:`HOLD_CAP`, or before anything reads or changes the engine: results
come out in the call, and with the ``emitted_at``, of per-event
ingestion (DESIGN.md §3, "The session holds what fires no punctuation").

For decentralized deployments build a
:class:`~repro.cluster.desis.DesisCluster` with the same parsed queries.
"""

from __future__ import annotations

from math import inf
from typing import Iterable

from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine, EngineStats
from repro.core.errors import EngineError
from repro.core.event import Event
from repro.core.query import Query
from repro.core.results import ResultSink, WindowResult
from repro.interface.parser import parse_query

__all__ = ["DesisSession"]

#: the most in-order events a session holds before it applies them in
#: one batch; the gain is flat from 512 to 32 768
HOLD_CAP = 4096
#: fewer held events than this are applied per event: below it the
#: batch's fixed cost (columns, order check, deadline bisect) is more
#: than the per-event calls it saves (EXPERIMENTS.md, "Dense
#: punctuations")
BATCH_MIN = 16


def _hold_nothing() -> None:
    """The quiet time of an engine no event may wait for: sharded (its
    backend frames rows itself) or closed."""
    return None


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
        #: in-order events not yet handed to the engine, all strictly
        #: before ``_quiet``
        self._held: list[Event] = []
        #: the stream time the engine has once ``_held`` is applied
        self._last: float = -inf
        #: an event in ``[_last, _quiet)`` is held. ``-inf`` holds none
        #: and reads the quiet time again after the next event (the first
        #: one, which bootstraps the groups); ``None`` holds none until
        #: the queries change
        self._quiet: float | None = None
        self._read_quiet = _hold_nothing

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
            self._apply_held()
            self._engine.add_query(parsed)
            self._quiet = self._read_quiet()
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
        self._apply_held()
        self._engine.remove_query(query_id, drain=drain)
        self._quiet = self._read_quiet()

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
                self._read_quiet = self._engine.quiet_until
                self._quiet = -inf
            self._pending = []
        return self._engine

    def _apply_held(self) -> None:
        """Hand the held events to the engine: one slice-run batch, or per
        event when they are too few to repay the batch's fixed cost."""
        held = self._held
        if held:
            self._held = []
            if len(held) < BATCH_MIN:
                process = self._engine.process
                for event in held:
                    process(event)
            else:
                self._engine.process_batch(held)

    def process(self, event: Event) -> None:
        engine = self._engine
        if engine is None:
            engine = self._ensure_engine()
        if self._probe is not None:
            self._probe.on_ingest(event)
        quiet = self._quiet
        time = event.time
        if quiet is None:
            engine.process(event)
            self._last = time
            return
        if time < self._last:
            # Out of order: the held prefix lands, then the engine raises
            # what it raises per event.
            self._apply_held()
            engine.process(event)
            return
        self._last = time
        if time < quiet:
            held = self._held
            held.append(event)
            if len(held) >= HOLD_CAP:
                self._apply_held()
            return
        # It may drain: applied right after the list, it emits in this
        # call, as it would alone.
        if self._held:
            self._apply_held()
        engine.process(event)
        self._quiet = self._read_quiet()

    def process_many(self, events: Iterable[Event]) -> None:
        engine = self._ensure_engine()
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if self._probe is not None:
            for event in events:
                self._probe.on_ingest(event)
        self._apply_held()
        engine.process_batch(events)
        if events:
            self._last = events[-1].time
            self._quiet = self._read_quiet()

    def advance(self, time: int) -> None:
        engine = self._ensure_engine()
        self._apply_held()
        engine.advance(time)
        self._last = time
        self._quiet = self._read_quiet()

    def close(self, at_time: int | None = None) -> ResultSink:
        engine = self._ensure_engine()
        self._apply_held()
        self._read_quiet = _hold_nothing
        self._quiet = None
        return engine.close(at_time)

    @property
    def results(self) -> list[WindowResult]:
        if self._engine is None:
            return []
        return list(self._engine.sink)

    @property
    def stats(self) -> EngineStats:
        """The engine's live counters, with the held events applied.

        A kept reference moves with the engine, which sees held events
        only when they are applied. So its per-event counters
        (``events``, ``inserts``, ``calculations``, ``selection_checks``,
        ``duplicates_dropped``) are exact right after a read of this
        property and may lag by up to :data:`HOLD_CAP` events between
        reads. The counters that move at a punctuation (slices, windows,
        results, merges) are exact after every call.
        """
        engine = self._ensure_engine()
        self._apply_held()
        return engine.stats

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
