"""The Disco baseline (Benson et al., EDBT 2020) — Sec 6.1.1.

Disco also pushes window aggregation down to local nodes, but with three
differences from Desis that the evaluation measures:

1. locals use Scotty-style slicing, i.e. sharing only between identical
   aggregation functions, and ingest one event at a time;
2. partial results travel **per window**, not per slice — overlapping
   windows each ship their own partials, and intermediate/root nodes
   process every window individually (Fig 11d: traffic grows with the
   number of concurrent windows);
3. messages are JSON **strings** rather than bytes (Fig 11b: higher
   network overhead for the same payload).

This implementation supports fixed-size time windows (the window types the
paper's decentralized experiments exercise) and both decomposable and
holistic functions (holistic windows ship their collected values).
"""

from __future__ import annotations

import time as _time
from dataclasses import replace
from typing import Iterable

from repro.core.analyzer import analyze
from repro.core.engine import EngineStats, GroupRuntime
from repro.core.errors import ClusterError
from repro.core.event import Event
from repro.core.functions import finalize
from repro.core.operators import SortedRuns, merge_partials
from repro.core.query import Query
from repro.core.results import ResultSink, WindowResult
from repro.core.types import NodeRole, OperatorKind, SharingPolicy, WindowMeasure, WindowType
from repro.cluster.config import ClusterConfig
from repro.cluster.deployment import ClusterRunResult, Deployment
from repro.network.codec import StringCodec
from repro.network.messages import ControlMessage, WindowPartialMessage
from repro.network.simnet import SimNetwork, SimNode
from repro.network.topology import Topology

__all__ = ["DiscoCluster"]


def _check_supported(queries: list[Query]) -> None:
    for query in queries:
        if query.window.window_type not in (WindowType.TUMBLING, WindowType.SLIDING):
            raise ClusterError(
                f"Disco baseline supports fixed-size windows only, got "
                f"{query.window.window_type.value} ({query.query_id})"
            )
        if query.window.measure is not WindowMeasure.TIME:
            raise ClusterError(
                f"Disco baseline supports time-based windows only "
                f"({query.query_id})"
            )


class _DiscoLocal(SimNode):
    """Scotty slicing on the local node; one partial message per window."""

    def __init__(self, node_id: str, parent: str, queries: list[Query],
                 config: ClusterConfig) -> None:
        super().__init__(node_id, NodeRole.LOCAL)
        self.parent = parent
        self.config = config
        self.stats = EngineStats()
        self._net: SimNetwork | None = None
        self._now = config.origin
        plan = analyze(queries, policy=SharingPolicy.SAME_FUNCTION)
        self.runtimes = [
            GroupRuntime(
                group,
                ResultSink(keep=False),
                self.stats,
                window_sink=self._on_window,
            )
            for group in plan.groups
        ]
        for runtime in self.runtimes:
            runtime.advance(config.origin)

    def _on_window(self, window, merged_ops, count, end) -> None:
        if count == 0 or self._net is None:
            return
        values = merged_ops.get(OperatorKind.NON_DECOMPOSABLE_SORT)
        if type(values) is SortedRuns:
            values = list(values)  # the shipped list, off a rank-read view
        ops = {
            kind: partial
            for kind, partial in merged_ops.items()
            if kind is not OperatorKind.NON_DECOMPOSABLE_SORT
        }
        # Disco ships per-window partials per query: one message each,
        # which is what makes its traffic grow with concurrent windows
        # (Fig 11d).
        for query in window.queries:
            self._net.send(
                self.node_id,
                self.parent,
                WindowPartialMessage(
                    sender=self.node_id,
                    query_id=query.query_id,
                    start=window.start,
                    end=end,
                    count=count,
                    covered_to=self._now,
                    ops=ops,
                    values=values,
                ),
            )

    def on_events(self, events: list[Event], now: int, net: SimNetwork) -> None:
        # One timestamp per batch (a 1 ms grid), so a window an event
        # closes is sent at that event's time.
        self._net, self._now = net, now
        for event in events:
            self.stats.events += 1
            for runtime in self.runtimes:
                runtime.process(event)

    def on_tick(self, now: int, net: SimNetwork) -> None:
        self._net, self._now = net, now
        for runtime in self.runtimes:
            runtime.advance(now)
        net.send(
            self.node_id,
            self.parent,
            ControlMessage(sender=self.node_id, kind="progress", payload=now),
        )

    def on_finish(self, now: int, net: SimNetwork) -> None:
        self._net, self._now = net, now
        for runtime in self.runtimes:
            runtime.close(now)
        net.send(
            self.node_id,
            self.parent,
            ControlMessage(sender=self.node_id, kind="progress", payload=now),
        )


class _WindowMergeState:
    """Per-(query, window) accumulation of child partials."""

    __slots__ = ("ops", "values", "count")

    def __init__(self) -> None:
        self.ops: dict = {}
        self.values: list[float] | None = None
        self.count = 0

    def merge(self, message: WindowPartialMessage) -> None:
        self.count += message.count
        for kind, partial in message.ops.items():
            if kind in self.ops:
                self.ops[kind] = merge_partials(kind, self.ops[kind], partial)
            else:
                self.ops[kind] = partial
        if message.values is not None:
            self.values = merge_partials(
                OperatorKind.NON_DECOMPOSABLE_SORT, self.values or [], message.values
            )


class _DiscoMergeNode(SimNode):
    """Shared per-window merge logic for intermediate and root nodes.

    Windows are processed individually (no cross-window sharing) — the
    behaviour Desis improves on (Sec 5).
    """

    def __init__(self, node_id: str, role: NodeRole, children: list[str],
                 origin: int) -> None:
        super().__init__(node_id, role)
        self.covered = {child: origin for child in children}
        self.windows: dict[tuple[str, int, int], _WindowMergeState] = {}
        self.forwarded_to = origin

    def _ingest(self, message, now: int, net: SimNetwork) -> int | None:
        """Returns the new coverage boundary when it advanced.

        Only ``progress`` messages advance coverage: a sender emits them
        *after* all window partials for that boundary, so a window is never
        considered complete while a sibling partial is still in flight.
        """
        if isinstance(message, ControlMessage):
            if message.kind == "progress":
                sender = message.sender
                if sender in self.covered:
                    self.covered[sender] = max(self.covered[sender], message.payload)
                return self._advance()
            return None
        if isinstance(message, WindowPartialMessage):
            key = (message.query_id, message.start, message.end)
            state = self.windows.get(key)
            if state is None:
                state = self.windows[key] = _WindowMergeState()
            state.merge(message)
        return None

    def _advance(self) -> int | None:
        covered = min(self.covered.values()) if self.covered else self.forwarded_to
        if covered <= self.forwarded_to:
            return None
        self.forwarded_to = covered
        return covered

    def _complete_windows(self, covered: int):
        done = [key for key in self.windows if key[2] <= covered]
        done.sort(key=lambda key: (key[2], key[1], key[0]))
        return done


class _DiscoIntermediate(_DiscoMergeNode):
    def __init__(self, node_id: str, parent: str, children: list[str],
                 origin: int) -> None:
        super().__init__(node_id, NodeRole.INTERMEDIATE, children, origin)
        self.parent = parent

    def _forward(self, keys, covered: int, net: SimNetwork) -> None:
        for key in keys:
            state = self.windows.pop(key)
            query_id, start, end = key
            net.send(
                self.node_id,
                self.parent,
                WindowPartialMessage(
                    sender=self.node_id,
                    query_id=query_id,
                    start=start,
                    end=end,
                    count=state.count,
                    covered_to=covered,
                    ops=state.ops,
                    values=state.values,
                ),
            )
        net.send(
            self.node_id,
            self.parent,
            ControlMessage(sender=self.node_id, kind="progress", payload=covered),
        )

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        covered = self._ingest(message, now, net)
        if covered is None:
            return
        self._forward(self._complete_windows(covered), covered, net)

    def finish(self, net: SimNetwork) -> None:
        """Forward windows force-closed past the final coverage boundary."""
        remaining = sorted(self.windows, key=lambda key: (key[2], key[1], key[0]))
        self._forward(remaining, self.forwarded_to, net)


class _DiscoRoot(_DiscoMergeNode):
    def __init__(self, node_id: str, children: list[str], queries: list[Query],
                 origin: int) -> None:
        super().__init__(node_id, NodeRole.ROOT, children, origin)
        self.queries = {query.query_id: query for query in queries}
        self.sink = ResultSink()

    def _emit(self, key, state, now: int) -> None:
        query_id, start, end = key
        query = self.queries[query_id]
        ops = dict(state.ops)
        if state.values is not None:
            ops[OperatorKind.NON_DECOMPOSABLE_SORT] = state.values
        self.sink.emit(
            WindowResult(
                query_id=query_id,
                start=start,
                end=end,
                value=finalize(query.function, ops),
                event_count=state.count,
                emitted_at=now,
            )
        )

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        covered = self._ingest(message, now, net)
        if covered is None:
            return
        for key in self._complete_windows(covered):
            self._emit(key, self.windows.pop(key), now)

    def finish(self, now: int) -> None:
        for key in sorted(self.windows, key=lambda k: (k[2], k[1], k[0])):
            self._emit(key, self.windows.pop(key), now)


class DiscoCluster(Deployment):
    """The Disco deployment: Scotty locals, per-window string messages."""

    name = "Disco"

    def __init__(self, queries: Iterable[Query], topology: Topology, *,
                 config: ClusterConfig | None = None) -> None:
        base = config if config is not None else ClusterConfig()
        # Disco always talks JSON strings, whatever the cluster default is.
        super().__init__(topology, replace(base, codec=StringCodec()))
        self.queries = list(queries)
        _check_supported(self.queries)
        origin = self.config.origin
        self.root = _DiscoRoot(
            topology.root, topology.children(topology.root), self.queries, origin
        )
        self.mids: dict[str, _DiscoIntermediate] = self._add_nodes(
            self.root,
            lambda node_id: _DiscoLocal(
                node_id, topology.parent(node_id), self.queries, self.config
            ),
            lambda node_id: _DiscoIntermediate(
                node_id, topology.parent(node_id), topology.children(node_id),
                origin,
            ),
        )

    def run(self, streams: dict[str, Iterable[Event]]) -> ClusterRunResult:
        started = _time.perf_counter()
        # On a 1 ms grid: a local sends a window's partials when an event
        # closes it, so each batch holds the events of one timestamp and
        # runs at that time.
        end = self._inject(streams, grid=1)
        self._tick_locals(self.locals, start=self.config.origin, end=end)
        self.net.run()
        self._finish_locals()
        # Flush windows force-closed past coverage, deepest layer first.
        for node_id in sorted(
            self.mids, key=self.topology.hops_to_root, reverse=True
        ):
            self.mids[node_id].finish(self.net)
            self.net.run()
        self.root.finish(int(self.net.now))
        return self._result(
            self.root.sink,
            started,
            local_stats={
                node_id: node.stats for node_id, node in self.locals.items()
            },
        )
