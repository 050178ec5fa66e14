"""Centralized aggregation over a decentralized topology (Sec 2.4, 6.1.1).

The CeBuffer and Scotty deployments of the evaluation: all nodes except
the root only *move* data — locals batch their raw events per tick,
intermediates re-forward the batches (paying the bytes again on every
hop), and the root runs an ordinary centralized
:class:`~repro.baselines.api.StreamProcessor` over the merged stream.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Callable, Iterable

from repro.core.errors import ClusterError
from repro.core.event import Event
from repro.core.query import Query
from repro.core.types import NodeRole
from repro.cluster.config import ClusterConfig
from repro.cluster.deployment import ClusterRunResult, Deployment
from repro.network.messages import ControlMessage, EventBatchMessage
from repro.network.simnet import SimNetwork, SimNode
from repro.network.topology import Topology

__all__ = ["CentralizedCluster"]


class _ForwardingLocal(SimNode):
    """Ships its raw events upward in per-tick batches."""

    def __init__(self, node_id: str, parent: str) -> None:
        super().__init__(node_id, NodeRole.LOCAL)
        self.parent = parent
        self.pending: list[Event] = []

    def on_events(self, events: list[Event], now: int, net: SimNetwork) -> None:
        self.pending.extend(events)

    def _flush(self, now: int, net: SimNetwork) -> None:
        net.send(
            self.node_id,
            self.parent,
            EventBatchMessage(
                sender=self.node_id, covered_to=now, events=self.pending
            ),
        )
        self.pending = []

    def on_tick(self, now: int, net: SimNetwork) -> None:
        self._flush(now, net)

    def on_finish(self, now: int, net: SimNetwork) -> None:
        self._flush(now, net)


class _ForwardingIntermediate(SimNode):
    """Transfers data without processing it (Sec 6.1): every hop re-pays
    the serialization bytes, which is why centralized network overhead
    grows linearly with intermediate layers (Sec 6.4.1)."""

    def __init__(self, node_id: str, parent: str) -> None:
        super().__init__(node_id, NodeRole.INTERMEDIATE)
        self.parent = parent

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        net.send(self.node_id, self.parent, message)


class _CentralRoot(SimNode):
    """Runs the actual stream processor over the merged child streams."""

    def __init__(self, node_id: str, locals_: list[str], processor) -> None:
        super().__init__(node_id, NodeRole.ROOT)
        self.processor = processor
        self.covered = {local: None for local in locals_}
        self.pending: dict[str, list[Event]] = {local: [] for local in locals_}
        self.fed_to: int | None = None

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        if isinstance(message, ControlMessage):
            return
        if not isinstance(message, EventBatchMessage):
            return
        if message.sender not in self.pending:
            raise ClusterError(f"events from unknown local {message.sender!r}")
        self.pending[message.sender].extend(message.events)
        self.covered[message.sender] = message.covered_to
        self._advance()

    def _advance(self) -> None:
        if any(covered is None for covered in self.covered.values()):
            return
        covered = min(self.covered.values())
        if self.fed_to is not None and covered <= self.fed_to:
            return
        self.fed_to = covered
        ready: list[list[Event]] = []
        for sender, buffer in self.pending.items():
            split = 0
            while split < len(buffer) and buffer[split].time <= covered:
                split += 1
            ready.append(buffer[:split])
            self.pending[sender] = buffer[split:]
        # Replay the merged span as one ordered batch; processors without
        # a batched fast path (Scotty, CeBuffer, ...) fall back to the
        # per-event loop inside their ``process_batch``.
        merged = list(heapq.merge(*ready, key=lambda e: e.time))
        if merged:
            self.processor.process_batch(merged)
        self.processor.advance(covered)

    def finish(self) -> None:
        self.processor.close(self.fed_to)


class CentralizedCluster(Deployment):
    """CeBuffer/Scotty deployed over a topology: only the root computes."""

    def __init__(
        self,
        queries: Iterable[Query],
        topology: Topology,
        processor_factory: Callable[[list[Query]], object],
        *,
        config: ClusterConfig | None = None,
    ) -> None:
        super().__init__(
            topology, config if config is not None else ClusterConfig()
        )
        self.queries = list(queries)
        self.processor = processor_factory(self.queries)
        # Anchor fixed-window schedules at the shared origin, like every
        # node of the decentralized deployments.
        self.processor.advance(self.config.origin)
        self.name = getattr(self.processor, "name", "centralized")
        self.root = _CentralRoot(topology.root, topology.locals_(), self.processor)
        self._add_nodes(
            self.root,
            lambda node_id: _ForwardingLocal(node_id, topology.parent(node_id)),
            lambda node_id: _ForwardingIntermediate(
                node_id, topology.parent(node_id)
            ),
        )

    def run(self, streams: dict[str, Iterable[Event]]) -> ClusterRunResult:
        started = _time.perf_counter()
        end = self._inject(streams)
        self._tick_locals(self.locals, start=self.config.origin, end=end)
        self.net.run()
        self._finish_locals()
        self.root.finish()
        return self._result(self.processor.sink, started)
