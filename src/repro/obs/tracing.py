"""Slice-lifecycle tracing in simulated time.

Every window result a Desis cluster emits is the end of a pipeline that
the paper only ever describes in aggregate: slices close on local nodes,
partial batches ship upward, intermediates merge and release them, the
root consumes covered records and assembles windows.  The trace recorder
captures that pipeline as a bounded stream of events:

========================  =====================================================
kind                      recorded when / by
========================  =====================================================
``slice.close``           a node's group runtime terminates a slice
``partial.ship``          a local node ships a :class:`PartialBatchMessage`
``merge.release``         an intermediate releases covered records upward
``root.consume``          the root's merger hands covered records to assembly
                          (``cells``: cells the batch's records folded into)
``window.emit``           a window result reaches the sink
``merge.reuse``           a window close is served by the incremental merge
                          layer instead of a full slice/cell scan (engine
                          and root, once per close whatever the number of
                          subscribed queries; see repro.core.incmerge)
``net.send``              the reliable channel first offers a partial batch
                          frame to a link (sequenced-envelope path only)
``net.transit``           a partial batch finishes crossing a link, right
                          before the receiving node consumes it
``net.ack``               a cumulative ack reaches the sending channel
``net.retransmit``        the reliable channel re-sends an unacked frame
``checkpoint.save``       a node persists a state snapshot (DESIGN.md §8)
``node.recover``          a node restores after a state-losing restart
``child.reroute``         failover adopts a dead intermediate's child
``credit.stall``          a reliable channel runs out of credit and its
                          sender stops shipping (DESIGN.md §12)
``buffer.shed``           a bounded staging buffer sheds whole slices,
                          degrading the affected windows (DESIGN.md §12)
========================  =====================================================

Events are keyed by ``(group, slice id, node)`` and stamped with
*simulated* milliseconds, never wall clock, so a trace is deterministic:
two runs with the same seed produce byte-identical traces, and a run
under a fault plan can be diffed against its lossless twin.

The default recorder everywhere is :data:`NULL_RECORDER`, a shared no-op
whose ``enabled`` flag is ``False`` — instrumented hot paths guard with
``if recorder.enabled:`` and pay one attribute read when tracing is off.

:meth:`TraceRecorder.explain_window` answers the question the motivation
section of the issue poses ("why did this window degrade under 5%
drop?"): given an emitted :class:`~repro.core.results.WindowResult` it
walks the ring buffer backwards and reconstructs the window's provenance
— contributing slices, source nodes, merge hops with per-hop timestamps,
and the retransmits that preceded the emit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.log import get_logger

_log = get_logger(__name__)

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NULL_RECORDER",
    "WindowProvenance",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One point in a slice's lifecycle.

    Attributes:
        seq: recorder-wide sequence number (total order within a run).
        at: simulated time in ms (deterministic across runs).
        kind: one of the lifecycle kinds in the module table.
        node: the node the event happened on (``""`` for network events).
        group: query-group id (``-1`` for network events).
        data: kind-specific payload (slice bounds, record spans, ...).
    """

    seq: int
    at: int
    kind: str
    node: str = ""
    group: int = -1
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "at": self.at,
            "kind": self.kind,
            "node": self.node,
            "group": self.group,
            **self.data,
        }


@dataclass(slots=True)
class WindowProvenance:
    """Everything the trace knows about one emitted window."""

    query_id: str
    start: int
    end: int
    group: int
    emitted_at: int
    event_count: int
    #: local nodes whose slices fed the window, sorted
    sources: list[str]
    #: contributing ``slice.close`` events (node, slice bounds, cut time)
    slices: list[TraceEvent]
    #: ship/merge/consume hops that carried the window's records, in order
    hops: list[TraceEvent]
    #: reliable-channel re-sends per link observed before the emit
    retransmits: dict[str, int]
    #: ``buffer.shed`` events whose shed coverage intersects the window
    #: (DESIGN.md §12); non-empty exactly when the result is degraded
    sheds: list[TraceEvent] = field(default_factory=list)
    #: the emitted result's completeness (1.0 unless coverage was shed)
    completeness: float = 1.0

    @property
    def total_retransmits(self) -> int:
        return sum(self.retransmits.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "query_id": self.query_id,
            "start": self.start,
            "end": self.end,
            "group": self.group,
            "emitted_at": self.emitted_at,
            "event_count": self.event_count,
            "sources": self.sources,
            "slices": [event.to_dict() for event in self.slices],
            "hops": [event.to_dict() for event in self.hops],
            "retransmits": self.retransmits,
            "sheds": [event.to_dict() for event in self.sheds],
            "completeness": self.completeness,
        }


#: hop kinds, in pipeline order (used for provenance ordering)
_HOP_KINDS = ("partial.ship", "merge.release", "root.consume")


class TraceRecorder:
    """A ring-buffered recorder of slice-lifecycle events.

    ``capacity`` bounds memory: the oldest events fall off the ring and
    :attr:`dropped` counts them, so long runs stay O(capacity) while
    recent windows remain fully explainable.
    """

    __slots__ = ("_events", "_seq", "dropped", "capacity", "_warned_drop")

    enabled = True

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self._warned_drop = False

    def __len__(self) -> int:
        return len(self._events)

    def record(self, kind: str, at: int | float, *, node: str = "",
               group: int = -1, **data: Any) -> None:
        self._seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
            if not self._warned_drop:
                self._warned_drop = True
                _log.warning(
                    "trace ring buffer full (capacity=%d); evicting oldest "
                    "events — older windows are no longer explainable",
                    self.capacity,
                )
        self._events.append(
            TraceEvent(
                seq=self._seq,
                at=int(at),
                kind=kind,
                node=node,
                group=group,
                data=data,
            )
        )

    def events(self, kind: str | None = None, *, group: int | None = None,
               node: str | None = None) -> Iterator[TraceEvent]:
        """Iterate buffered events in record order, optionally filtered."""
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if group is not None and event.group != group:
                continue
            if node is not None and event.node != node:
                continue
            yield event

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self._warned_drop = False

    # -- provenance ------------------------------------------------------------

    def explain_window(self, result) -> WindowProvenance:
        """Reconstruct the provenance of an emitted window result.

        ``result`` is a :class:`~repro.core.results.WindowResult` (or any
        object with ``query_id``/``start``/``end``).  Raises ``KeyError``
        when the window's emit event is not in the buffer (never traced,
        or already evicted from the ring).
        """
        emit: TraceEvent | None = None
        for event in reversed(self._events):
            if (
                event.kind == "window.emit"
                and event.data.get("query_id") == result.query_id
                and event.data.get("start") == result.start
                and event.data.get("end") == result.end
            ):
                emit = event
                break
        if emit is None:
            raise KeyError(
                f"no window.emit trace for {result.query_id!r} "
                f"[{result.start}..{result.end}); was tracing enabled, and "
                f"is the window still inside the ring buffer?"
            )
        group = emit.group
        start, end = result.start, result.end
        slices: list[TraceEvent] = []
        hops: list[TraceEvent] = []
        retransmits: dict[str, int] = {}
        sheds: list[TraceEvent] = []
        for event in self._events:
            if event.seq > emit.seq:
                break
            if event.kind == "net.retransmit":
                link = event.data.get("link", "?")
                retransmits[link] = retransmits.get(link, 0) + 1
                continue
            if event.group != group:
                continue
            if event.kind == "slice.close":
                if self._overlaps(event, start, end):
                    slices.append(event)
            elif event.kind in _HOP_KINDS:
                if self._overlaps(event, start, end):
                    hops.append(event)
            elif event.kind == "buffer.shed":
                if self._overlaps(event, start, end):
                    sheds.append(event)
        hops.sort(key=lambda e: (e.at, _HOP_KINDS.index(e.kind), e.seq))
        return WindowProvenance(
            query_id=result.query_id,
            start=start,
            end=end,
            group=group,
            emitted_at=emit.at,
            event_count=emit.data.get("event_count", 0),
            sources=sorted({e.node for e in slices}),
            slices=slices,
            hops=hops,
            retransmits=retransmits,
            sheds=sheds,
            completeness=emit.data.get("completeness", 1.0),
        )

    @staticmethod
    def _overlaps(event: TraceEvent, start: int, end: int) -> bool:
        """Whether the event's ``[start, end)`` span intersects the window."""
        span_start = event.data.get("start")
        span_end = event.data.get("end")
        if span_start is None or span_end is None:
            return False
        if span_start == span_end:  # empty span: boundary slices count once
            return start <= span_start < end
        return span_start < end and span_end > start


class _NullRecorder(TraceRecorder):
    """The shared disabled recorder: every hook is a cheap no-op.

    Hot paths must guard with ``if recorder.enabled:`` so tracing costs a
    single attribute read when off; ``record`` is still safe to call.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def record(self, kind: str, at: int | float, *, node: str = "",
               group: int = -1, **data: Any) -> None:
        return None


NULL_RECORDER = _NullRecorder()
