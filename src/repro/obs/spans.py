"""Causal spans: per-window trace trees over the flat event recorder.

The flat :class:`~repro.obs.tracing.TraceRecorder` stays the recorded
substrate — hot paths still pay one guarded ``record()`` call, and the
byte-identity and overhead contracts of PR 3 are untouched.  This module
materializes *spans* on top of it, after the run: one trace per emitted
window, rooted at the first contributing event's ingest, with every hop
the window's records took hanging off that root causally.

Identifiers are derived, never generated:

* ``trace_id`` is ``"{query_id}:{start}:{end}"`` — the window identity;
* ``span_id`` is the underlying event's recorder sequence number (a total
  order within the run);
* ``parent_id`` points at the span that causally enabled this one — the
  slice a ship drained, the ship/release a link transit carried, the
  transit a merge/consume drained.

Because every id and timestamp comes from the deterministic recorder,
two same-seed runs produce **byte-identical span trees**
(:func:`render_spans_jsonl` output diffs empty), faulty runs included.

Span names and their parents:

==============  ==================================================
name            parent
==============  ==================================================
``window``      — (root; covers first ingest → emit)
``slice``       root (covers slice start → cut)
``ship``        the latest contributing slice cut on the same node
``send``        the ship/release whose batch entered the channel
``transit``     the ship/release at the link's source (covers the
                hop: sender's release time → delivery)
``retransmit``  the ``send`` of the re-sent frame (same link+seq)
``merge``       the transit that completed the intermediate's input
``consume``     the transit that completed the root's input
``reuse``       root (incremental merge-layer window close)
``checkpoint``  root (state snapshot during the window's lifetime)
``recover``     root (restart/restore during the window's lifetime)
``reroute``     root (failover adoption during the window's lifetime)
``shed``        root (bounded staging dropped coverage inside the
                window — the reason the result is degraded)
``credit-stall``  root (a channel ran out of credit during the
                window's lifetime, deferring upward progress)
==============  ==================================================

``net.ack`` events are deliberately excluded: an ack clears a sender's
backlog for *many* windows at once and cannot be attributed to one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.obs.tracing import TraceEvent, TraceRecorder

__all__ = [
    "Span",
    "WindowTrace",
    "build_window_trace",
    "build_window_traces",
    "render_spans_jsonl",
    "write_spans_jsonl",
]

#: node-lifecycle kinds attached to the root when they fall inside the
#: window's lifetime (they gate progress but carry no record spans)
_LIFECYCLE_KINDS = {
    "checkpoint.save": "checkpoint",
    "node.recover": "recover",
    "child.reroute": "reroute",
}


@dataclass(frozen=True, slots=True)
class Span:
    """One causal step in a window's pipeline, in simulated ms."""

    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    node: str
    start: int
    end: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


@dataclass(slots=True)
class WindowTrace:
    """The span tree of one emitted window."""

    trace_id: str
    query_id: str
    start: int
    end: int
    group: int
    ingested_at: int
    emitted_at: int
    #: root first, then children in ``span_id`` (= recorder seq) order
    spans: list[Span]

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def latency(self) -> int:
        """End-to-end emission latency: first ingest → emit, sim-ms."""
        return self.emitted_at - self.ingested_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "query_id": self.query_id,
            "start": self.start,
            "end": self.end,
            "group": self.group,
            "ingested_at": self.ingested_at,
            "emitted_at": self.emitted_at,
            "latency": self.latency,
            "spans": [span.to_dict() for span in self.spans],
        }


@dataclass(slots=True)
class _WindowEvents:
    """All recorder events attributable to one emitted window."""

    emit: TraceEvent
    group: int
    start: int
    end: int
    ingested_at: int
    slices: list[TraceEvent] = field(default_factory=list)
    ships: list[TraceEvent] = field(default_factory=list)
    releases: list[TraceEvent] = field(default_factory=list)
    consumes: list[TraceEvent] = field(default_factory=list)
    transits: list[TraceEvent] = field(default_factory=list)
    sends: list[TraceEvent] = field(default_factory=list)
    reuses: list[TraceEvent] = field(default_factory=list)
    retransmits: list[TraceEvent] = field(default_factory=list)
    lifecycle: list[TraceEvent] = field(default_factory=list)
    #: ``buffer.shed`` events whose coverage intersects the window
    sheds: list[TraceEvent] = field(default_factory=list)
    #: ``credit.stall`` events inside the window's lifetime
    stalls: list[TraceEvent] = field(default_factory=list)


def _reuse_matches(event: TraceEvent, result) -> bool:
    """Whether a ``merge.reuse`` event served this window's close.

    The root records one event per window close, with the window's
    ``start`` and the ``query_ids`` of all its subscribers; the engine's
    per-instance record carries neither, but is stamped at the window's
    end time, which identifies the instance within its group.
    """
    query_ids = event.data.get("query_ids")
    if query_ids is not None:
        return result.query_id in query_ids and event.data.get("start") == result.start
    return event.at == result.end


def collect_window_events(recorder: TraceRecorder, result) -> _WindowEvents:
    """Gather every event attributable to ``result``'s window.

    Same lookup contract as :meth:`TraceRecorder.explain_window`: raises
    ``KeyError`` when the window's emit event is not in the ring buffer.
    """
    emit: TraceEvent | None = None
    for event in reversed(list(recorder.events())):
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
    overlaps = TraceRecorder._overlaps
    ev = _WindowEvents(
        emit=emit, group=group, start=start, end=end, ingested_at=emit.at
    )
    for event in recorder.events():
        if event.seq >= emit.seq:
            break
        kind = event.kind
        if kind == "net.retransmit":
            ev.retransmits.append(event)
            continue
        if kind == "net.transit":
            if event.group == group and overlaps(event, start, end):
                ev.transits.append(event)
            continue
        if kind == "net.send":
            if event.group == group and overlaps(event, start, end):
                ev.sends.append(event)
            continue
        if kind in _LIFECYCLE_KINDS:
            ev.lifecycle.append(event)
            continue
        if kind == "credit.stall":
            ev.stalls.append(event)
            continue
        if event.group != group:
            continue
        if kind == "buffer.shed":
            if overlaps(event, start, end):
                ev.sheds.append(event)
            continue
        if kind == "slice.close":
            if overlaps(event, start, end):
                ev.slices.append(event)
        elif kind == "partial.ship":
            if overlaps(event, start, end):
                ev.ships.append(event)
        elif kind == "merge.release":
            if overlaps(event, start, end):
                ev.releases.append(event)
        elif kind == "root.consume":
            if overlaps(event, start, end):
                ev.consumes.append(event)
        elif kind == "merge.reuse":
            if _reuse_matches(event, result):
                ev.reuses.append(event)
    t0 = min((s.data["start"] for s in ev.slices), default=emit.at)
    ev.ingested_at = min(t0, emit.at)
    # Lifecycle events gate progress only within the window's lifetime.
    ev.lifecycle = [
        e for e in ev.lifecycle if ev.ingested_at <= e.at <= emit.at
    ]
    ev.stalls = [e for e in ev.stalls if ev.ingested_at <= e.at <= emit.at]
    return ev


def _latest(events: list[TraceEvent], before: int, **match: Any) -> TraceEvent | None:
    """The highest-seq event strictly before ``before`` matching ``match``.

    ``match`` keys name event attributes (``node``) or data keys; a
    ``link_dst`` key matches the destination half of a ``link`` datum.
    """
    best: TraceEvent | None = None
    for event in events:
        if event.seq >= before:
            continue
        ok = True
        for key, want in match.items():
            if key == "node":
                got = event.node
            elif key == "link_dst":
                link = event.data.get("link", "")
                got = link.split("->", 1)[1] if "->" in link else ""
            else:
                got = event.data.get(key)
            if got != want:
                ok = False
                break
        if ok and (best is None or event.seq > best.seq):
            best = event
    return best


def _match_sender(
    ev: _WindowEvents, src: str, transit: TraceEvent
) -> TraceEvent | None:
    """The ship/release at ``src`` whose batch the transit carried.

    Prefers an exact ``first_seq`` match (the batch's first slice id is
    carried end to end); falls back to the latest upward emission from
    ``src`` before the transit, which is right whenever the exact batch
    was trimmed by a forward floor or re-shipped after recovery.
    """
    senders = ev.ships + ev.releases
    exact = _latest(
        senders, transit.seq, node=src, first_seq=transit.data.get("first_seq")
    )
    if exact is not None:
        return exact
    return _latest(senders, transit.seq, node=src)


def build_window_trace(recorder: TraceRecorder, result) -> WindowTrace:
    """Materialize the causal span tree of one emitted window.

    ``result`` is a :class:`~repro.core.results.WindowResult` (or any
    object with ``query_id``/``start``/``end``).  Raises ``KeyError``
    when the window was never traced or already evicted from the ring.
    """
    ev = collect_window_events(recorder, result)
    emit = ev.emit
    trace_id = f"{result.query_id}:{result.start}:{result.end}"
    t0 = ev.ingested_at
    spans: list[Span] = [
        Span(
            span_id=emit.seq,
            parent_id=None,
            trace_id=trace_id,
            name="window",
            node=emit.node,
            start=t0,
            end=emit.at,
            attrs={
                "group": ev.group,
                "query_id": result.query_id,
                "window_start": result.start,
                "window_end": result.end,
                "event_count": emit.data.get("event_count", 0),
            },
        )
    ]
    root_id = emit.seq

    def child(
        event: TraceEvent,
        name: str,
        parent: TraceEvent | None,
        *,
        start: int | None = None,
        node: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        begin = event.at if start is None else min(start, event.at)
        spans.append(
            Span(
                span_id=event.seq,
                parent_id=parent.seq if parent is not None else root_id,
                trace_id=trace_id,
                name=name,
                node=event.node if node is None else node,
                start=begin,
                end=event.at,
                attrs=dict(event.data) if attrs is None else attrs,
            )
        )

    for sl in ev.slices:
        child(sl, "slice", None, start=sl.data["start"])
    for ship in ev.ships:
        parent = _latest(ev.slices, ship.seq, node=ship.node)
        child(ship, "ship", parent)
    for send in ev.sends:
        link = send.data.get("link", "")
        src = link.split("->", 1)[0]
        child(send, "send", _match_sender(ev, src, send), node=src)
    for transit in ev.transits:
        link = transit.data.get("link", "")
        src = link.split("->", 1)[0]
        sender = _match_sender(ev, src, transit)
        child(
            transit,
            "transit",
            sender,
            start=sender.at if sender is not None else None,
            node=src,
        )
    for release in ev.releases:
        parent = _latest(ev.transits, release.seq, link_dst=release.node)
        child(release, "merge", parent)
    for consume in ev.consumes:
        parent = _latest(ev.transits, consume.seq, link_dst=consume.node)
        child(consume, "consume", parent)
    for reuse in ev.reuses:
        child(reuse, "reuse", None)
    for retrans in ev.retransmits:
        parent = _latest(
            ev.sends,
            retrans.seq,
            link=retrans.data.get("link"),
            seq=retrans.data.get("seq"),
        )
        child(retrans, "retransmit", parent)
    for event in ev.lifecycle:
        child(event, _LIFECYCLE_KINDS[event.kind], None)
    for shed in ev.sheds:
        child(shed, "shed", None, start=shed.data.get("start"))
    for stall in ev.stalls:
        child(stall, "credit-stall", None)
    root = spans[0]
    rest = sorted(spans[1:], key=lambda s: s.span_id)
    return WindowTrace(
        trace_id=trace_id,
        query_id=result.query_id,
        start=result.start,
        end=result.end,
        group=ev.group,
        ingested_at=t0,
        emitted_at=emit.at,
        spans=[root, *rest],
    )


def build_window_traces(recorder: TraceRecorder, results) -> list[WindowTrace]:
    """Span trees for every result still explainable from the ring.

    Windows whose emit event was evicted (or never traced) are skipped —
    :attr:`TraceRecorder.dropped` says whether eviction happened.
    """
    traces: list[WindowTrace] = []
    for result in results:
        try:
            traces.append(build_window_trace(recorder, result))
        except KeyError:
            continue
    return traces


def render_spans_jsonl(traces: list[WindowTrace]) -> str:
    """One JSON line per window trace, stable key order.

    Same-seed runs render byte-identically: every id is a recorder seq,
    every timestamp simulated ms.
    """
    return "\n".join(
        json.dumps(trace.to_dict(), sort_keys=False, separators=(",", ":"))
        for trace in traces
    )


def write_spans_jsonl(traces: list[WindowTrace], path: str) -> int:
    """Dump span trees to ``path``; returns the number of traces written."""
    text = render_spans_jsonl(traces)
    with open(path, "w", encoding="utf-8") as fh:
        if text:
            fh.write(text)
            fh.write("\n")
    return len(traces)
