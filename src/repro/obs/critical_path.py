"""Critical-path extraction: where did this window's latency come from?

Given one emitted window's span tree (:mod:`repro.obs.spans`), walk its
parent links *backwards* from the emit — each step asks "what was the
last thing that had to happen before this one could?" — and bucket the
end-to-end latency into named stages:

==================  ==========================================================
stage               the time between ...
==================  ==========================================================
``ingest-wait``     first contributing ingest → the gating slice opens/cuts
``slicing``         the gating slice's span (its start → its cut)
``queue``           the gating slice's cut → its batch ships off the node
``shed``            the share of staging wait ending in a ``buffer.shed``
                    (overload control dropped coverage; DESIGN.md §12)
``credit-stall``    a ``credit.stall`` on the shipping node → the ship
                    (the channel was out of credit; DESIGN.md §12)
``network``         a batch enters a link → it is delivered (post-fault)
``retransmit``      the share of a hop spent re-sending lost frames
``merge``           a delivery → the intermediate (or root merger) releases it
``root-assembly``   the root's last consume → the window reaches the sink
==================  ==========================================================

The walk maintains a monotone anchor chain from the emit time down to
the first ingest: every candidate anchor is clamped into the remaining
``[t0, bound]`` interval, so the stage durations are non-negative and
**telescope to exactly the window's emission latency** in integer sim-ms
— the invariant the conformance harness checks on every corpus scenario.
Clamping matters because recorder timestamps are not monotone in
sequence order (a punctuation can cut a slice after later hops were
recorded; a force-closed window can emit past its last consume).

Zero-length stages are dropped from the segment list; the telescoping
sum is unaffected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, WindowTrace

__all__ = [
    "STAGES",
    "StageSegment",
    "CriticalPath",
    "compute_critical_path",
    "compute_critical_paths",
    "publish_span_metrics",
    "render_waterfall",
    "render_chrome_trace",
    "write_chrome_trace",
    "top_slowest",
]

#: the stage taxonomy, in pipeline order
STAGES = (
    "ingest-wait",
    "slicing",
    "queue",
    "shed",
    "credit-stall",
    "network",
    "retransmit",
    "merge",
    "root-assembly",
)


@dataclass(frozen=True, slots=True)
class StageSegment:
    """One contiguous stretch of the critical path, in simulated ms."""

    stage: str
    start: int
    end: int
    node: str = ""
    link: str = ""

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.node:
            out["node"] = self.node
        if self.link:
            out["link"] = self.link
        return out


@dataclass(slots=True)
class CriticalPath:
    """The latency attribution of one emitted window."""

    trace_id: str
    query_id: str
    start: int
    end: int
    group: int
    ingested_at: int
    emitted_at: int
    #: earliest-first, contiguous over ``[ingested_at, emitted_at]``
    #: modulo dropped zero-length stages
    segments: list[StageSegment] = field(default_factory=list)

    @property
    def latency(self) -> int:
        """End-to-end emission latency; equals the stage sum exactly."""
        return self.emitted_at - self.ingested_at

    def stage_totals(self) -> dict[str, int]:
        """Per-stage totals over every named stage (zeros included)."""
        totals = {stage: 0 for stage in STAGES}
        for segment in self.segments:
            totals[segment.stage] += segment.duration
        return totals

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
            "stages": {
                stage: total
                for stage, total in self.stage_totals().items()
                if total
            },
            "segments": [segment.to_dict() for segment in self.segments],
        }


def _latest(spans: list[Span], before: int, node: str) -> Span | None:
    """The last of ``spans`` (in id order) on ``node`` before id ``before``."""
    for span in reversed(spans):
        if span.span_id < before and span.node == node:
            return span
    return None


def compute_critical_path(trace: WindowTrace) -> CriticalPath:
    """Attribute one window's emission latency to pipeline stages.

    The walk follows the trace's span parents from the emit: the latest
    ``consume``, the ``transit`` that fed it, that transit's sender, then
    either the sending ``merge``'s own transit one tier down or the
    ``ship``'s gating ``slice``.
    """
    t0 = trace.ingested_at
    path = CriticalPath(
        trace_id=trace.trace_id,
        query_id=trace.query_id,
        start=trace.start,
        end=trace.end,
        group=trace.group,
        ingested_at=t0,
        emitted_at=trace.emitted_at,
    )
    by_id = {span.span_id: span for span in trace.spans}
    retransmits = trace.named("retransmit")
    backwards: list[StageSegment] = []
    bound = trace.emitted_at

    def parent(span: Span) -> Span | None:
        """The span's causal parent, ``None`` when it hangs off the root."""
        up = by_id[span.parent_id]
        return None if up.parent_id is None else up

    def push(stage: str, at: int, node: str = "", link: str = "") -> None:
        nonlocal bound
        anchor = max(t0, min(at, bound))
        if anchor < bound:
            backwards.append(StageSegment(stage, anchor, bound, node, link))
        bound = anchor

    def hop(transit: Span, sender: Span, link: str) -> None:
        """Split sender → delivery into retransmit + network time."""
        last_resend = max(
            (
                r.end
                for r in retransmits
                if r.attrs.get("link") == link
                and r.span_id < transit.span_id
                and sender.end <= r.end
            ),
            default=None,
        )
        if last_resend is not None and last_resend > sender.end:
            push("network", last_resend, link=link)
            push("retransmit", sender.end, link=link)
        else:
            push("network", sender.end, link=link)

    consumes = trace.named("consume")
    if consumes:
        # Cluster path: emit ← root assembly ← consume ← ... hops ... ←
        # ship ← slice cut ← slice open ← first ingest.
        cur = consumes[-1]
        push("root-assembly", cur.end, node=trace.root.node)
        while (transit := parent(cur)) is not None:
            push("merge", transit.end, node=cur.node)
            link = transit.attrs.get("link", "")
            sender = parent(transit)
            if sender is None:
                break
            hop(transit, sender, link)
            if sender.name == "merge":
                cur = sender  # descend another tier
                continue
            gating_slice = parent(sender)
            if gating_slice is not None:
                # Overload control (DESIGN.md §12): a credit stall on the
                # shipping node delayed this ship, and a shed ended part
                # of the staging wait — carve both out of "queue".  The
                # stall counts only while outstanding: an intervening ship
                # from the same node means the channel resumed first.
                node = sender.node
                stall = _latest(trace.named("credit-stall"), sender.span_id, node)
                if stall is not None and sender.end > gating_slice.end:
                    resumed = any(
                        s.node == node
                        and stall.span_id < s.span_id < sender.span_id
                        for s in trace.named("ship")
                    )
                    if not resumed:
                        push("credit-stall",
                             max(stall.end, gating_slice.end), node=node)
                shed = _latest(trace.named("shed"), sender.span_id, node)
                if shed is not None and shed.end > gating_slice.end:
                    push("shed", shed.end, node=node)
                push("queue", gating_slice.end, node=node)
                push("slicing", gating_slice.attrs["start"], node=node)
            break
    else:
        # Single-engine path: no network hops; the last cut gates the emit.
        slices = trace.named("slice")
        if slices:
            gating_slice = slices[-1]
            push("merge", gating_slice.end, node=trace.root.node)
            push("slicing", gating_slice.attrs["start"], node=gating_slice.node)
    push("ingest-wait", t0)
    path.segments = list(reversed(backwards))
    return path


def compute_critical_paths(traces: Iterable[WindowTrace]) -> list[CriticalPath]:
    """Critical paths of ``traces`` (see :func:`build_window_traces`)."""
    return [compute_critical_path(trace) for trace in traces]


def top_slowest(traces: Iterable[WindowTrace], n: int = 5) -> list[CriticalPath]:
    """The ``n`` highest-latency windows, slowest first (ties by id)."""
    paths = compute_critical_paths(traces)
    paths.sort(key=lambda p: (-p.latency, p.trace_id))
    return paths[:n]


# -- metrics -------------------------------------------------------------------


def publish_span_metrics(
    registry: MetricsRegistry, paths: Iterable[CriticalPath]
) -> None:
    """Per-stage / per-node / per-link aggregates under ``span.*``."""
    for path in paths:
        registry.counter("span.windows").inc()
        registry.histogram("span.latency_ms").observe(float(path.latency))
        for segment in path.segments:
            ms = float(segment.duration)
            registry.counter("span.stage_ms", stage=segment.stage).inc(ms)
            if segment.node:
                registry.counter("span.node_ms", node=segment.node).inc(ms)
            if segment.link:
                registry.counter("span.link_ms", link=segment.link).inc(ms)


# -- text waterfall ------------------------------------------------------------


def render_waterfall(path: CriticalPath, width: int = 40) -> str:
    """The critical path as the indented text waterfall humans read."""
    header = (
        f"{path.query_id} [{path.start}..{path.end}) group {path.group}: "
        f"{path.latency} ms (ingest {path.ingested_at} -> "
        f"emit {path.emitted_at})"
    )
    lines = [header]
    span = max(path.latency, 1)
    for segment in path.segments:
        offset = round((segment.start - path.ingested_at) * width / span)
        length = max(1, round(segment.duration * width / span))
        length = min(length, width - min(offset, width - 1))
        bar = " " * offset + "#" * length
        where = segment.node or segment.link
        label = f"{segment.stage} ({where})" if where else segment.stage
        lines.append(
            f"  {label:<28} {segment.start:>8} ..{segment.end:>8} "
            f"{segment.duration:>7} ms  |{bar:<{width}}|"
        )
    return "\n".join(lines)


# -- Perfetto / Chrome trace export --------------------------------------------


def render_chrome_trace(traces: Iterable[WindowTrace]) -> str:
    """Span trees as a Chrome-trace / Perfetto JSON document.

    Every node becomes a named thread; every span a complete ("X")
    event with microsecond timestamps (sim-ms × 1000).  Output is
    deterministic: thread ids follow first appearance, events follow
    (trace, span id) order, keys are fixed.
    """
    tids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for trace in traces:
        for span in trace.spans:
            node = span.node or "net"
            tid = tids.setdefault(node, len(tids) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": span.start * 1000,
                    "dur": span.duration * 1000,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        **span.attrs,
                    },
                }
            )
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": node},
        }
        for node, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    document = {
        "traceEvents": [*metadata, *events],
        "displayTimeUnit": "ms",
    }
    return json.dumps(document, sort_keys=False, separators=(",", ":"))


def write_chrome_trace(traces: Iterable[WindowTrace], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_chrome_trace(traces))
        fh.write("\n")
