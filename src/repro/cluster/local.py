"""Local nodes: slicing and partial aggregation at the data source (Sec 5.1).

A local node runs the aggregation engine in *slicing-only* mode for every
pushed-down query-group: events are incrementally aggregated into shared
slices, and at every watermark tick the closed slices are shipped upward
as per-slice partial results.  Window *assembly* never happens here — that
is the root's job — so a local has punctuations, not windows: it cuts at
every point of the group's :class:`~repro.core.grid.PunctuationGrid` (the
grid the root folds its records on, built from the same fixed queries) and
at what only it can know about — its own session gaps, its own marker
events.  Removing a query rebuilds the grid from the fixed queries left.

Root-evaluated groups (count-based windows, non-decomposable functions;
Sec 5.2) do not run window logic at all: the local batches each slice's
matching values — sorted, executing the non-decomposable sort operator
locally — or ``(time, value)`` pairs when the root must count events.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace

from repro.core.analyzer import QueryGroup, QueryPlan
from repro.core.engine import EngineStats, GroupRuntime
from repro.core.event import Event
from repro.core.grid import PunctuationGrid
from repro.core.results import ResultSink
from repro.core.types import NodeRole, OperatorKind, WindowType
from repro.cluster.config import ClusterConfig
from repro.cluster.merger import group_has_sessions
from repro.cluster.roles import Shipper
from repro.network.messages import (
    CheckpointMessage,
    ContextPartial,
    ControlMessage,
    PartialBatchMessage,
    ResyncMessage,
    SliceRecord,
)
from repro.network.simnet import SimNetwork
from repro.obs.tracing import NULL_RECORDER

__all__ = ["LocalNode"]


class _LocalGroup:
    """What both kinds of group handler share: the staging buffer of
    closed slice records and their upward sequence."""

    def __init__(self, node_id: str, group: QueryGroup, recorder) -> None:
        self.node_id = node_id
        self.group = group
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.pending: list[SliceRecord] = []
        self.ship_seq = 0
        #: shed coverage awaiting the next flush: (node_id, start, end)
        self.shed_pending: list[tuple[str, int, int]] = []

    def flush(self, now: int) -> PartialBatchMessage:
        """Cut at the watermark boundary and drain pending slice records."""
        self.stage(now)
        message = PartialBatchMessage(
            sender=self.node_id,
            group_id=self.group.group_id,
            first_slice_seq=self.ship_seq,
            covered_to=now,
            records=self.pending,
            shed=self.shed_pending,
        )
        self.shed_pending = []
        if self.recorder.enabled and self.pending:
            self.recorder.record(
                "partial.ship",
                now,
                node=self.node_id,
                group=self.group.group_id,
                first_seq=self.ship_seq,
                records=len(self.pending),
                start=self.pending[0].start,
                end=self.pending[-1].end,
                covered_to=now,
            )
        self.ship_seq += len(self.pending)
        self.pending = []
        return message

    def resync(self, next_seq: int, covered: int) -> None:
        """Restart the upward slice sequence after a parent resync.

        Pending records at or below ``covered`` belong to windows the
        parent already closed (degraded) without this node — shipping
        them again would corrupt session and user-defined assembly.
        """
        self.ship_seq = next_seq
        self.pending = [r for r in self.pending if r.end > covered]


class _SlicedLocalGroup(_LocalGroup):
    """Slicing-only engine runtime for one pushed-down query-group."""

    def __init__(self, node_id: str, group: QueryGroup, config: ClusterConfig,
                 stats: EngineStats, recorder=None) -> None:
        super().__init__(node_id, group, recorder)
        self.runtime = GroupRuntime(
            group,
            ResultSink(keep=False),
            stats,
            punctuation_mode=config.engine.punctuation_mode,
            assemble=False,
            slice_sink=self._on_cut,
            track_spans=group_has_sessions(group),
            recorder=self.recorder,
            node_id=node_id,
        )
        # Anchor fixed-window schedules at the shared origin so slice
        # boundaries align across all local nodes (Sec 5.1.1).
        self.runtime.advance(config.origin)
        self._userdef_ids = {
            q.query_id
            for q in group.queries
            if q.window.window_type is WindowType.USER_DEFINED
        }

    def _on_cut(self, closed, eps, spans) -> None:
        contexts: dict[int, ContextPartial] = {}
        for ctx, partials in closed.partials.items():
            span = spans.get(ctx)
            contexts[ctx] = ContextPartial(
                count=closed.insert_counts.get(ctx, 0),
                ops=partials,
                span=tuple(span) if span is not None else None,
            )
        userdef_eps = [
            (query.query_id, end)
            for window, end in eps
            for query in window.queries
            if query.query_id in self._userdef_ids
        ]
        # A marker cut closes *after* inserting the marker event, so the
        # slice contains an event stamped exactly ``closed.end``.  Ship it
        # with its truthful exclusive end (``end + 1``) — otherwise a
        # marker landing on a fixed-window boundary leaks its event into
        # the windows *ending* there instead of the ones *starting* there.
        inclusive = any(end == closed.end for _, end in userdef_eps)
        if contexts or userdef_eps:
            self.pending.append(
                SliceRecord(
                    start=closed.start,
                    end=closed.end + 1 if inclusive else closed.end,
                    contexts=contexts,
                    userdef_eps=userdef_eps,
                )
            )

    def remove_query(self, query_id: str) -> None:
        if query_id in self.runtime.needed:
            self.runtime.remove_query(query_id)

    def on_event(self, event: Event) -> None:
        self.runtime.process(event)

    def on_events(self, events: list[Event]) -> None:
        # Slice-run fast path: the runtime splits the batch at its own
        # punctuations (falling back per-event for data-driven windows).
        self.runtime.process_batch(events)

    def stage(self, now: int) -> None:
        """Cut at the watermark boundary without shipping.

        Used when the upward channel is credit-stalled: slices keep
        accumulating in the bounded staging buffer (``pending``) so the
        shedding policy has whole slices to account for, and the slice-seq
        protocol stays gapless — sequences are only assigned at flush.
        """
        self.runtime.advance(now)
        if self.runtime.current.start < now:
            self.runtime._cut(now, [], [])


class _RootEvalLocalGroup(_LocalGroup):
    """Per-slice value batching for a root-evaluated group (Sec 5.2).

    Although windows of these groups are *evaluated* at the root, the
    local must still cut its batches at every boundary the root assembles
    on: the deterministic fixed-window punctuations, its own session gaps
    (so record activity spans never hide a gap), and user-defined end
    markers — in addition to the watermark-tick cadence.
    """

    def __init__(self, node_id: str, group: QueryGroup, config: ClusterConfig,
                 stats: EngineStats, recorder=None) -> None:
        super().__init__(node_id, group, recorder)
        self.stats = stats
        self.selections = list(group.selections)
        #: the batched ingest's classification of the same selections:
        #: whole contexts and key-indexed routing for the others
        self._router = group.build_router()
        self.needs_timestamps = group.needs_timestamps
        self.track_spans = group_has_sessions(group)
        self.window_start = config.origin
        #: ctx -> (times, values) columns of the open slice, in time order
        self.buffers: dict[int, tuple[list[int], list[float]]] = {}
        self.pending_eps: list[tuple[str, int]] = []
        self._userdef_watch = [
            (q.query_id, q.selection.key, q.window.end_marker)
            for q in group.queries
            if q.window.window_type is WindowType.USER_DEFINED
        ]
        #: query id -> (origin, length, slide) of the live fixed time
        #: windows: their punctuations are cut points shared with the root
        self._fixed = {
            q.query_id: (config.origin, q.window.length, q.window.effective_slide)
            for q in group.queries
            if q.window.is_fixed_size and not q.is_count_based
        }
        self.grid = PunctuationGrid(self._fixed.values())
        #: (ctx, gap) per session query, with last matching event times
        self._session_watch = [
            (group.context_of[q.query_id], q.window.gap)
            for q in group.queries
            if q.window.window_type is WindowType.SESSION
        ]
        self._session_last: dict[int, int] = {}

    def remove_query(self, query_id: str) -> None:
        """Stop cutting at ``query_id``'s fixed punctuations (the root
        re-folds its cells on the same coarser grid)."""
        if self._fixed.pop(query_id, None) is not None:
            self.grid = PunctuationGrid(self._fixed.values())

    def _cut_due(self, now: int) -> int | None:
        """Cut at every fixed punctuation passed by ``now``; returns the
        next one."""
        boundary = self.grid.after(self.window_start)
        while boundary is not None and boundary <= now:
            self._cut(boundary)
            boundary = self.grid.after(boundary)
        return boundary

    def _cut(self, at: int, *, inclusive: bool = False) -> None:
        """Close the open batch at ``at`` into a pending slice record."""
        contexts: dict[int, ContextPartial] = {}
        for ctx, (times, values) in list(self.buffers.items()):
            # Half-open intervals: events stamped exactly at the boundary
            # belong to the next slice — unless the cut is an inclusive
            # (post-insert) marker cut.
            k = len(times) if inclusive else bisect_left(times, at)
            if not k:
                continue
            span = (times[0], times[k - 1]) if self.track_spans else None
            shipped = values[:k]
            if self.needs_timestamps:
                contexts[ctx] = ContextPartial(
                    count=k, timed=list(zip(times, shipped)), span=span
                )
            else:
                # The local executes the non-decomposable sort (Sec 5.2) so
                # parents and the root only merge sorted runs.
                shipped.sort()
                contexts[ctx] = ContextPartial(
                    count=k,
                    ops={OperatorKind.NON_DECOMPOSABLE_SORT: shipped},
                    span=span,
                )
            if k == len(times):
                del self.buffers[ctx]
            else:
                del times[:k], values[:k]
        # Inclusive (post-insert) marker cuts contain an event stamped at
        # the boundary itself; label them with the exclusive end so root
        # interval assembly never misattributes the marker event.
        shipped_end = at + 1 if inclusive else at
        if contexts or self.pending_eps:
            self.pending.append(
                SliceRecord(
                    start=self.window_start,
                    end=shipped_end,
                    contexts=contexts,
                    userdef_eps=self.pending_eps,
                )
            )
            self.stats.slices_closed += 1
            self.pending_eps = []
            if self.recorder.enabled:
                self.recorder.record(
                    "slice.close",
                    at,
                    node=self.node_id,
                    group=self.group.group_id,
                    index=self.ship_seq + len(self.pending) - 1,
                    start=self.window_start,
                    end=shipped_end,
                )
        self.window_start = shipped_end

    def on_event(self, event: Event) -> None:
        # Pre-insert cuts: fixed punctuations passed by this event, and
        # session gaps this event's arrival proves.
        self._cut_due(event.time)
        matched = [
            index
            for index, selection in enumerate(self.selections)
            if selection.matches(event)
        ]
        if self._session_watch and matched:
            for ctx, gap in self._session_watch:
                if ctx not in matched:
                    continue
                last = self._session_last.get(ctx)
                if last is not None and event.time - last >= gap:
                    cut_at = last + gap
                    if cut_at > self.window_start:
                        self._cut(cut_at)
                self._session_last[ctx] = event.time
        for index in matched:
            times, values = self.buffers.setdefault(index, ([], []))
            times.append(event.time)
            values.append(event.value)
        if matched:
            self.stats.inserts += 1
            self.stats.calculations += 1  # one (non-decomposable sort) operator
        if event.marker is not None:
            ended = False
            for query_id, key, end_marker in self._userdef_watch:
                if event.marker == end_marker and (
                    key is None or event.key == key
                ):
                    self.pending_eps.append((query_id, event.time))
                    ended = True
            if ended:
                # Post-insert marker cut: the marker event belongs to the
                # trip it ends.
                self._cut(event.time, inclusive=True)

    def on_events(self, events: list[Event]) -> None:
        if self._session_watch or self._userdef_watch:
            # Session gaps and end markers cut on the events themselves,
            # so every event still runs the full check.
            for event in events:
                self.on_event(event)
            return
        # Fixed schedules only, so every cut is a boundary on the time
        # column: per run, cut what its first row has passed, then buffer
        # the rows before the next boundary (a row on it starts a slice).
        router = self._router
        whole = router.whole
        times = [event.time for event in events]
        if whole:
            values = [event.value for event in events]
        candidates = router.candidates
        buffers = self.buffers
        inserted = 0
        i, n = 0, len(events)
        while i < n:
            boundary = self._cut_due(times[i])
            j = n if boundary is None else bisect_left(times, boundary, i + 1)
            if whole:
                # A buffer opens at its context's first row, a row's
                # contexts in ctx order: a whole one opening here joins the
                # routed ones row i matches.
                if any(ctx not in buffers for ctx in whole):
                    for ctx in router.matches(events[i]):
                        if ctx not in buffers:
                            buffers[ctx] = ([], [])
                # The run's stretch of both columns goes in whole.
                for ctx in whole:
                    slice_times, slice_values = buffers[ctx]
                    slice_times += times[i:j]
                    slice_values += values[i:j]
            if router.routed:
                for event in events[i:j]:
                    value = event.value
                    matched = False
                    for ctx, lo, hi in candidates(event.key):
                        if (lo is None or value >= lo) and (hi is None or value < hi):
                            buffer = buffers.get(ctx)
                            if buffer is None:
                                buffer = buffers[ctx] = ([], [])
                            buffer[0].append(event.time)
                            buffer[1].append(value)
                            matched = True
                    inserted += matched
            i = j
        if whole:  # every row matched a context
            inserted = n
        self.stats.inserts += inserted
        self.stats.calculations += inserted  # one operator: the sort

    def stage(self, now: int) -> None:
        """Cut at every due boundary without shipping (stalled channel)."""
        self._cut_due(now)
        if self.window_start < now:
            self._cut(now)


class LocalNode(Shipper):
    """A Desis local node: a shipper with one group handler per query-group."""

    def __init__(self, node_id: str, parent: str, plan: QueryPlan,
                 config: ClusterConfig, recorder=None) -> None:
        super().__init__(node_id, NodeRole.LOCAL, parent, config, recorder)
        self.stats = EngineStats()
        self.groups: list[_SlicedLocalGroup | _RootEvalLocalGroup] = []
        for group in plan.groups:
            self.add_group(group, config.origin)
        # Overload control (DESIGN.md §12): high-water mark of the staging
        # buffers and slices deliberately shed.  Both stay zero at default
        # config.
        self.peak_staging = 0
        self.slices_shed = 0

    def add_group(self, group: QueryGroup, origin: int) -> None:
        """Start slicing a query-group, its schedules anchored at ``origin``."""
        handler = _RootEvalLocalGroup if group.root_evaluated else _SlicedLocalGroup
        self.groups.append(
            handler(
                self.node_id,
                group,
                replace(self.config, origin=origin),
                self.stats,
                self.recorder,
            )
        )

    # -- overload control (DESIGN.md §12) ----------------------------------------------

    def _shed(self, group, shed: list[SliceRecord], net: SimNetwork) -> None:
        """Account whole slices dropped from ``group``'s staging buffer.
        Their coverage is remembered per group and rides up with the next
        flushed batch, so the root can stamp affected windows with
        ``completeness < 1.0``."""
        self.slices_shed += len(shed)
        net.note_shed(self.node_id, group.group.group_id, shed)
        group.shed_pending.extend(
            (self.node_id, record.start, record.end) for record in shed
        )

    def _shed_overflow(self, group, net: SimNetwork) -> None:
        """Shed oldest whole slices once staging exceeds its cap.

        Deterministic oldest-slice-first policy with hysteresis: shed down
        to ``staging_limit * shed_watermark`` records so the buffer does
        not oscillate at the cap.
        """
        limit = self.config.staging_limit
        if limit is None or len(group.pending) <= limit:
            return
        low = max(int(limit * self.config.shed_watermark), 0)
        shed = group.pending[: len(group.pending) - low]
        group.pending = group.pending[len(shed):]
        self._shed(group, shed, net)

    def on_event(self, event: Event, now: int, net: SimNetwork) -> None:
        self.stats.events += 1
        for group in self.groups:
            group.on_event(event)

    def on_events(self, events: list[Event], now: int, net: SimNetwork) -> None:
        self.stats.events += len(events)
        for group in self.groups:
            group.on_events(events)

    def on_tick(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        # Credit-based backpressure: a stalled upward channel defers the
        # flush — slices accumulate in the bounded staging buffer instead
        # of growing the channel's unacked backlog without limit.
        deferred = self.config.overload_control and net.channel_stalled(
            self.node_id, self.parent
        )
        for group in self.groups:
            if deferred:
                group.stage(now)
                self._shed_overflow(group, net)
                continue
            self._shed_overflow(group, net)
            message = group.flush(now)
            net.send(self.node_id, self.parent, message)
            if self._retain:
                self._retained.append(message)
        if deferred or self.config.staging_limit is not None:
            occupancy = sum(len(group.pending) for group in self.groups)
            if occupancy > self.peak_staging:
                self.peak_staging = occupancy
        if self._retain:
            self._cap_retention()
        self._heartbeat(now, net)

    def on_finish(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        for group in self.groups:
            # End of stream overrides backpressure: ship what survived the
            # cap so every closable window still closes.
            self._shed_overflow(group, net)
            message = group.flush(now)
            net.send(self.node_id, self.parent, message)
            if self._retain:
                self._retained.append(message)
        self._cap_retention()

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        # Locals receive control traffic (queries, topology), their
        # parent's retention trims, and its resyncs: after a failover, a
        # parent restart, or a soft-eviction outage.
        if isinstance(message, CheckpointMessage):
            self._apply_trim(message.safe_to)
        elif isinstance(message, ResyncMessage):
            if message.new_parent:
                self._reparent(message, net)
            elif message.recover:
                self._fast_forward(message, net)
            else:
                self._resync(message, net)
        elif isinstance(message, ControlMessage) and message.kind == "query_remove":
            for group in self.groups:
                group.remove_query(message.payload)

    def _resync(self, message: ResyncMessage, net: SimNetwork) -> None:
        """Rejoin a parent that soft-evicted this node: restart the upward
        slice sequences past the coverage it assembled meanwhile."""
        for group_id, (next_seq, covered) in message.entries.items():
            if group_id >= len(self.groups):
                continue
            group = self.groups[group_id]
            if self.config.overload_control:
                # Records the resync prunes are data dropped under overload
                # (the outage was a stalled, not a silent, channel) —
                # account them like any other shed so the completeness
                # ledger stays truthful.
                pruned = [r for r in group.pending if r.end <= covered]
                if pruned:
                    self._shed(group, pruned, net)
            group.resync(next_seq, covered)
        net.reset_channel(self.node_id, self.parent, message.epoch)

    def _rebase(self, group_id: int, next_seq: int, floor: int) -> None:
        if group_id < len(self.groups):
            self.groups[group_id].resync(next_seq, floor)
