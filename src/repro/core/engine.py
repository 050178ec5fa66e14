"""The Desis aggregation engine (Sec 4).

The engine processes multiple windowed queries over one event stream while
executing every event once per query-group: queries are grouped by the
analyzer, each group's windows are cut into shared slices at window
start/end punctuations, and each slice runs the group's shared operator set
(Table 1) once per matching selection context.  When a window ends, its
result is assembled by merging the partial results of its covered slices
and finalizing its aggregation function.

Window ends are computed in advance: the starts and ends of a group's
tumbling and sliding windows are the points of one
:class:`~repro.core.grid.PunctuationGrid`, and a heap holds only the ends
no grid can compute (sessions, and the windows of a removed query still
draining).  One drain cuts at the earlier of the two, so an event only
pays for punctuations that are actually due.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Iterable, Sequence

from repro.core.analyzer import QueryGroup, analyze
from repro.core.errors import EngineError, NaNValueError, OutOfOrderError, QueryError
from repro.core.event import Event, holds_nan
from repro.core.functions import finalize, operators_for, plan_operators
from repro.core.grid import PunctuationGrid
from repro.core.incmerge import IncrementalMergeLayer
from repro.core.operators import PENDING_CAP, OperatorSetState
from repro.core.predicates import SelectionRouter
from repro.core.query import Query
from repro.core.results import ResultSink, WindowResult
from repro.core.slices import Slice, SliceStore
from repro.obs.tracing import NULL_RECORDER
from repro.core.types import OperatorKind, WindowMeasure, WindowType
from repro.core.windows import (
    CountWindowTracker,
    FixedWindowTracker,
    SessionWindowTracker,
    UserDefinedWindowTracker,
    WindowInstance,
)

__all__ = [
    "AggregationEngine",
    "EngineStats",
    "GroupRuntime",
    "ingest_events",
    "required_kinds",
]

# Heap entry tags: the end of a window whose tracker is gone, and a
# session's tentative end.
_EP = 1
_SESSION_EP = 2


def required_kinds(
    query: Query, planned: Sequence[OperatorKind]
) -> tuple[OperatorKind, ...]:
    """The planned operators a query's finalizer needs.

    When the group plans a non-decomposable sort, min/max queries read it
    instead of the (subsumed) decomposable sort.
    """
    wanted = set(operators_for(query.function))
    if (
        OperatorKind.DECOMPOSABLE_SORT in wanted
        and OperatorKind.DECOMPOSABLE_SORT not in planned
    ):
        wanted.discard(OperatorKind.DECOMPOSABLE_SORT)
        wanted.add(OperatorKind.NON_DECOMPOSABLE_SORT)
    missing = wanted.difference(planned)
    if missing:
        raise EngineError(
            f"group plan {planned!r} is missing operators {missing!r} "
            f"for query {query.query_id!r}"
        )
    return tuple(kind for kind in planned if kind in wanted)


@dataclass(slots=True)
class EngineStats:
    """Work counters used throughout the evaluation (Figs 6, 8, 9, 10)."""

    events: int = 0
    inserts: int = 0
    calculations: int = 0
    selection_checks: int = 0
    slices_closed: int = 0
    windows_opened: int = 0
    windows_closed: int = 0
    results: int = 0
    duplicates_dropped: int = 0
    #: merge operator executions at window close — the work the
    #: incremental merge layer exists to shrink (partials consumed by the
    #: plain scan, ``merge_partials`` calls on the incremental path)
    merge_ops: int = 0
    #: memory high-water marks (Sec 2.3's motivation for slicing)
    peak_live_slices: int = 0
    peak_open_windows: int = 0

    def merge(self, other: "EngineStats") -> None:
        self.events += other.events
        self.inserts += other.inserts
        self.calculations += other.calculations
        self.selection_checks += other.selection_checks
        self.slices_closed += other.slices_closed
        self.windows_opened += other.windows_opened
        self.windows_closed += other.windows_closed
        self.results += other.results
        self.duplicates_dropped += other.duplicates_dropped
        self.merge_ops += other.merge_ops
        self.peak_live_slices = max(self.peak_live_slices, other.peak_live_slices)
        self.peak_open_windows = max(
            self.peak_open_windows, other.peak_open_windows
        )


class GroupRuntime:
    """Execution state of one query-group.

    The runtime owns the group's slice store, open windows, window
    trackers, the :class:`~repro.core.grid.PunctuationGrid` of its fixed
    trackers and the heap of the ends the grid cannot compute.  It cuts
    at every grid point, empty slices included, so slice ids count
    punctuations.  It can also run in *slicing-only* mode
    (``assemble=False``), in which closed slices are handed to a slice
    sink instead of being assembled into results — this is how local
    nodes reuse the engine in decentralized aggregation (Sec 5.1).

    A slicing-only runtime has punctuations, not windows: its fixed
    trackers open no :class:`WindowInstance`.  It keeps no count trackers
    either: a node slicing its own events cannot tell where a count
    window of the merged stream ends, so only the root counts (Sec 5.2).
    """

    def __init__(
        self,
        group: QueryGroup,
        sink: ResultSink,
        stats: EngineStats,
        *,
        emit_empty: bool = False,
        assemble: bool = True,
        slice_sink=None,
        window_sink=None,
        recorder=None,
        node_id: str = "",
    ) -> None:
        self.group = group
        self.sink = sink
        self.stats = stats
        #: slice-lifecycle trace recorder; the shared no-op unless tracing
        #: was opted into (see repro.obs.tracing)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.node_id = node_id
        self.emit_empty = emit_empty
        self.assemble = assemble
        #: how windows close: Two-Stacks running aggregates over closed
        #: slices, shared by all overlapping fixed windows of a
        #: (ctx, kinds, length) stream, and the plain scan for the rest
        self.incmerge = IncrementalMergeLayer()
        #: a removed query may have left streams that nothing feeds
        self._stale_streams = False
        #: called at every cut with (closed_slice, eps, spans, timed); eps
        #: are the (window, end_time) pairs it closes — data-driven windows
        #: only when slicing-only — spans maps ctx -> [first, last] matching-event
        #: times inside the closed slice (when track_spans) and timed ctx ->
        #: its (time, value) pairs in arrival order (when track_times).
        self.slice_sink = slice_sink
        #: when set, closed windows are handed over as
        #: (window, merged_ops, event_count, end_time) instead of being
        #: finalized into results (Disco's per-window partials).
        self.window_sink = window_sink
        #: what a slicing-only runtime tracks for its sink, read off the
        #: group: spans when it has sessions (the root covers gaps with
        #: them, Sec 5.1.2), event times when only the root can count its
        #: events (Sec 5.2)
        self.track_spans = not assemble and any(
            query.window.window_type is WindowType.SESSION
            for query in group.queries
        )
        self.track_times = not assemble and group.needs_timestamps
        self._tracking = self.track_spans or self.track_times
        self._spans: dict[int, list[int]] = {}
        self._timed: dict[int, list[tuple[int, float]]] = {}

        #: per-open-slice seen-event sets for deduplicating contexts
        self._dedup_seen: dict[int, set] = {}
        self.operators = group.operators
        #: id of a window's subscriber snapshot -> (that snapshot, pinned so
        #: the id stays its own; the kinds it merges).  Emptied when
        #: subscriptions change.
        self._kinds_of: dict[int, tuple[tuple[Query, ...], tuple]] = {}

        self.fixed: list[FixedWindowTracker] = []
        self.sessions: list[SessionWindowTracker] = []
        self.userdef: list[UserDefinedWindowTracker] = []
        self.counts: list[CountWindowTracker] = []
        #: user-defined trackers with no open window: the only ones that
        #: must be checked for opens on every event
        self._userdef_closed: list[UserDefinedWindowTracker] = []
        #: window deduplication (see repro.core.windows): queries sharing a
        #: window spec and selection context share one tracker
        self._tracker_index: dict[tuple, object] = {}
        #: query id -> the tracker it subscribes to
        self.tracker_by_query: dict[str, object] = {}

        self._heap: list[tuple[int, int, int, object]] = []
        #: the punctuations of the live fixed trackers, the earliest one
        #: not cut yet, and the trackers attached since the last drain —
        #: the time they joined at is their first punctuation, and still due
        self.grid = PunctuationGrid()
        self._grid_next: int | None = None
        self._joining: list[FixedWindowTracker] = []
        self._sync_selections()
        self._seq = 0
        self.open_windows: dict[int, WindowInstance] = {}
        self._uid = 0
        self.store = SliceStore()
        self.current = Slice(index=0, start=0)
        self.stream_time: int | None = None
        self._bootstrapped = False
        #: cumulative count of slices closed by this group (its local slice
        #: ids in the decentralized protocol, Sec 5.1.1)
        self.slice_seq = 0
        for query in group.queries:
            self.add_query(query)

    # -- query lifecycle ------------------------------------------------------

    def add_query(self, query: Query) -> None:
        """Attach a member query of the group (Sec 3.2).

        The one way a query enters a runtime: construction attaches each
        planned member, and :meth:`AggregationEngine.add_query` each query
        :meth:`~repro.core.analyzer.QueryPlan.admit` put into the group.
        A query needing an operator kind the runtime cannot read yet, or
        a selection context new to it, cuts the open slice (once events
        have arrived) so the new operators and contexts apply from the
        stream time on; kinds are only ever appended, and min/max read a
        planned non-decomposable sort (as :func:`required_kinds` does), so
        no running query's kinds change.  The query then subscribes to the
        tracker of its window spec and context — starting with the next
        window it opens — or gets a new one, which joins at stream time.
        """
        operators = self.operators
        wanted = operators_for(query.function)
        if OperatorKind.NON_DECOMPOSABLE_SORT in operators:
            wanted = wanted - {OperatorKind.DECOMPOSABLE_SORT}
        missing = wanted.difference(operators)
        ctx = self.group.context_of[query.query_id]
        new_ctx = ctx >= len(self.selections)
        if missing or new_ctx:
            if self._bootstrapped and self.stream_time is not None:
                self._cut(self.stream_time, [], [])
            if missing:
                self.operators = self.group.operators = operators + tuple(
                    kind
                    for kind in plan_operators((query.function,))
                    if kind in missing
                )
                self.current.spare = {}  # its spare sets lack the new kinds
            if new_ctx:
                self._sync_selections()
        self._kinds_of = {}
        if query.is_count_based and not self.assemble:
            return  # the root counts (see the class docstring)
        key = (query.window, ctx)
        tracker = self._tracker_index.get(key)
        if tracker is not None:
            tracker.subscribe(query)
        else:
            tracker = self._tracker_index[key] = self._new_tracker(query, ctx)
        self.tracker_by_query[query.query_id] = tracker

    def _new_tracker(self, query: Query, ctx: int):
        """A tracker for ``query``'s window spec; a fixed one joins at
        stream time once events have arrived."""
        kind = query.window.window_type
        if query.window.measure is WindowMeasure.COUNT:
            tracker = CountWindowTracker(query, ctx)
            self.counts.append(tracker)
        elif kind in (WindowType.TUMBLING, WindowType.SLIDING):
            tracker = FixedWindowTracker(query, ctx)
            self.fixed.append(tracker)
            if self._bootstrapped:
                self._joining.append(tracker)
                self._regrid(tracker.bootstrap(self.stream_time or 0))
        elif kind is WindowType.SESSION:
            tracker = SessionWindowTracker(query, ctx)
            self.sessions.append(tracker)
        elif kind is WindowType.USER_DEFINED:
            tracker = UserDefinedWindowTracker(query, ctx)
            self.userdef.append(tracker)
            self._userdef_closed.append(tracker)
        else:  # pragma: no cover - enum is exhaustive
            raise QueryError(f"unsupported window type: {kind!r}")
        self._sync_kernel()
        return tracker

    def _sync_selections(self) -> None:
        """Take the group's selection contexts, as of now."""
        self.selections = list(self.group.selections)
        #: key-indexed selection routing used by the batched fast path;
        #: the per-event path reads only whether any context is routed,
        #: and if so keeps the linear scan (its cost model)
        self._router = SelectionRouter(self.selections)
        #: selection contexts carrying the deduplication operator
        self._dedup_ctxs = frozenset(
            index
            for index, selection in enumerate(self.selections)
            if selection.deduplicate
        )
        self._sync_kernel()

    def _sync_kernel(self) -> None:
        """Re-read what the slice-run kernel asks of every call, kept
        here because it changes only with the queries and contexts."""
        #: whether any session, user-defined or count tracker is live:
        #: only then do events punctuate
        self._data_driven = bool(self.sessions or self.userdef or self.counts)
        #: whether the kernel reads the key column: only for contexts it
        #: routes row by row -- the key index, the deduplication signature
        #: and the run bounds of keyed data-driven windows
        #: (:meth:`_run_bound`) all belong to such contexts
        self.reads_keys = self._router.routed
        #: whether the kernel reads the marker map: for the deduplication
        #: signature and for user-defined windows
        self.reads_markers = bool(self._dedup_ctxs or self.userdef)
        #: the sessions whose open windows a slicing-only run hops over
        #: (:meth:`_hop_sessions`): those over whole contexts
        whole = self._router.whole
        self._hops = [] if self.assemble else [
            tracker for tracker in self.sessions if tracker.ctx in whole
        ]

    def remove_query(self, query_id: str, *, drain: bool = False) -> None:
        """Detach a query (Sec 3.2).

        With ``drain=False`` (remove "immediately") the query's open
        windows are discarded too; with ``drain=True`` ("wait for the
        last window to end") already-open windows still produce their
        results, but no new windows include the query.

        A fixed tracker that loses its last subscriber leaves the grid, and
        the ends of its windows move to the heap (:data:`_EP`), so nothing
        cuts at its starts any more; an end whose window was discarded is
        ignored when it fires.
        """
        tracker = self.tracker_by_query.pop(query_id, None)
        if tracker is None:
            raise QueryError(f"query {query_id!r} has no tracker in this group")
        if tracker.unsubscribe(query_id):
            # Last subscriber gone: stop opening new windows entirely.
            for bucket in (self.fixed, self.sessions, self.userdef, self.counts):
                if tracker in bucket:
                    bucket.remove(tracker)
            if tracker in self._userdef_closed:
                self._userdef_closed.remove(tracker)
            self._tracker_index.pop((tracker.spec, tracker.ctx), None)
            self._sync_kernel()
            if self._bootstrapped:
                self._regrid(self.stream_time)
            if isinstance(tracker, FixedWindowTracker):
                for window in tracker.windows:  # their ends leave the grid
                    self._push(window.end, _EP, window)
        if not drain:
            for window in list(self.open_windows.values()):
                if not any(q.query_id == query_id for q in window.queries):
                    continue
                window.queries = tuple(
                    q for q in window.queries if q.query_id != query_id
                )
                if not window.queries:
                    del self.open_windows[window.uid]
        self._kinds_of = {}
        self._stale_streams = True
        self._windows_left()

    # -- punctuations -----------------------------------------------------------

    def _push(self, time: int, tag: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, tag, payload))

    def _bootstrap(self, origin: int) -> None:
        self._bootstrapped = True
        self.current.start = origin
        for tracker in self.fixed:
            tracker.bootstrap(origin)
            self._joining.append(tracker)
        self._regrid(origin)

    def _regrid(self, now: int) -> None:
        """Rebuild the grid from the live fixed trackers, each from its own
        origin.  All up to the stream time ``now`` is cut, except ``now``
        itself while a tracker that joined there awaits the drain."""
        fixed = self.fixed
        self.grid = PunctuationGrid(
            (tracker.origin, tracker.length, tracker.slide) for tracker in fixed
        )
        self._joining = [tracker for tracker in self._joining if tracker in fixed]
        if self._joining:
            self._grid_next = now
        else:
            self._grid_next = self.grid.after(now)

    # -- window lifecycle -----------------------------------------------------

    def _open_window(
        self, queries: tuple[Query, ...], ctx: int, start: int,
        end: int | None, start_count: int = 0, slide: int | None = None
    ) -> WindowInstance:
        self._uid += 1
        window = WindowInstance(
            uid=self._uid,
            queries=queries,
            ctx=ctx,
            start=start,
            end=end,
            first_slice=self.current.index,
            start_count=start_count,
            slide=slide,
        )
        self.open_windows[window.uid] = window
        self.stats.windows_opened += 1
        if len(self.open_windows) > self.stats.peak_open_windows:
            self.stats.peak_open_windows = len(self.open_windows)
        return window

    def _close_window(self, window: WindowInstance, end: int, last_slice: int) -> None:
        self.open_windows.pop(window.uid, None)
        self.stats.windows_closed += 1
        window.end = end
        if not self.assemble:
            return
        # Merge the union of the subscribers' operators (worked out once per
        # snapshot, per distinct function) once; finalize (and materialize a
        # result) per subscribed query — the only per-query cost of a
        # deduplicated window.  A running query's kinds never change (see
        # add_query), so a draining subscriber reads what it always read.
        queries = window.queries
        cached = self._kinds_of.get(id(queries))
        if cached is None:
            union = set()
            for query in {query.function: query for query in queries}.values():
                union.update(required_kinds(query, self.operators))
            cached = self._kinds_of[id(queries)] = (
                queries, tuple(kind for kind in self.operators if kind in union)
            )
        kinds = cached[1]
        # Only *overlapping* fixed windows ride the Two-Stacks streams:
        # tumbling windows (``slide == length``) share no slices, and
        # data-driven ones (``slide is None``) lack the deterministic close
        # order a stream's FIFO discipline requires.
        length = end - window.start
        merged, events, merge_ops, pushed = self.incmerge.close(
            self.store, window.first_slice, last_slice, window.ctx, kinds,
            length, window.slide is not None and length > window.slide,
        )
        self.stats.merge_ops += merge_ops
        if pushed is not None and self.recorder.enabled:
            self.recorder.record(
                "merge.reuse",
                end,
                node=self.node_id,
                group=self.group.group_id,
                ctx=window.ctx,
                first_slice=window.first_slice,
                last_slice=last_slice,
                pushed=pushed,
                reused=(last_slice - window.first_slice + 1) - pushed,
                merge_ops=merge_ops,
            )
        if self.window_sink is not None:
            self.window_sink(window, merged, events, end)
            return
        if events == 0 and not self.emit_empty:
            return
        emitted_at = self.stream_time if self.stream_time is not None else end
        stats = self.stats
        emit = self.sink.emit
        for query in queries:
            value = finalize(query.function, merged)
            stats.results += 1
            if self.recorder.enabled:
                self.recorder.record(
                    "window.emit",
                    emitted_at,
                    node=self.node_id,
                    group=self.group.group_id,
                    query_id=query.query_id,
                    start=window.start,
                    end=end,
                    event_count=events,
                    first_slice=window.first_slice,
                    last_slice=last_slice,
                )
            emit(
                WindowResult(
                    query_id=query.query_id,
                    start=window.start,
                    end=end,
                    value=value,
                    event_count=events,
                    emitted_at=emitted_at,
                )
            )

    # -- slice cutting --------------------------------------------------------

    def _cut(self, time: int, eps: list, sps: list) -> None:
        """Terminate the current slice and apply window transitions.

        ``eps`` are ``(window, end_time)`` pairs closed by this cut; ``sps``
        are deferred window-open thunks executed after the cut so the new
        windows' first slice is the one opened here.
        """
        closing = self.current
        spare = closing.close(time)
        self.stats.slices_closed += 1
        self.slice_seq += 1
        if self.recorder.enabled:
            self.recorder.record(
                "slice.close",
                time,
                node=self.node_id,
                group=self.group.group_id,
                index=closing.index,
                start=closing.start,
                end=closing.end,
            )
        if self.assemble:
            if self.open_windows:
                self.store.add(closing)
                if len(self.store) > self.stats.peak_live_slices:
                    self.stats.peak_live_slices = len(self.store)
            else:
                # No open window covers the slice (this happens between
                # windows of non-overlapping queries): dropped at once.
                self.store.freed += 1
        if self.slice_sink is not None:
            self.slice_sink(closing, eps, self._spans, self._timed)
            if self._tracking:
                self._spans = {}
                self._timed = {}
        if self._dedup_seen:
            self._dedup_seen = {}
        self.current = Slice(closing.index + 1, time, spare)
        for window, end_time in eps:
            if window.uid in self.open_windows:
                self._close_window(window, end_time, closing.index)
        if eps:
            self._windows_left()
        for open_thunk in sps:
            open_thunk()

    def _windows_left(self) -> None:
        """Windows left ``open_windows``: free what only they still needed.

        ``open_windows`` is ordered by uid and ``first_slice`` never
        decreases from one open to the next, so its first entry is the
        oldest window and every slice below that window's first is dead;
        with no window left, so is everything closed so far.  Two-Stacks
        streams go with the last tracker or open window of their
        ``(ctx, length)`` (windows still draining after ``remove_query``
        keep theirs until they close).
        """
        if not self.assemble:
            return
        oldest = next(iter(self.open_windows.values()), None)
        self.store.free_below(
            self.current.index if oldest is None else oldest.first_slice
        )
        if self._stale_streams:
            tracked = {(t.ctx, t.length) for t in self.fixed}
            live = tracked | {
                (w.ctx, w.end - w.start)
                for w in self.open_windows.values()
                if w.slide is not None
            }
            self.incmerge.retain(live)
            self._stale_streams = live != tracked  # windows still draining

    # -- punctuation draining -------------------------------------------------

    def _drain(self, now: int) -> None:
        """One cut per distinct time up to ``now`` that is a grid point
        (whether or not anything ends there) or a heap end that closes a
        window.  Fixed windows closing at one cut close in the order they
        opened, after the sessions closing there."""
        heap = self._heap
        due = self._grid_next
        while True:
            time = heap[0][0] if heap and (due is None or heap[0][0] <= due) else due
            if time is None or time > now:
                return
            eps: list = []
            ends: list = []
            while heap and heap[0][0] == time:
                _, _, tag, payload = heapq.heappop(heap)
                self._classify(time, tag, payload, eps, ends)
            opening = ()
            if time == due:
                due = self._grid_next = self.grid.after(time)
                if self.assemble:
                    opening = self._turn(time, ends)
                self._joining = []
            elif not (eps or ends):
                continue
            if ends:
                if len(ends) > 1:
                    ends.sort(key=attrgetter("uid"))
                eps += [(window, time) for window in ends]
            self._cut(time, eps, ())
            for tracker in opening:
                window = self._open_window(
                    tracker.snapshot(), tracker.ctx, time, time + tracker.length,
                    slide=tracker.slide,
                )
                tracker.windows.append(window)
                tracker.opened = window.uid

    def _turn(self, time: int, ends: list) -> list[FixedWindowTracker]:
        """Grid point ``time`` of an assembling runtime: the fixed windows
        ending there join ``ends``, and the trackers with a window starting
        there are returned in the order their previous windows opened.
        Trackers that joined at ``time`` have opened none, and open alone,
        in join order: the grid was cut up to ``time`` when they joined."""
        if self._joining:
            return self._joining
        opening = []
        open_windows = self.open_windows
        for tracker in self.fixed:
            windows = tracker.windows
            if windows and windows[0].end == time:
                window = windows.popleft()
                if window.uid in open_windows:
                    ends.append(window)
            if not (time - tracker.origin) % tracker.slide:
                opening.append(tracker)
        if len(opening) > 1:
            opening.sort(key=attrgetter("opened"))
        return opening

    def _classify(self, time: int, tag: int, payload, eps: list, ends: list) -> None:
        """A heap entry due at ``time``: a session's end goes to ``eps``,
        a removed tracker's window to ``ends``, if it is still open."""
        if tag == _EP:
            if payload.uid in self.open_windows:
                ends.append(payload)
            return
        if tag == _SESSION_EP:
            tracker, generation = payload
            tracker.armed = False
            if tracker.window is None:
                return
            if tracker.generation == generation:
                eps.append((tracker.window, time))
                tracker.window = None
            else:
                # Stale: newer events extended the session; re-arm lazily.
                tracker.armed = True
                self._push(
                    tracker.tentative_end,
                    _SESSION_EP,
                    (tracker, tracker.generation),
                )
            return
        raise EngineError(f"unknown punctuation tag: {tag!r}")

    # -- event processing -----------------------------------------------------

    def process(self, event: Event) -> None:
        time = event.time
        if not self._bootstrapped:
            self._bootstrap(time)
        elif self.stream_time is not None and time < self.stream_time:
            raise OutOfOrderError(
                f"event at t={time} arrived after stream time {self.stream_time}"
            )
        self.stream_time = time
        # The drain's own first tests, so an event with nothing due pays a
        # compare and not a call.
        heap = self._heap
        due = self._grid_next
        if (heap and heap[0][0] <= time) or (due is not None and due <= time):
            self._drain(time)

        stats = self.stats
        router = self._router
        if router.routed:
            # The linear scan ``selection_checks`` bills (Fig 7e's cost
            # model), indexed by hand: a comprehension over ``enumerate``
            # would add a call frame, an iterator and a tuple per event.
            matched: list[int] = []
            index = 0
            for selection in self.selections:
                if selection.matches(event):
                    matched.append(index)
                index += 1
            stats.selection_checks += index
            if self._dedup_ctxs and matched:
                matched = self._apply_dedup(
                    (time, event.key, event.value, event.marker), matched
                )
        else:
            # Every context is whole: each takes every event, so there is
            # nothing to test.  The bill is still the linear scan's.
            matched = router.whole
            stats.selection_checks += router.total

        # ``matched`` is final from here on.  Only session, user-defined
        # and count windows punctuate on the events themselves.
        data_driven = self._data_driven
        if data_driven:
            taken = dict.fromkeys(matched, (time, 1))
            self._open_data_driven(time, event.key, event.marker, taken)

        if matched:
            # ``OperatorSetState.insert``, inlined: the value joins the
            # context's buffer, and the states fold it a cap's worth later.
            contexts = self.current.contexts
            value = event.value
            for ctx in matched:
                state = contexts.get(ctx)
                if state is None:
                    state = contexts[ctx] = (
                        self.current.spare.pop(ctx, None)
                        or OperatorSetState(self.operators)
                    )
                state.inserts += 1
                pending = state.pending
                pending.append(value)
                if len(pending) >= PENDING_CAP:
                    state.fold()
            stats.inserts += len(matched)
            stats.calculations += len(matched) * len(self.operators)
            if self._tracking:
                self._track_event(time, value, matched)

        if data_driven:
            self._close_data_driven(time, event.key, event.marker, taken)

    def _track_event(self, time: int, value: float, matched: list[int]) -> None:
        """What a tracking runtime notes of one inserted event."""
        if self.track_spans:
            spans = self._spans
            for ctx in matched:
                span = spans.get(ctx)
                if span is None:
                    spans[ctx] = [time, time]
                else:
                    span[1] = time
        if self.track_times:
            timed = self._timed
            for ctx in matched:
                pairs = timed.get(ctx)
                if pairs is None:
                    timed[ctx] = [(time, value)]
                else:
                    pairs.append((time, value))

    def _open_data_driven(
        self, time: int, key: str | None, marker: str | None,
        taken: dict[int, tuple[int, int]],
    ) -> None:
        """Pre-insert punctuations: windows that open with an event, or a
        run's first row (:meth:`_run_bound`); ``taken`` holds the contexts
        its rows went to."""
        sps: list = []
        for tracker in self.sessions:
            if tracker.ctx in taken and tracker.window is None:
                sps.append(self._make_session_opener(tracker, time))
        for tracker in self._userdef_closed:
            if tracker.opens_at(key, marker):
                sps.append(self._make_userdef_opener(tracker, time))
        for tracker in self.counts:
            if tracker.ctx in taken and tracker.opens_now():
                sps.append(self._make_count_opener(tracker, time))
        if sps:
            self._cut(time, [], sps)

    def _close_data_driven(
        self, time: int, key: str | None, marker: str | None,
        taken: dict[int, tuple[int, int]],
    ) -> None:
        """Post-insert punctuations: windows that close with an event, or a
        run's last row; ``taken`` maps each context its rows went to onto
        the last one's time and their count."""
        eps: list = []
        for tracker in self.sessions:
            took = taken.get(tracker.ctx)
            if took is not None and tracker.window is not None:
                tracker.touch(*took)
                if not tracker.armed:
                    tracker.armed = True
                    self._push(
                        tracker.tentative_end,
                        _SESSION_EP,
                        (tracker, tracker.generation),
                    )
        for tracker in self.counts:
            took = taken.get(tracker.ctx)
            if took is not None:
                for window in tracker.record(took[1]):
                    eps.append((window, time))
        if marker is not None:
            for tracker in self.userdef:
                if tracker.closes_at(key, marker):
                    eps.append((tracker.window, time))
                    tracker.window = None
                    self._userdef_closed.append(tracker)
        if eps:
            self._cut(time, eps, [])

    # -- batched event processing ---------------------------------------------

    def _next_punctuation(self) -> int | None:
        """Earliest upcoming punctuation time (a safe lower bound).

        Valid right after a drain: the heap top is strictly in the future
        (possibly stale entries only shorten runs), and so is the next
        grid point.  ``None`` means no punctuation is pending.
        """
        due = self._grid_next
        if self._heap and (due is None or self._heap[0][0] < due):
            return self._heap[0][0]
        return due

    def begin_run(self, times: Sequence[int], start: int) -> int | None:
        """Start a slice-run at row ``start`` of the time column: advance
        the stream clock, drain due punctuations, hop the open sessions
        over the rows ahead (:meth:`_hop_sessions`), and return the next
        punctuation deadline (every event strictly before it lands in
        the currently open slice)."""
        time = times[start]
        if not self._bootstrapped:
            self._bootstrap(time)
        elif self.stream_time is not None and time < self.stream_time:
            raise OutOfOrderError(
                f"event at t={time} arrived after stream time {self.stream_time}"
            )
        self.stream_time = time
        # The drain's own first tests, as in process().
        heap = self._heap
        due = self._grid_next
        if (heap and heap[0][0] <= time) or (due is not None and due <= time):
            self._drain(time)
        if self._hops:
            self._hop_sessions(times, start)
        return self._next_punctuation()

    def _hop_sessions(self, times: Sequence[int], start: int) -> None:
        """Re-arm each open session of :attr:`_hops` in place at the end
        the rows from ``start`` on give it, so a run does not stop at a
        tentative end those rows are about to make stale.

        Its context takes every row, so the session lasts through the
        first row a gap or more after the row before it: ``bisect`` hops
        a gap at a time along the time column.  Only a slicing-only
        runtime hops: there nothing reads the order of same-time closes,
        while an assembling runtime emits its results in it, so its stale
        ends stay lazy (:meth:`_classify`).
        """
        for tracker in self._hops:
            if tracker.window is None:
                continue
            gap = tracker.gap
            end = tracker.tentative_end
            k = start
            while True:
                hop = bisect_left(times, end, k)
                if hop == k:
                    break
                k = hop
                end = times[k - 1] + gap
            if k > start:
                self._rearm(tracker, end)

    def _rearm(self, tracker: SessionWindowTracker, time: int) -> None:
        """Move ``tracker``'s armed end to ``time`` in place, with the
        generation current before the run: a slicing-only runtime's heap
        holds one end per session and nothing else (it opens no fixed
        window, so no :data:`_EP` either), so it is found by a scan and
        re-heaped whole.  The run's rows then leave it stale by
        generation only, so when it fires :meth:`_classify` re-arms it
        at the same time, and it closes in the same drain."""
        heap = self._heap
        for index, entry in enumerate(heap):
            if entry[3][0] is tracker:
                heap[index] = (time, entry[1], _SESSION_EP,
                               (tracker, tracker.generation))
                heapq.heapify(heap)
                return

    def process_batch(self, events: Sequence[Event]) -> None:
        """Process an ordered batch of events in slice-runs: maximal
        stretches with no punctuation inside, each applied at once
        (:meth:`_process_run`) — a data-driven window opens only at a
        run's first row and closes only at its last (:meth:`_run_bound`).
        Results, state and :class:`EngineStats` are per-event
        :meth:`process`'s."""
        if events:
            ingest_events(((self,),), events, self.reads_keys, self.reads_markers)

    def _process_run(
        self,
        times: Sequence[int],
        keys: Sequence[str],
        values: Sequence[float],
        markers: dict[int, str],
        start: int,
        stop: int,
    ) -> None:
        """Apply rows ``[start, stop)`` of the columns — all inside one
        slice, between :meth:`process`'s hooks.

        The caller guarantees an ordered time column, no punctuation
        inside the run, and data-driven windows opening only at its first
        row and closing only at its last (:meth:`_run_bound`), where the
        hooks read those rows' fields.  A whole context (see
        :class:`~repro.core.predicates.SelectionRouter`) takes the run's
        stretch of the value column as is, routed ones what
        :meth:`_route_run` buffers, and each context's run goes in through
        one bulk insert; ``markers`` is sparse (row -> marker).  Stats
        bill the work as per event (``selection_checks`` the full linear
        scan).
        """
        stats = self.stats
        router = self._router
        stop_time = times[stop - 1]
        if router.routed:
            run_values, first, last, run_times = self._route_run(
                times, keys, values, markers, start, stop
            )
        else:
            # Every context takes every row: no row is looked at.
            run_values = dict.fromkeys(router.whole, values[start:stop])
            first = last = run_times = None
        self.stream_time = stop_time
        stats.selection_checks += router.total * (stop - start)
        data_driven = self._data_driven
        if data_driven:
            if last is None:
                taken = dict.fromkeys(run_values, (stop_time, stop - start))
            else:
                taken = {
                    ctx: (times[last[ctx]], len(run))
                    for ctx, run in run_values.items()
                }
            self._open_data_driven(
                times[start], keys[start] if keys else None, markers.get(start),
                taken,
            )
        if run_values:
            current = self.current
            operators = self.operators
            matched_total = 0
            for ctx, run in run_values.items():
                current.insert_run(ctx, run, operators)
                matched_total += len(run)
            stats.inserts += matched_total
            stats.calculations += matched_total * len(operators)
            if self._tracking:
                self._track_run(times, start, stop, first, last, run_times, run_values)
        if data_driven:
            k = stop - 1
            self._close_data_driven(
                stop_time, keys[k] if keys else None, markers.get(k), taken
            )

    def _route_run(
        self,
        times: Sequence[int],
        keys: Sequence[str],
        values: Sequence[float],
        markers: dict[int, str],
        start: int,
        stop: int,
    ) -> tuple[dict[int, list[float]], dict[int, int], dict[int, int],
               dict[int, list[int]] | None]:
        """The run ``[start, stop)`` of a group that routes contexts: ctx
        -> its values, in the order :meth:`process` files contexts new to
        the slice; ctx -> its first and last row, and the times of the
        routed rows when times are tracked."""
        router = self._router
        whole = router.whole
        run_values: dict[int, list[float]] = {}
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        run_times: dict[int, list[int]] | None = {} if self.track_times else None
        candidates = router.candidates
        dedup_ctxs = self._dedup_ctxs
        if dedup_ctxs or whole or self._data_driven or self._tracking:
            for k in range(start, stop):
                value = values[k]
                for ctx, lo, hi in candidates(keys[k]):
                    if (lo is None or value >= lo) and (hi is None or value < hi):
                        if ctx in dedup_ctxs and not self._apply_dedup(
                            (times[k], keys[k], value, markers.get(k)), [ctx]
                        ):
                            continue
                        bucket = run_values.get(ctx)
                        if bucket is None:
                            bucket = run_values[ctx] = []
                            first[ctx] = k
                        bucket.append(value)
                        last[ctx] = k
                        if run_times is not None:
                            run_times.setdefault(ctx, []).append(times[k])
        else:
            for k in range(start, stop):
                value = values[k]
                for ctx, lo, hi in candidates(keys[k]):
                    if (lo is None or value >= lo) and (hi is None or value < hi):
                        bucket = run_values.get(ctx)
                        if bucket is None:
                            bucket = run_values[ctx] = []
                        bucket.append(value)
        if whole:
            run = values[start:stop]
            for ctx in whole:
                run_values[ctx] = run
                first[ctx] = start
                last[ctx] = stop - 1
            if len(run_values) > len(whole):
                # process() files a context new to the slice at its first
                # kept row, a row's contexts in ctx order.
                run_values = {
                    ctx: run_values[ctx]
                    for ctx in sorted(run_values, key=lambda ctx: (first[ctx], ctx))
                }
        return run_values, first, last, run_times

    def _track_run(
        self, times: Sequence[int], start: int, stop: int,
        first: dict[int, int] | None, last: dict[int, int] | None,
        run_times: dict[int, list[int]] | None,
        run_values: dict[int, list[float]],
    ) -> None:
        """What :meth:`_track_event` notes, for the run ``[start, stop)``:
        a whole context took every row's time (all of them do when
        ``first`` and ``last`` are ``None``), a routed one the times
        ``run_times`` collected."""
        if self.track_spans:
            spans = self._spans
            for ctx in run_values:
                k = stop - 1 if last is None else last[ctx]
                span = spans.get(ctx)
                if span is None:
                    spans[ctx] = [times[start if first is None else first[ctx]], times[k]]
                else:
                    span[1] = times[k]
        if self.track_times:
            timed = self._timed
            for ctx, run in run_values.items():
                at = (run_times and run_times.get(ctx)) or times[start:stop]
                pairs = timed.get(ctx)
                if pairs is None:
                    timed[ctx] = list(zip(at, run))
                else:
                    pairs.extend(zip(at, run))

    def _run_bound(
        self, keys: Sequence[str], values: Sequence[float],
        marked: Sequence[tuple[int, str]], start: int, stop: int,
    ) -> int:
        """Where the run ``[start, stop)`` must end for the data-driven
        windows (``marked``: the marker map as sorted pairs).

        A row that opens a window — a closed session's first matching
        row, a count's matching row at a multiple of its slide, a closed
        user-defined window's first relevant row (with its start marker)
        — comes first: the run ends before it, or right after it when it
        is row ``start`` (a session's end must be in the heap before the
        next deadline is read, the seen-set the cut wipes hold that row
        alone).  A row that closes one — a count's matching row that fills
        a window, a relevant row with an open window's end marker — comes
        last.  Candidate rows (:meth:`_nth_row`) may include ones the
        deduplication drops: that only ends a run early, which is safe.
        """
        for tracker in self.sessions:
            if tracker.window is None:
                k = self._nth_row(tracker.ctx, 0, keys, values, start, stop)
                stop = min(stop, max(k, start + 1))
        for tracker in self.counts:
            nth, opens = tracker.next_punctuation()
            k = self._nth_row(tracker.ctx, nth, keys, values, start, stop)
            stop = min(stop, max(k, start + 1) if opens else k + 1)
        for tracker in self.userdef:
            if tracker.window is None:
                k = _relevant_row(
                    marked, tracker.start_marker, tracker.key, keys, start, stop
                )
                stop = min(stop, max(k, start + 1))
            else:
                k = _relevant_row(
                    marked, tracker.end_marker, tracker.key, keys, start, stop
                )
                stop = min(stop, k + 1)
        return stop

    def _nth_row(self, ctx: int, nth: int, keys: Sequence[str],
                 values: Sequence[float], start: int, stop: int) -> int:
        """The row of context ``ctx``'s ``nth`` (from 0) candidate — a row
        its key and value range let through — in ``[start, stop)``, or
        ``stop``; a key is found by C-speed ``list.index``."""
        selection = self.selections[ctx]
        key, lo, hi = selection.key, selection.lo, selection.hi
        if key is None and lo is None and hi is None:
            return min(start + nth, stop)
        k = start
        while k < stop:
            if key is not None:
                k = _find(keys, key, k, stop)
                if k == stop:
                    break
            value = values[k]
            if (lo is None or value >= lo) and (hi is None or value < hi):
                if not nth:
                    return k
                nth -= 1
            k += 1
        return stop

    def _apply_dedup(self, signature: tuple, matched: list[int]) -> list[int]:
        """Drop deduplicating contexts that already saw this exact event
        — ``signature`` is its ``(time, key, value, marker)`` — within the
        open slice (the deduplication operator, Sec 4.2.3)."""
        kept: list[int] = []
        for ctx in matched:
            if ctx in self._dedup_ctxs:
                seen = self._dedup_seen.get(ctx)
                if seen is None:
                    seen = self._dedup_seen[ctx] = set()
                if signature in seen:
                    self.stats.duplicates_dropped += 1
                    continue
                seen.add(signature)
            kept.append(ctx)
        return kept

    def _make_session_opener(self, tracker: SessionWindowTracker, time: int):
        def open_session() -> None:
            window = self._open_window(tracker.snapshot(), tracker.ctx, time, None)
            tracker.window = window

        return open_session

    def _make_userdef_opener(self, tracker: UserDefinedWindowTracker, time: int):
        def open_userdef() -> None:
            window = self._open_window(tracker.snapshot(), tracker.ctx, time, None)
            tracker.window = window
            if tracker in self._userdef_closed:
                self._userdef_closed.remove(tracker)

        return open_userdef

    def _make_count_opener(self, tracker: CountWindowTracker, time: int):
        def open_count() -> None:
            window = self._open_window(
                tracker.snapshot(), tracker.ctx, time, None, start_count=tracker.seen
            )
            tracker.open_windows.append(window)

        return open_count

    # -- progress and shutdown ------------------------------------------------

    def advance(self, time: int) -> None:
        """Apply a watermark: fire all punctuations up to ``time``."""
        if not self._bootstrapped:
            self._bootstrap(time)
        if self.stream_time is not None and time < self.stream_time:
            raise OutOfOrderError(
                f"watermark {time} behind stream time {self.stream_time}"
            )
        self.stream_time = time
        self._drain(time)

    def close(self, at_time: int | None = None) -> None:
        """End of stream: flush punctuations and force-close open windows.

        Data-driven windows (session, user-defined, count) are closed at
        the final stream time; fixed windows keep their declared ends but
        contain only the observed prefix.
        """
        final = at_time if at_time is not None else (self.stream_time or 0)
        self.advance(final)
        if not self.open_windows and (self.assemble or not self.fixed):
            return  # (a slicing-only runtime's fixed windows are always open)
        eps = []
        for window in list(self.open_windows.values()):
            end = window.end if window.end is not None else final
            eps.append((window, min(end, final) if window.end is None else end))
        for tracker in self.sessions:
            tracker.window = None
        for tracker in self.userdef:
            if tracker.window is not None:
                tracker.window = None
                self._userdef_closed.append(tracker)
        for tracker in self.counts:
            tracker.open_windows.clear()
        self._cut(final, eps, [])


def _columns(
    events: Sequence[Event], with_keys: bool, with_markers: bool
) -> tuple[list[int], Sequence[str], list[float], dict[int, str]]:
    """Split events into the slice-run kernel's columns: the key column
    and the sparse ``row -> marker`` map only when some group reads them
    (:attr:`GroupRuntime.reads_keys`, :attr:`~GroupRuntime.reads_markers`),
    empty otherwise."""
    return (
        [event.time for event in events],
        [event.key for event in events] if with_keys else (),
        [event.value for event in events],
        {row: event.marker for row, event in enumerate(events)
         if event.marker is not None} if with_markers else {},
    )


def _find(keys: Sequence[str], key: str, start: int, stop: int) -> int:
    """The first row in ``[start, stop)`` with ``key``, or ``stop``."""
    try:
        return keys.index(key, start, stop)
    except ValueError:
        return stop


def _relevant_row(
    marked: Sequence[tuple[int, str]], marker: str | None, key: str | None,
    keys: Sequence[str], start: int, stop: int,
) -> int:
    """The first row in ``[start, stop)`` with ``key`` and ``marker``
    (either one any, when ``None``), or ``stop``."""
    if marker is None:
        return start if key is None else _find(keys, key, start, stop)
    at = bisect_left(marked, (start,))
    while at < len(marked) and marked[at][0] < stop:
        row, mark = marked[at]
        if mark == marker and (key is None or keys[row] == key):
            return row
        at += 1
    return stop


def ingest_events(
    lanes: Sequence[Sequence[GroupRuntime]], events: Sequence[Event],
    with_keys: bool, with_markers: bool,
) -> None:
    """Split ordered ``events`` into columns once and drive every lane of
    runtimes through them (:func:`_ingest_columns`); the key column and
    the marker map only when some runtime reads them
    (:attr:`GroupRuntime.reads_keys`, :attr:`~GroupRuntime.reads_markers`)."""
    _ingest_columns(lanes, *_columns(events, with_keys, with_markers))


def _ingest_columns(
    lanes: Sequence[Sequence[GroupRuntime]],
    times: Sequence[int],
    keys: Sequence[str],
    values: Sequence[float],
    markers: dict[int, str],
) -> None:
    """Drive each lane of runtimes through ordered columns in slice-runs.

    A lane's runtimes share their chunk boundaries.  Every chunk ends at
    their earliest next punctuation (by ``bisect``: rows *at* it start
    the next run) or sooner, where a runtime's data-driven windows need
    it (:meth:`GroupRuntime._run_bound`).  So results interleave across
    the lane as per event: drains emit at a chunk's first row and
    data-driven closes at its last, each in lane order — and a runtime
    that opens or closes a window at the first row, making the chunk
    that row alone, runs it before the next one drains.  Runtimes whose
    results nobody interleaves (a local node's groups, which emit none)
    each make a lane of their own, and cut their runs at their own
    punctuations only.  The time column is validated up front, so a
    mid-batch regression cannot leave runtimes at diverging stream times.
    """
    n = len(times)
    if n > 2 and sorted(times) != times or n == 2 and times[1] < times[0]:
        prev = times[0]
        for time in times:
            if time < prev:
                raise OutOfOrderError(
                    f"event at t={time} arrived after stream time {prev}"
                )
            prev = time
    marked = sorted(markers.items()) if markers else ()
    for groups in lanes:
        i = 0
        while i < n:
            deadline: int | None = None
            early = []
            for group in groups:
                due = group.begin_run(times, i)
                if due is not None and (deadline is None or due < deadline):
                    deadline = due
                # A window opened or closed at row i makes the chunk row i
                # alone: run it now, before the next runtime drains there.
                if group._data_driven and group._run_bound(
                    keys, values, marked, i, min(i + 2, n)
                ) == i + 1:
                    group._process_run(times, keys, values, markers, i, i + 1)
                    early.append(group)
            if early:
                j = i + 1
                rest = [group for group in groups if group not in early]
            else:
                j = n if deadline is None else bisect_left(times, deadline, i + 1)
                for group in groups:
                    if group._data_driven:
                        j = group._run_bound(keys, values, marked, i, j)
                rest = groups
            for group in rest:
                group._process_run(times, keys, values, markers, i, j)
            i = j


def _closed(*_args, **_kwargs):
    """What a closed engine's entry points do."""
    raise EngineError("engine already closed")


class AggregationEngine:
    """Multi-query window aggregation with cross-query sharing (Sec 4).

    This is the centralized engine (and the per-node workhorse of the
    decentralized clusters).  Construct it with a query set; feed events in
    timestamp order via :meth:`process`; results appear in :attr:`sink`.
    Queries come and go at runtime through :meth:`add_query` and
    :meth:`remove_query`.  A query enters one way, construction included:
    :meth:`~repro.core.analyzer.QueryPlan.admit` groups it first-fit, and
    :meth:`GroupRuntime.add_query` attaches it to its group's runtime.

    Args:
        queries: the continuous queries to execute.
        config: an :class:`~repro.core.config.EngineConfig` carrying every
            behavioural knob (the sharing ``policy``, ``emit_empty``).
            ``config.shards`` is informational here — this class always
            runs in-process; sharded execution is enacted by
            :class:`repro.parallel.ShardedEngine`.
        sink: custom result sink (default: an in-memory :class:`ResultSink`).
    """

    def __init__(
        self,
        queries: Iterable[Query],
        *,
        config: "EngineConfig | None" = None,
        sink: ResultSink | None = None,
        recorder=None,
    ) -> None:
        from repro.core.config import EngineConfig

        #: the configuration this engine runs with
        self.config = config if config is not None else EngineConfig()
        self.sink = sink if sink is not None else ResultSink()
        self.stats = EngineStats()
        self.plan = analyze(queries, policy=self.config.policy)
        self.policy = self.plan.policy
        #: opt-in slice-lifecycle tracing (repro.obs.tracing.TraceRecorder)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.groups: list[GroupRuntime] = [
            self._runtime(group) for group in self.plan.groups
        ]
        #: stream time while no group keeps it (:meth:`_process_ungrouped`)
        self._ungrouped_time: int | None = None
        self._sync_reads()
        if not self.groups:
            self.process = self._process_ungrouped

    def _runtime(self, group: QueryGroup) -> GroupRuntime:
        return GroupRuntime(
            group,
            self.sink,
            self.stats,
            emit_empty=self.config.emit_empty,
            recorder=self.recorder,
            node_id="engine",
        )

    def _sync_reads(self) -> None:
        """Which optional columns the groups read (``process_batch``
        splits only those), re-read whenever a query comes or goes."""
        self._reads = (
            any(group.reads_keys for group in self.groups),
            any(group.reads_markers for group in self.groups),
        )

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def process(self, event: Event) -> None:
        """Process one event (events must arrive in timestamp order).

        It is billed once the groups have taken it: one they reject as
        out of order is not an event, as under :meth:`process_batch`.
        """
        for group in self.groups:
            group.process(event)
        self.stats.events += 1

    def _process_ungrouped(self, event: Event) -> None:
        """:meth:`process` until the first query-group exists."""
        self._keep_ungrouped_time(event.time, event.time)
        self.stats.events += 1

    def _keep_ungrouped_time(self, first: int, last: int) -> None:
        """Keep stream time across rows ``first`` .. ``last`` (in order)
        while no group keeps it, and refuse rows before it as a group
        would."""
        now = self._ungrouped_time
        if now is not None and first < now:
            raise OutOfOrderError(
                f"event at t={first} arrived after stream time {now}"
            )
        self._ungrouped_time = last

    def process_batch(self, events: Sequence[Event]) -> None:
        """Process an ordered batch of events through the fast path.

        Equivalent to calling :meth:`process` per event — identical
        results, state, and :class:`EngineStats` — but each query-group
        amortizes punctuation drains, selection matching, and operator
        dispatch over whole slice-runs: the events are split into columns
        once and driven through :func:`_ingest_columns`, the same kernel
        :meth:`process_columns` feeds, whatever the window types.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if events:
            ingest_events((self.groups,), events, *self._reads)
            if not self.groups:
                self._keep_ungrouped_time(events[0].time, events[-1].time)
            self.stats.events += len(events)

    def process_columns(
        self,
        times: Sequence[int],
        keys: Sequence[str],
        values: Sequence[float],
        markers: dict[int, str] | None = None,
    ) -> None:
        """:meth:`process_batch` for rows that already are columns.

        ``times``/``keys``/``values`` are parallel, time-ordered lists of
        one length, and ``values`` holds no NaN (both checked before any
        row lands); ``markers`` sparsely maps row -> marker.  No
        :class:`Event` is built; every window type runs here.
        """
        if not len(times) == len(keys) == len(values):
            raise EngineError(
                f"columns of unequal length: {len(times)} times, "
                f"{len(keys)} keys, {len(values)} values"
            )
        if holds_nan(values):
            raise NaNValueError("a values column holding NaN refused")
        if times:
            _ingest_columns((self.groups,), times, keys, values, markers or {})
            if not self.groups:
                self._keep_ungrouped_time(times[0], times[-1])
            self.stats.events += len(times)

    def process_many(self, events: Iterable[Event]) -> None:
        """Batched ingestion for any iterable of in-order events."""
        self.process_batch(events)

    def quiet_until(self) -> float | None:
        """The earliest time at which any group could drain.

        An in-order event strictly before it fires no punctuation: it
        only extends the open slices, so it may wait and join a later
        :meth:`process_batch` with nothing observable moved.  ``-inf``
        while a group is not bootstrapped yet or has no punctuation
        pending: no event may wait now, but one may after the next event.
        ``None`` while the queries never let events wait: a group whose
        session, count or user-defined windows open and close on the
        events themselves, or no group at all.  Valid until the next call
        that changes state.
        """
        quiet = None
        for group in self.groups:
            if group._data_driven:
                return None
            due = group._next_punctuation() if group._bootstrapped else None
            if due is None:
                due = -inf
            if quiet is None or due < quiet:
                quiet = due
        return quiet

    def advance(self, time: int) -> None:
        """Apply a watermark to every group."""
        for group in self.groups:
            group.advance(time)

    def close(self, at_time: int | None = None) -> ResultSink:
        """Flush everything and return the result sink.

        A closed engine takes nothing more, neither events nor queries: its
        entry points are rebound to raise :class:`EngineError`, so
        :meth:`process` tests nothing per event.
        """
        for entry in ("process", "process_batch", "process_columns", "advance",
                      "close", "add_query", "remove_query"):
            setattr(self, entry, _closed)
        for group in self.groups:
            group.close(at_time)
        return self.sink

    # -- runtime query management (Sec 3.2) ------------------------------------

    def remove_query(self, query_id: str, *, drain: bool = False) -> None:
        """Remove a running query (Sec 3.2).

        ``drain=False`` removes it immediately, discarding open windows;
        ``drain=True`` lets already-open windows finish first.
        """
        group = self.plan.group_of(query_id)
        runtime = self.groups[group.group_id]
        runtime.remove_query(query_id, drain=drain)
        group.remove_query(query_id)
        self._sync_reads()

    def add_query(self, query: Query) -> None:
        """Attach a new query at runtime (Sec 3.2).

        :meth:`~repro.core.analyzer.QueryPlan.admit` puts it into the first
        compatible group, or a new one; it then starts windowing at the
        current stream time (:meth:`GroupRuntime.add_query`).  Operators
        already planned for a running group are never dropped, so open
        windows keep the partials they rely on.
        """
        group = self.plan.admit(query)
        if group.group_id < len(self.groups):
            self.groups[group.group_id].add_query(query)
            self._sync_reads()
            return
        group._replan()
        runtime = self._runtime(group)
        self.groups.append(runtime)
        self._sync_reads()
        if len(self.groups) == 1:
            del self.process  # the group keeps stream time from here
        # Bootstrap the new group at the current stream time so its first
        # fixed window anchors at the join time — without this, the group
        # would bootstrap lazily at its next event and its window schedule
        # could anchor at an arbitrary later (or, via ``advance``, the
        # origin) timestamp instead.
        stream_time = max(
            (g.stream_time for g in self.groups if g.stream_time is not None),
            default=self._ungrouped_time,
        )
        if stream_time is not None:
            runtime.advance(stream_time)
