"""The Desis aggregation engine (Sec 4).

The engine processes multiple windowed queries over one event stream while
executing every event once per query-group: queries are grouped by the
analyzer, each group's windows are cut into shared slices at window
start/end punctuations, and each slice runs the group's shared operator set
(Table 1) once per matching selection context.  When a window ends, its
result is assembled by merging the partial results of its covered slices
and finalizing its aggregation function.

Two punctuation strategies are supported:

* ``heap`` (Desis): upcoming fixed-window punctuations live in a priority
  queue, so an event only pays for punctuations that are actually due.
* ``scan`` (the Scotty/DeSW baselines of Sec 6.1.1): every event scans all
  window trackers for due punctuations, modelling engines that "check each
  arriving event" (Sec 6.2.1).

Both strategies produce identical cuts and results; they differ only in
per-event cost, which is one of the effects Figures 6 and 8 measure.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.analyzer import QueryGroup, QueryPlan, analyze
from repro.core.errors import EngineError, OutOfOrderError, QueryError
from repro.core.event import Event
from repro.core.functions import finalize, operators_for
from repro.core.grid import PunctuationGrid
from repro.core.incmerge import IncrementalMergeLayer
from repro.core.operators import OperatorSetState
from repro.core.query import Query
from repro.core.results import ResultSink, WindowResult
from repro.core.slices import Slice, SliceStore
from repro.obs.tracing import NULL_RECORDER
from repro.core.types import (
    OperatorKind,
    SharingPolicy,
    WindowMeasure,
    WindowType,
)
from repro.core.windows import (
    CountWindowTracker,
    FixedWindowTracker,
    SessionWindowTracker,
    UserDefinedWindowTracker,
    WindowInstance,
)

__all__ = ["AggregationEngine", "EngineStats", "GroupRuntime", "required_kinds"]

# Heap entry tags.
_SP_FIXED = 0
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

    The runtime owns the group's slice store, open windows, punctuation
    heap, and window trackers.  It can also run in *slicing-only* mode
    (``assemble=False``), in which closed slices are handed to a slice
    sink instead of being assembled into results — this is how local
    nodes reuse the engine in decentralized aggregation (Sec 5.1).

    A slicing-only runtime has punctuations, not windows: in heap mode
    its fixed trackers open no :class:`WindowInstance`; it cuts at every
    point of their :class:`~repro.core.grid.PunctuationGrid` (empty slices
    included, so slice ids count punctuations) and its heap holds session
    ends only.  Scan mode, the baselines' cost model, opens every window.
    """

    def __init__(
        self,
        group: QueryGroup,
        sink: ResultSink,
        stats: EngineStats,
        *,
        punctuation_mode: str = "heap",
        emit_empty: bool = False,
        assemble: bool = True,
        slice_sink=None,
        window_sink=None,
        track_spans: bool = False,
        recorder=None,
        node_id: str = "",
    ) -> None:
        if punctuation_mode not in ("heap", "scan"):
            raise EngineError(f"unknown punctuation mode: {punctuation_mode!r}")
        self.group = group
        self.sink = sink
        self.stats = stats
        #: slice-lifecycle trace recorder; the shared no-op unless tracing
        #: was opted into (see repro.obs.tracing)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.node_id = node_id
        self.mode = punctuation_mode
        self.emit_empty = emit_empty
        self.assemble = assemble
        #: how windows close: Two-Stacks running aggregates over closed
        #: slices, shared by all overlapping fixed windows of a
        #: (ctx, kinds, length) stream, and the plain scan for the rest
        self.incmerge = IncrementalMergeLayer()
        #: a removed query may have left streams that nothing feeds
        self._stale_streams = False
        #: called at every cut with (closed_slice, eps, spans); eps are
        #: the (window, end_time) pairs it closes — data-driven windows
        #: only on a grid — and spans maps ctx -> [first, last]
        #: matching-event times inside the closed slice (when track_spans).
        self.slice_sink = slice_sink
        #: when set, closed windows are handed over as
        #: (window, merged_ops, event_count, end_time) instead of being
        #: finalized into results (Disco's per-window partials).
        self.window_sink = window_sink
        self.track_spans = track_spans
        self._spans: dict[int, list[int]] = {}

        self.selections = list(group.selections)
        #: key-indexed selection routing used by the batched fast path;
        #: the per-event path keeps the linear scan (its cost model)
        self._router = group.build_router()
        #: selection contexts carrying the deduplication operator
        self._dedup_ctxs = frozenset(
            index
            for index, selection in enumerate(self.selections)
            if selection.deduplicate
        )
        #: per-open-slice seen-event sets for deduplicating contexts
        self._dedup_seen: dict[int, set] = {}
        self.operators = group.operators
        self.needed: dict[str, tuple[OperatorKind, ...]] = {
            query.query_id: required_kinds(query, group.operators)
            for query in group.queries
        }
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
        #: whether any session, user-defined or count tracker is live:
        #: only then do events punctuate (kept by _add_trackers/remove_query)
        self._data_driven = False
        #: window deduplication (see repro.core.windows): queries sharing a
        #: window spec and selection context share one tracker
        self._tracker_index: dict[tuple, object] = {}
        for query in group.queries:
            self._add_trackers(query)

        self._heap: list[tuple[int, int, int, object]] = []
        #: slicing-only heap mode: the punctuations of the live fixed
        #: trackers (``None`` everywhere else), the earliest one not cut
        #: yet, and the trackers attached since the last drain — the time
        #: they joined at is their first punctuation, and still due
        self.grid: PunctuationGrid | None = None
        self._grid_next: int | None = None
        self._joining: list[FixedWindowTracker] = []
        if not assemble and punctuation_mode == "heap":
            self.grid = PunctuationGrid()
            # Shadows the method: no other runtime's drain tests for a grid.
            self._drain = self._drain_grid
        #: scan mode: cached earliest due punctuation time (may be early,
        #: never late); None forces a rescan on the next event.
        self._scan_next: int | None = None
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

    # -- query lifecycle ------------------------------------------------------

    def _add_trackers(self, query: Query) -> bool:
        """Attach ``query`` to its (possibly shared) tracker.

        Returns True when a new tracker was created; queries whose window
        spec and selection context match an existing tracker simply
        subscribe to it (window deduplication).
        """
        ctx = self.group.context_of[query.query_id]
        key = (query.window, ctx)
        existing = self._tracker_index.get(key)
        if existing is not None:
            existing.subscribe(query)
            return False
        kind = query.window.window_type
        if query.window.measure is WindowMeasure.COUNT:
            tracker = CountWindowTracker(query, ctx)
            self.counts.append(tracker)
        elif kind in (WindowType.TUMBLING, WindowType.SLIDING):
            tracker = FixedWindowTracker(query, ctx)
            self.fixed.append(tracker)
        elif kind is WindowType.SESSION:
            tracker = SessionWindowTracker(query, ctx)
            self.sessions.append(tracker)
        elif kind is WindowType.USER_DEFINED:
            tracker = UserDefinedWindowTracker(query, ctx)
            self.userdef.append(tracker)
            self._userdef_closed.append(tracker)
        else:  # pragma: no cover - enum is exhaustive
            raise QueryError(f"unsupported window type: {kind!r}")
        self._tracker_index[key] = tracker
        self._data_driven = bool(self.sessions or self.userdef or self.counts)
        return True

    def add_query(self, query: Query) -> None:
        """Attach a query at runtime (Sec 3.2); it joins at stream time.

        A query matching an existing tracker subscribes to it and starts
        receiving results from the next window that tracker opens.
        """
        self.needed[query.query_id] = required_kinds(query, self.group.operators)
        self._kinds_of = {}
        created = self._add_trackers(query)
        self._scan_next = None  # the new query may punctuate earlier
        if created and self._bootstrapped:
            tracker = self._tracker_of(query.query_id)
            if isinstance(tracker, FixedWindowTracker):
                start = tracker.bootstrap(self.stream_time or 0)
                if self.grid is not None:
                    self._joining.append(tracker)
                    self._regrid(start)
                elif self.mode == "heap":
                    self._push(start, _SP_FIXED, tracker)

    def refresh_selections(self) -> None:
        """Re-sync selections (and their routing index) with the group.

        Called after runtime query admission changes the group's distinct
        selection contexts.
        """
        self.selections = list(self.group.selections)
        self._router = self.group.build_router()

    def remove_query(self, query_id: str, *, drain: bool = False) -> None:
        """Detach a query (Sec 3.2).

        With ``drain=False`` (remove "immediately") the query's open
        windows are discarded too; with ``drain=True`` ("wait for the
        last window to end") already-open windows still produce their
        results, but no new windows include the query.

        Stale heap punctuations for the query are ignored when they fire
        (start punctuations check tracker membership, end punctuations
        check the open-window table); on a grid, which has no window to
        drain, they go with the tracker either way.
        """
        tracker = self._tracker_of(query_id)
        if tracker.unsubscribe(query_id):
            # Last subscriber gone: stop opening new windows entirely.
            for bucket in (self.fixed, self.sessions, self.userdef, self.counts):
                if tracker in bucket:
                    bucket.remove(tracker)
            if tracker in self._userdef_closed:
                self._userdef_closed.remove(tracker)
            self._tracker_index.pop((tracker.spec, tracker.ctx), None)
            self._data_driven = bool(self.sessions or self.userdef or self.counts)
            if self.grid is not None and self._bootstrapped:
                self._regrid(self.stream_time)
        if not drain:
            # (Draining windows keep their subscriber snapshot; ``needed``
            # must outlive them for result finalization at close.)
            for window in list(self.open_windows.values()):
                if not any(q.query_id == query_id for q in window.queries):
                    continue
                window.queries = tuple(
                    q for q in window.queries if q.query_id != query_id
                )
                if not window.queries:
                    del self.open_windows[window.uid]
            self.needed.pop(query_id, None)
        self._kinds_of = {}
        self._stale_streams = True
        self._windows_left()

    def _tracker_of(self, query_id: str):
        for bucket in (self.fixed, self.sessions, self.userdef, self.counts):
            for tracker in bucket:
                if tracker.serves(query_id):
                    return tracker
        raise QueryError(f"query {query_id!r} has no tracker in this group")

    # -- punctuation heap -----------------------------------------------------

    def _push(self, time: int, tag: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, tag, payload))

    def _bootstrap(self, origin: int) -> None:
        self._bootstrapped = True
        self.current.start = origin
        for tracker in self.fixed:
            start = tracker.bootstrap(origin)
            if self.grid is not None:
                self._joining.append(tracker)
            elif self.mode == "heap":
                self._push(start, _SP_FIXED, tracker)
        if self.grid is not None:
            self._regrid(origin)

    def _regrid(self, now: int) -> None:
        """Rebuild the grid from the live fixed trackers (never advanced
        on a grid, so ``next_start`` is each one's own origin).  All up to
        the stream time ``now`` is cut, except ``now`` itself while a
        tracker that joined there awaits the drain."""
        self.grid = PunctuationGrid(
            (tracker.next_start, tracker.length, tracker.slide)
            for tracker in self.fixed
        )
        if any(tracker in self.fixed for tracker in self._joining):
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
        # snapshot) once; finalize (and materialize a result) per subscribed
        # query — the only per-query cost of a deduplicated window.
        queries = window.queries
        cached = self._kinds_of.get(id(queries))
        if cached is None:
            union = set()
            for query in queries:
                union.update(self.needed[query.query_id])
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
        closing.close(time)
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
            self.slice_sink(closing, eps, self._spans)
            self._spans = {}
        if self._dedup_seen:
            self._dedup_seen = {}
        self.current = Slice(index=closing.index + 1, start=time)
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
        if self.mode == "heap":
            self._drain_heap(now)
        else:
            self._drain_scan(now)

    def _drain_heap(self, now: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= now:
            time = heap[0][0]
            eps: list = []
            sps: list = []
            while heap and heap[0][0] == time:
                _, _, tag, payload = heapq.heappop(heap)
                self._classify(time, tag, payload, eps, sps)
            if eps or sps:
                self._cut(time, eps, sps)

    def _drain_grid(self, now: int) -> None:
        """A grid-driven runtime's drain: one cut per distinct time up to
        ``now`` that is a grid punctuation (whether or not anything ends
        there) or closes a session."""
        heap = self._heap
        due = self._grid_next
        while True:
            time = heap[0][0] if heap and (due is None or heap[0][0] <= due) else due
            if time is None or time > now:
                return
            eps: list = []
            while heap and heap[0][0] == time:
                _, _, tag, payload = heapq.heappop(heap)
                self._classify(time, tag, payload, eps, ())
            if time == due:
                due = self._grid_next = self.grid.after(time)
                self._joining.clear()
            elif not eps:
                continue
            self._cut(time, eps, ())

    def _classify(self, time: int, tag: int, payload, eps: list, sps: list) -> None:
        if tag == _EP:
            window = payload
            if window.uid in self.open_windows:
                eps.append((window, time))
            return
        if tag == _SP_FIXED:
            tracker = payload
            if tracker in self.fixed:  # ignore punctuations of removed queries
                sps.append(self._make_fixed_opener(tracker, time))
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

    def _make_fixed_opener(self, tracker: FixedWindowTracker, time: int):
        def open_fixed() -> None:
            window = self._open_window(
                tracker.snapshot(), tracker.ctx, time, time + tracker.length,
                slide=tracker.slide,
            )
            if self.mode == "heap":
                self._push(window.end, _EP, window)
                self._push(tracker.advance(), _SP_FIXED, tracker)
            else:
                tracker.advance()

        return open_fixed

    def _drain_scan(self, now: int) -> None:
        """The baselines' punctuation path: a per-event due-time check with
        a full tracker scan only when a punctuation is actually due."""
        if self._scan_next is not None and now < self._scan_next:
            return
        while True:
            due_time: int | None = None
            for tracker in self.fixed:
                if tracker.next_start is not None:
                    if due_time is None or tracker.next_start < due_time:
                        due_time = tracker.next_start
            for window in self.open_windows.values():
                if window.end is not None:
                    if due_time is None or window.end < due_time:
                        due_time = window.end
            for tracker in self.sessions:
                if tracker.window is not None:
                    if due_time is None or tracker.tentative_end < due_time:
                        due_time = tracker.tentative_end
            if due_time is None or due_time > now:
                self._scan_next = due_time
                return
            eps: list = []
            sps: list = []
            for window in list(self.open_windows.values()):
                if window.end is not None and window.end == due_time:
                    eps.append((window, due_time))
            for tracker in self.sessions:
                if (
                    tracker.window is not None
                    and tracker.window.uid in self.open_windows
                    and tracker.tentative_end == due_time
                ):
                    if (tracker.window, due_time) not in eps:
                        eps.append((tracker.window, due_time))
                    tracker.window = None
            for tracker in self.fixed:
                if tracker.next_start == due_time:
                    sps.append(self._make_fixed_opener(tracker, due_time))
            self._cut(due_time, eps, sps)

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
        # The drains' own first tests, so an event with nothing due pays a
        # compare and not a call (a grid's session ends are in the heap).
        if self.mode == "heap":
            heap = self._heap
            due = self._grid_next
            if (heap and heap[0][0] <= time) or (due is not None and due <= time):
                self._drain(time)
        elif self._scan_next is None or self._scan_next <= time:
            self._drain(time)

        # The linear scan ``selection_checks`` bills, indexed by hand: a
        # comprehension over ``enumerate`` would add a call frame, an
        # iterator and a tuple per event (~0.25 us of this path's ~0.9).
        stats = self.stats
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

        # ``matched`` is final from here on.  Only session, user-defined
        # and count windows punctuate on the events themselves.
        data_driven = self._data_driven
        if data_driven:
            matched_set = set(matched)
            self._open_data_driven(event, matched_set)

        if matched:
            contexts = self.current.contexts
            value = event.value
            for ctx in matched:
                state = contexts.get(ctx)
                if state is None:
                    state = contexts[ctx] = OperatorSetState(self.operators)
                state.insert(value)
            stats.inserts += len(matched)
            stats.calculations += len(matched) * len(self.operators)
            if self.track_spans:
                spans = self._spans
                for ctx in matched:
                    span = spans.get(ctx)
                    if span is None:
                        spans[ctx] = [time, time]
                    else:
                        span[1] = time

        if data_driven:
            self._close_data_driven(event, matched_set)

    def _open_data_driven(self, event: Event, matched_set: set[int]) -> None:
        """Pre-insert punctuations: windows that open with this event."""
        time = event.time
        sps: list = []
        for tracker in self.sessions:
            if tracker.ctx in matched_set and tracker.window is None:
                sps.append(self._make_session_opener(tracker, time))
        for tracker in self._userdef_closed:
            if tracker.opens_at(event):
                sps.append(self._make_userdef_opener(tracker, time))
        for tracker in self.counts:
            if tracker.ctx in matched_set and tracker.opens_now():
                sps.append(self._make_count_opener(tracker, time))
        if sps:
            self._cut(time, [], sps)

    def _close_data_driven(self, event: Event, matched_set: set[int]) -> None:
        """Post-insert punctuations: windows that close with this event."""
        time = event.time
        eps: list = []
        for tracker in self.sessions:
            if tracker.ctx in matched_set and tracker.window is not None:
                tracker.touch(time)
                if self.mode == "heap":
                    if not tracker.armed:
                        tracker.armed = True
                        self._push(
                            tracker.tentative_end,
                            _SESSION_EP,
                            (tracker, tracker.generation),
                        )
                elif (
                    self._scan_next is None
                    or tracker.tentative_end < self._scan_next
                ):
                    # The session end may now be the earliest punctuation.
                    self._scan_next = tracker.tentative_end
        for tracker in self.counts:
            if tracker.ctx in matched_set:
                for window in tracker.record():
                    eps.append((window, time))
        if event.marker is not None:
            for tracker in self.userdef:
                if tracker.closes_at(event):
                    eps.append((tracker.window, time))
                    tracker.window = None
                    self._userdef_closed.append(tracker)
        if eps:
            self._cut(time, eps, [])

    # -- batched event processing ---------------------------------------------

    def _next_punctuation(self) -> int | None:
        """Earliest upcoming punctuation time (a safe lower bound).

        Valid right after a drain: in heap mode the heap top is strictly
        in the future (possibly stale entries only shorten runs), and so
        is the next grid punctuation of a grid-driven runtime; in scan
        mode ``_scan_next`` is the cached earliest due time, which may be
        early but never late.  ``None`` means no punctuation is pending.
        """
        if self.mode == "heap":
            due = self._grid_next
            if self._heap and (due is None or self._heap[0][0] < due):
                return self._heap[0][0]
            return due
        return self._scan_next

    @property
    def batch_eligible(self) -> bool:
        """Whether slice-runs are safe: every cut follows from the time
        column.

        A session's *end* is a heap punctuation like a fixed window's and
        its *open* a run boundary (:meth:`_session_bound`); count and
        user-defined windows cut on the events themselves, so their groups
        must process events one at a time.
        """
        return not (self.userdef or self.counts)

    @property
    def reads_keys(self) -> bool:
        """Whether the slice-run kernel reads the key column: only for
        contexts it routes row by row — the key index, the deduplication
        signature and a keyed session's run bound (:meth:`_session_bound`)
        all belong to such contexts."""
        return self._router.routed

    def begin_run(self, time: int) -> int | None:
        """Start a slice-run at ``time``: advance the stream clock, drain
        due punctuations, and return the next punctuation deadline (every
        event strictly before it lands in the currently open slice)."""
        if not self._bootstrapped:
            self._bootstrap(time)
        elif self.stream_time is not None and time < self.stream_time:
            raise OutOfOrderError(
                f"event at t={time} arrived after stream time {self.stream_time}"
            )
        self.stream_time = time
        self._drain(time)
        return self._next_punctuation()

    def process_batch(self, events: Sequence[Event]) -> None:
        """Process an ordered batch of events, amortizing per-event work.

        Between two consecutive punctuations no cuts can occur, so every
        maximal prefix of the batch strictly before the next punctuation
        deadline (*slice-run*) lands in the same open slice and is applied
        at once: punctuations are drained once per run, a context that
        takes every row takes the run's values whole, the others are
        routed through the group's key index, and operator updates go
        through the bulk :meth:`Slice.insert_run` API.  A
        session's end is such a punctuation and its open ends the run
        (:meth:`_session_bound`).  Results, engine state, and
        :class:`EngineStats` come out identical to per-event
        :meth:`process` calls.

        Groups that are not :attr:`batch_eligible` (count-based or
        user-defined windows) fall back to the per-event path.
        """
        if not self.batch_eligible:
            for event in events:
                self.process(event)
        elif events:
            _ingest_columns(
                (self,), *_columns(events, self.reads_keys, bool(self._dedup_ctxs))
            )

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
        slice.

        The caller guarantees the time column is ordered, that no
        punctuation falls inside the run, and that a run with a row
        matching a still-closed session is one row long
        (:meth:`_session_bound`).  So no window closes and no result is
        emitted here: a whole context (see
        :class:`~repro.core.predicates.SelectionRouter`) takes the run's
        stretch of the value column as is, a row loop — only when some
        context is routed — buffers the values of the others, and each
        context's run goes in through one bulk insert (into the slice a
        session opening here has just cut).  ``keys`` is read only by
        that loop; ``markers`` is sparse (row -> marker) and only feeds
        the deduplication signature.  Stats count the batched work as if
        it had been applied per event (``selection_checks`` still bills
        the full linear scan).
        """
        stats = self.stats
        router = self._router
        whole = router.whole
        run_values: dict[int, list[float]] = {}
        #: ctx -> first / last matching row (tracked runs only)
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        if router.routed:
            candidates = router.candidates
            dedup_ctxs = self._dedup_ctxs
            if dedup_ctxs or whole or self.sessions or self.track_spans:
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
        self.stream_time = times[stop - 1]
        stats.selection_checks += router.total * (stop - start)
        if not run_values:
            return
        if self.sessions:
            self._touch_sessions(times, start, last, run_values)
        current = self.current
        operators = self.operators
        matched_total = 0
        for ctx, run in run_values.items():
            current.insert_run(ctx, run, operators)
            matched_total += len(run)
        stats.inserts += matched_total
        stats.calculations += matched_total * len(operators)
        if self.track_spans:
            spans = self._spans
            for ctx, k in last.items():
                span = spans.get(ctx)
                if span is None:
                    spans[ctx] = [times[first[ctx]], times[k]]
                else:
                    span[1] = times[k]

    def _session_bound(
        self, keys: Sequence[str], values: Sequence[float], start: int, stop: int
    ) -> int:
        """Where the run ``[start, stop)`` must end for the sessions' sake.

        A closed session opens — cutting the slice — at the first row
        matching its context, so that row may only come first in a run:
        the run ends before it or, when it is row ``start`` itself, right
        after it (its end punctuation must be in the heap before the next
        deadline is read).  Open sessions need no bound: their end is
        part of the deadline and rows before it only extend them.
        """
        for tracker in self.sessions:
            if tracker.window is not None:
                continue
            selection = self.selections[tracker.ctx]
            key, lo, hi = selection.key, selection.lo, selection.hi
            k = start
            while k < stop:
                if key is not None:
                    try:
                        k = keys.index(key, k, stop)
                    except ValueError:
                        break
                value = values[k]
                if (lo is None or value >= lo) and (hi is None or value < hi):
                    stop = max(k, start + 1)
                    break
                k += 1
        return stop

    def _touch_sessions(
        self, times: Sequence[int], start: int, last: dict[int, int],
        run_values: dict[int, list[float]],
    ) -> None:
        """What :meth:`process` does for sessions around each insert, once
        per run.

        Closed trackers whose context received rows cut and open at the
        run's first row (pre-insert; such a run is that one row), then
        every tracker that received rows takes its last row's time and
        one generation per row.  Only a tracker opened here is unarmed, so
        the end punctuation it pushes carries that row's time and
        generation; in scan mode ``_scan_next`` already lies at or below
        every session open at the drain, so only an opening lowers it.
        """
        touched = [tracker for tracker in self.sessions if tracker.ctx in last]
        sps = [
            self._make_session_opener(tracker, times[start])
            for tracker in touched
            if tracker.window is None
        ]
        if sps:
            self._cut(times[start], [], sps)
        for tracker in touched:
            tracker.last_time = times[last[tracker.ctx]]
            tracker.generation += len(run_values[tracker.ctx])
            end = tracker.tentative_end
            if self.mode == "heap":
                if not tracker.armed:
                    tracker.armed = True
                    self._push(end, _SESSION_EP, (tracker, tracker.generation))
            elif self._scan_next is None or end < self._scan_next:
                self._scan_next = end

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
        if not self.open_windows and (self.grid is None or not self.fixed):
            return  # (the fixed windows a grid stands in for are always open)
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
    """Split events into the slice-run kernel's columns.

    The key column is built only when some group reads it
    (:attr:`GroupRuntime.reads_keys`) and is empty otherwise; markers
    only feed the deduplication signature, so the sparse ``row ->
    marker`` map is built only when a deduplicating context will read it.
    """
    markers: dict[int, str] = {}
    if with_markers:
        markers = {
            row: event.marker
            for row, event in enumerate(events)
            if event.marker is not None
        }
    return (
        [event.time for event in events],
        [event.key for event in events] if with_keys else (),
        [event.value for event in events],
        markers,
    )


def _ingest_columns(
    groups: Sequence[GroupRuntime],
    times: Sequence[int],
    keys: Sequence[str],
    values: Sequence[float],
    markers: dict[int, str],
    events: Sequence[Event] | None = None,
) -> None:
    """Drive ``groups`` through ordered columns in synchronized slice-runs.

    Every chunk ends at the earliest next punctuation across the
    batch-eligible groups (found by ``bisect`` on the time column: rows
    *at* the deadline start the next run) or, sooner, at the first row
    that opens a session in any of them, so even the cross-group result
    interleaving is byte-identical to per-event processing: eligible
    groups only emit at chunk starts — in group order, exactly when and
    where the per-event path drains them — while groups with count-based
    or user-defined windows, which cut on the events themselves, process
    each chunk event by event out of ``events`` (the rows as objects,
    required only when such a group exists), emitting at their own events
    just like under :meth:`GroupRuntime.process`.

    The time column is validated up front so a mid-batch regression
    cannot leave groups at diverging stream times.
    """
    if sorted(times) != times:
        prev = times[0]
        for time in times:
            if time < prev:
                raise OutOfOrderError(
                    f"event at t={time} arrived after stream time {prev}"
                )
            prev = time
    batched = [group.batch_eligible for group in groups]
    eligible = [group for group, ok in zip(groups, batched) if ok]
    fallback = [group for group, ok in zip(groups, batched) if not ok]
    i = 0
    n = len(times)
    while i < n:
        time = times[i]
        deadline: int | None = None
        # The chunk's first row, in group order: eligible groups drain
        # (emitting due results) and open their run; fallback groups
        # process the event outright.
        for group, ok in zip(groups, batched):
            if ok:
                due = group.begin_run(time)
                if due is not None and (deadline is None or due < deadline):
                    deadline = due
            else:
                group.process(events[i])
        j = n if deadline is None else bisect_left(times, deadline, i + 1)
        for group in eligible:
            if group.sessions:
                j = group._session_bound(keys, values, i, j)
        # Eligible groups cannot emit again before the deadline, so
        # fallback groups may run ahead through the chunk without
        # disturbing the per-event result interleaving.
        if fallback:
            for k in range(i + 1, j):
                for group in fallback:
                    group.process(events[k])
        for group in eligible:
            group._process_run(times, keys, values, markers, i, j)
        i = j


class AggregationEngine:
    """Multi-query window aggregation with cross-query sharing (Sec 4).

    This is the centralized engine (and the per-node workhorse of the
    decentralized clusters).  Construct it with the full query set; feed
    events in timestamp order via :meth:`process`; results appear in
    :attr:`sink`.

    Args:
        queries: the continuous queries to execute.
        config: an :class:`~repro.core.config.EngineConfig` carrying every
            behavioural knob; the keyword arguments below override single
            fields of it.  ``config.shards`` is informational here — this
            class always runs in-process; sharded execution is enacted by
            :class:`repro.parallel.ShardedEngine`.
        policy: how aggressively to share (Desis = ``FULL``).
        punctuation_mode: ``"heap"`` (Desis) or ``"scan"`` (baseline cost
            model); see the module docstring.
        emit_empty: also emit results for windows without matching events.
        sink: custom result sink (default: an in-memory :class:`ResultSink`).
    """

    def __init__(
        self,
        queries: Iterable[Query],
        *,
        config: "EngineConfig | None" = None,
        policy: SharingPolicy | None = None,
        punctuation_mode: str | None = None,
        emit_empty: bool | None = None,
        sink: ResultSink | None = None,
        plan: QueryPlan | None = None,
        recorder=None,
    ) -> None:
        from repro.core.config import EngineConfig

        resolved = config if config is not None else EngineConfig()
        overrides: dict[str, object] = {}
        if policy is not None:
            overrides["policy"] = policy
        if punctuation_mode is not None:
            overrides["punctuation_mode"] = punctuation_mode
        if emit_empty is not None:
            overrides["emit_empty"] = emit_empty
        if overrides:
            resolved = resolved.with_options(**overrides)
        #: the resolved configuration this engine runs with
        self.config = resolved
        self.sink = sink if sink is not None else ResultSink()
        self.stats = EngineStats()
        if plan is not None:
            self.plan = plan
        else:
            self.plan = analyze(queries, policy=resolved.policy)
        self.policy = self.plan.policy
        #: opt-in slice-lifecycle tracing (repro.obs.tracing.TraceRecorder)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.groups: list[GroupRuntime] = [
            GroupRuntime(
                group,
                self.sink,
                self.stats,
                punctuation_mode=resolved.punctuation_mode,
                emit_empty=resolved.emit_empty,
                recorder=self.recorder,
                node_id="engine",
            )
            for group in self.plan.groups
        ]
        self._closed = False

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def process(self, event: Event) -> None:
        """Process one event (events must arrive in timestamp order)."""
        self.stats.events += 1
        for group in self.groups:
            group.process(event)

    def process_batch(self, events: Sequence[Event]) -> None:
        """Process an ordered batch of events through the fast path.

        Equivalent to calling :meth:`process` per event — identical
        results, state, and :class:`EngineStats` — but each query-group
        amortizes punctuation drains, selection matching, and operator
        dispatch over whole slice-runs: the events are split into columns
        once and driven through :func:`_ingest_columns`, the same kernel
        :meth:`process_columns` feeds.  Groups with count-based or
        user-defined windows keep processing the batch event by event.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if not any(group.batch_eligible for group in self.groups):
            for event in events:  # nothing would read the columns
                self.process(event)
        elif events:
            keys = any(group.reads_keys for group in self.groups)
            dedup = any(group._dedup_ctxs for group in self.groups)
            _ingest_columns(self.groups, *_columns(events, keys, dedup), events)
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
        one length (checked before any row lands); ``markers`` sparsely
        maps row -> marker.  No :class:`Event` is built, which is why
        engines with count-based or user-defined windows — whose
        per-event path needs the objects — reject this entry; tumbling,
        sliding and session windows all run here.
        """
        if not all(group.batch_eligible for group in self.groups):
            raise EngineError(
                "process_columns cannot drive count-based or user-defined "
                "windows, which cut on the events themselves; feed events "
                "through process_batch instead"
            )
        if not len(times) == len(keys) == len(values):
            raise EngineError(
                f"columns of unequal length: {len(times)} times, "
                f"{len(keys)} keys, {len(values)} values"
            )
        if times:
            _ingest_columns(self.groups, times, keys, values, markers or {})
            self.stats.events += len(times)

    def process_many(self, events: Iterable[Event]) -> None:
        """Batched ingestion for any iterable of in-order events."""
        self.process_batch(
            events if isinstance(events, (list, tuple)) else list(events)
        )

    def advance(self, time: int) -> None:
        """Apply a watermark to every group."""
        for group in self.groups:
            group.advance(time)

    def close(self, at_time: int | None = None) -> ResultSink:
        """Flush everything and return the result sink."""
        if self._closed:
            raise EngineError("engine already closed")
        self._closed = True
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

    def add_query(self, query: Query) -> None:
        """Attach a new query at runtime (Sec 3.2).

        The query joins an existing compatible group (or a new group) and
        starts windowing at the current stream time.  Operators already
        planned for running groups are never dropped, so open windows keep
        the partials they rely on.
        """
        from repro.core.analyzer import QueryGroup, _policy_key
        from repro.core.predicates import compatible as _compatible

        if any(q.query_id == query.query_id for q in self.plan.queries):
            raise QueryError(f"duplicate query id: {query.query_id!r}")
        key = _policy_key(query, self.policy)
        target: GroupRuntime | None = None
        for runtime in self.groups:
            group = runtime.group
            if not group.queries:
                continue
            if _policy_key(group.queries[0], self.policy) != key:
                continue
            if all(_compatible(query.selection, sel) for sel in group.selections):
                target = runtime
                break
        if target is None:
            group = QueryGroup(group_id=len(self.plan.groups))
            self.plan.groups.append(group)
            group._admit(query)
            group._replan()
            target = GroupRuntime(
                group,
                self.sink,
                self.stats,
                punctuation_mode=self.config.punctuation_mode,
                emit_empty=self.config.emit_empty,
                recorder=self.recorder,
                node_id="engine",
            )
            self.groups.append(target)
            # Bootstrap the new group at the current stream time so its
            # first fixed window anchors at the join time — without this,
            # the group would bootstrap lazily at its next event and its
            # window schedule could anchor at an arbitrary later (or, via
            # ``advance``, the origin) timestamp instead.
            stream_time = max(
                (g.stream_time for g in self.groups if g.stream_time is not None),
                default=None,
            )
            if stream_time is not None:
                target.advance(stream_time)
            return
        group = target.group
        # Cut the open slice so new selections/operators apply cleanly from
        # here; historical slices are only read by pre-existing windows.
        if target._bootstrapped and target.stream_time is not None:
            target._cut(target.stream_time, [], [])
        group._admit(query)
        new_ops = plan_operators_keeping(group, target.operators)
        group.operators = new_ops
        target.operators = new_ops
        target.refresh_selections()
        # (``update``: a draining query's windows still finalize by it)
        target.needed.update(
            (q.query_id, required_kinds(q, new_ops)) for q in group.queries
        )
        target.add_query(query)


def plan_operators_keeping(group, existing: tuple) -> tuple:
    """Replan a running group's operators without dropping any in use."""
    from repro.core.functions import plan_operators

    fresh = plan_operators(q.function for q in group.queries)
    merged = list(existing)
    for kind in fresh:
        if kind not in merged:
            merged.append(kind)
    return tuple(merged)
